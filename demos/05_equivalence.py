"""Decide when two parabolas describe the same manifold.

Causal isometry means Q1(s) = X^T Q2(alpha s + beta) X with X integer
unimodular, alpha > 0; real invertible X gives almost-causal isometry.
The spectrum of B C^{-1} up to affine maps is the first obstruction.
The second is the normal form (s + diag mu)^2 + H of the C-gauge
(F^T C F = I): H up to the rotations that fix diag mu, scaled by the
spread of mu.  Explicit witnesses are assembled and re-verified, and
for tiny orders integer certificates can be searched exhaustively.
"""

import numpy as np

from causalcurves import (
    EquivalenceCertificate,
    affine_spectrum,
    almost_equivalent,
    apply_certificate,
    build,
    char_polynomial,
    example_5d,
    realize,
    search_certificate,
    simple_spectrum_form,
    verify_equivalence,
)

np.set_printoptions(precision=4, suppress=True)

P1 = char_polynomial(example_5d(t=1.0, r=1.0))
P2 = char_polynomial(example_5d(t=2.0, r=1.0))

print("affine spectra (canonicalized to [0, 1]):")
print("  (t, r) = (1, 1):", affine_spectrum(P1).values)
print("  (t, r) = (2, 1):", affine_spectrum(P2).values)

print("\nsimple-spectrum normal forms:")
for label, P in (("(1, 1)", P1), ("(2, 1)", P2)):
    form = simple_spectrum_form(realize(P, 5))
    print(f"  {label}: eigenvalues {form.eigenvalues}, gram\n    "
          + str(form.gram).replace("\n", "\n    "))

verdict = almost_equivalent(P1, P2, n=5)
print("\n(1,1) vs (2,1):", verdict.verdict, "-", verdict.reason)

# A disguised copy of P1: congruence by an integer matrix plus an
# affine change of the parameter.
cert = EquivalenceCertificate([[2, 1], [1, 1]], alpha=0.5, beta=1.5)
P1_disguised = apply_certificate(P1, cert.inverse())
verdict = almost_equivalent(P1, P1_disguised, n=5)
print("\nP1 vs disguised P1:", verdict.verdict)
print("  witness X =\n", verdict.certificate.X)
print("  alpha =", round(verdict.certificate.alpha, 6),
      " beta =", round(verdict.certificate.beta, 6))
print("  re-verified:", verify_equivalence(P1, P1_disguised, verdict.certificate, 1e-7))

# B = C: the affine spectrum is degenerate (a single point), so the
# spread cannot fix alpha; H is then scaled by its largest eigenvalue.
# a' = diag(t) with a''^T a'' = diag(t - t^2) gives C = a'^2 + a''^T a'' = a'.
def proportional(t):
    t = np.asarray(t)
    return char_polynomial(build(6, np.diag(t), np.diag(np.sqrt(t - t * t)), np.eye(2)))


P3, P4 = proportional([0.3, 0.6]), proportional([0.3, 0.8])
P3_disguised = apply_certificate(P3, EquivalenceCertificate([[1, 2], [0, 1]], 2.0, -0.5))
print("\nB = C: degenerate affine spectrum", affine_spectrum(P3).degenerate)
verdict = almost_equivalent(P3, P3_disguised)
print("  P3 vs disguised P3:", verdict.verdict, "-", verdict.reason)
print("  re-verified:", verify_equivalence(P3, P3_disguised, verdict.certificate, 1e-7))
verdict = almost_equivalent(P3, P4)
print("  P3 vs P4:", verdict.verdict, "-", verdict.reason)

found = search_certificate(P1, P1_disguised, entry_bound=3)
print("\nexhaustive integer search (entries up to 3):")
print("  found:", found is not None, " integral:", found.integral)
print("  X =\n", found.X)
