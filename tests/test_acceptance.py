"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3 checks that the Schur condition is not enough on its
own for membership (second pair), and that the first pair, with
A = B = I, fails both positivity and the Schur condition: there
Q(-1) = C - B A^{-1} B, so an indefinite Schur complement makes Q(-1)
indefinite too.  That positivity is not enough on its own is checked by
``tests/test_charpoly.py::TestPositivity::test_positive_without_schur``.
"""

import numpy as np
import pytest

from causalcurves import (
    EquivalenceCertificate,
    MatrixParabola,
    affine_spectrum,
    almost_equivalent,
    apply_certificate,
    char_polynomial,
    check_free,
    check_positive_all_s,
    example_4d,
    example_5d,
    gamma_apply,
    is_characteristic,
    lambda_of,
    q_direct,
    realize,
    reduce_degenerate,
    schur_condition,
    signature_of,
    symmetrize,
    verify_equivalence,
)
from causalcurves import symmat
from conftest import (
    random_characteristic_parabola,
    random_elliptic,
    random_lattice,
    random_manifold,
    random_real_invertible,
    random_unimodular,
    random_violating_arrays,
    unvalidated_manifold,
)

I2 = np.eye(2)


def test_criterion_01_golden_dim4():
    M = example_4d()
    P = char_polynomial(M)
    assert np.max(np.abs(P.A - [[1.0]])) <= 1e-12
    assert np.max(np.abs(P.B - [[0.0]])) <= 1e-12
    assert np.max(np.abs(P.C - [[1.0]])) <= 1e-12
    assert signature_of(M).as_tuple() == (4, 1, 1, 0)
    ok, sig = is_characteristic(P, 4)
    assert ok and sig.as_tuple() == (4, 1, 1, 0)
    print("ACCEPTANCE 01: PASS - dim-4 golden values exact to 1e-12")


@pytest.mark.parametrize("t,r", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_criterion_02_golden_dim5(t, r):
    M = example_5d(t, r)
    P = char_polynomial(M)
    assert np.max(np.abs(P.A - I2)) <= 1e-10
    assert np.max(np.abs(P.B - np.diag([0.0, 1.0]))) <= 1e-10
    expected_c = np.array([[t * t, t * r], [t * r, 1.0 + r * r]])
    assert np.max(np.abs(P.C - expected_c)) <= 1e-10
    assert signature_of(M).as_tuple() == (5, 2, 1, 0)
    assert schur_condition(P).rank == 1
    print(f"ACCEPTANCE 02: PASS - dim-5 golden values for (t, r) = ({t:g}, {r:g})")


def test_criterion_03_counterexample_pair():
    first = MatrixParabola(I2, I2, [[1.0, 0.5], [0.5, 1.0]])
    second = MatrixParabola(I2, np.diag([1.0, 0.0]), I2)

    assert not schur_condition(first).psd
    assert not check_positive_all_s(second)
    roots = symmat.real_roots(symmat.det_poly(second.A, second.B, second.C))
    assert roots.size == 1 and abs(roots[0] + 1.0) < 1e-8
    assert schur_condition(second).psd
    assert not is_characteristic(first, 6)[0]
    assert not is_characteristic(second, 6)[0]
    print("ACCEPTANCE 03: checks above PASS; checking first-pair positivity at s = -1")
    # With A = B = identity, Q(s) = (1 + s)^2 I + s^2 (C - I), so
    # Q(-1) = C - I = C - B A^{-1} B = [[0, 1/2], [1/2, 0]], whose
    # eigenvalues are -1/2 and 1/2: the first pair is not positive for
    # every s, for the same reason that its Schur complement is not PSD.
    q_minus_one = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.max(np.abs(first(-1.0) - schur_condition(first).matrix)) <= 1e-12
    assert np.max(np.abs(first(-1.0) - q_minus_one)) <= 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(first(-1.0)) - [-0.5, 0.5])) <= 1e-12
    assert not check_positive_all_s(first)
    print("ACCEPTANCE 03: PASS - counterexample pair")


def test_criterion_04_round_trip_oracle():
    rng = np.random.default_rng(404)
    for i in range(100):
        if i % 10 == 9:
            M = random_elliptic(rng)
        else:
            M = random_manifold(rng, k=0)
        P = char_polynomial(M)
        M2 = realize(P, M.n)
        P2 = char_polynomial(M2)
        scale = P.coeff_scale()
        for lhs, rhs in ((P.A, P2.A), (P.B, P2.B), (P.C, P2.C)):
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale
    print("ACCEPTANCE 04: PASS - 100 realize round trips within 1e-8")


def test_criterion_05_q_consistency():
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 1000:
        if rng.random() < 0.2:
            M = random_manifold(rng, m=3, r=1, k=1)
        else:
            M = random_manifold(rng, k=0)
        P = char_polynomial(M)
        for _ in range(10):
            z = rng.integers(-4, 5, size=M.m).astype(float)
            v = 3.0 * rng.standard_normal(M.n)
            direct = q_direct(M, z, v)
            form = float(z @ P(M.frame.l0(v)) @ z)
            assert abs(direct - form) <= 1e-9 * (1.0 + abs(direct))
            checked += 1
    print("ACCEPTANCE 05: PASS - 1000 loop-length evaluations match the parabola")


def test_criterion_06_freeness_iff_positivity():
    rng = np.random.default_rng(606)
    for i in range(200):
        if i % 2 == 0:
            M = random_manifold(rng)
        else:
            a_prime, a_dbl = random_violating_arrays(rng)
            M = unvalidated_manifold(a_prime, a_dbl)
        assert check_free(M) == check_positive_all_s(char_polynomial(M))
    print("ACCEPTANCE 06: PASS - freeness equals positivity on 200 datasets")


def test_criterion_07_invariance_suite():
    rng = np.random.default_rng(707)
    for i in range(100):
        P = random_characteristic_parabola(rng)
        m = P.dim
        x = random_unimodular(rng, m) if i % 2 else random_real_invertible(rng, m)
        alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        beta = float(rng.uniform(-5.0, 5.0))
        cert = EquivalenceCertificate(x, alpha, beta)
        transformed = apply_certificate(P, cert)
        assert affine_spectrum(P).matches(affine_spectrum(transformed), tol=1e-7)
        planted = apply_certificate(P, cert.inverse())
        assert verify_equivalence(P, planted, cert, 1e-7)
        # The check's band on each coefficient: 1e-7 times the larger of
        # P's entries and the terms X^T planted(alpha s + beta) X is summed
        # from.  A positive multiple of P is a member of P's signature, so
        # only the coefficients can tell it apart: an error of 10 bands in
        # its worst coefficient is rejected, one of 0.1 band accepted.
        a, b, c = np.abs(symmat.congruence(planted.coeffs, x)).max(axis=(1, 2))
        terms = (max(a, 2 * abs(beta) * b, beta**2 * c), alpha * max(b, abs(beta) * c), alpha**2 * c)
        size = np.abs(P.coeffs).max(axis=(1, 2))
        worst = np.max(size / (1e-7 * np.maximum(size, terms)))
        for multiple, accepted in ((10.0, False), (0.1, True)):
            scaled = MatrixParabola(*((1.0 + multiple / worst) * P.coeffs))
            assert verify_equivalence(scaled, planted, cert, 1e-7) == accepted
    print("ACCEPTANCE 07: PASS - spectra invariant, certificates verified on 100 pairs, 10 bands off rejected")


def test_criterion_08_degenerate_reduction():
    rng = np.random.default_rng(808)
    for _ in range(30):
        inner_dim = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        planted = random_characteristic_parabola(rng, m=inner_dim, simple=True)
        const_root = random_lattice(rng, k)
        constant = symmetrize(const_root.T @ const_root)
        m = inner_dim + k

        def block(top, bottom):
            out = np.zeros((m, m))
            out[:k, :k] = top
            out[k:, k:] = bottom
            return out

        assembled = MatrixParabola(
            block(constant, planted.A), block(np.zeros((k, k)), planted.B),
            block(np.zeros((k, k)), planted.C),
        )
        x = random_real_invertible(rng, m)
        conjugated = MatrixParabola(
            x.T @ assembled.A @ x, x.T @ assembled.B @ x, x.T @ assembled.C @ x
        )
        band = 1e-8 * (1.0 + np.max(np.abs(conjugated.C)))
        assert np.sum(np.abs(np.linalg.eigvalsh(conjugated.C)) <= band) == k
        red = reduce_degenerate(conjugated, 1e-8)
        assert red.constant_block.shape == (k, k)
        verdict = almost_equivalent(red.reduced, planted)
        assert verdict.is_yes
        for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
            full = red.X.T @ conjugated(s) @ red.X
            assert np.max(np.abs(full[:k, :k] - red.constant_block)) <= 1e-9 * (
                1.0 + np.max(np.abs(full))
            )
    print("ACCEPTANCE 08: PASS - degenerate blocks recovered and matched on 30 cases")


def test_criterion_09_group_action_laws():
    rng = np.random.default_rng(909)
    for _ in range(100):
        M = random_manifold(rng)
        x = rng.standard_normal(M.m)
        y = rng.standard_normal(M.m)
        u = rng.standard_normal(M.n)
        v = rng.standard_normal(M.n)
        lam = lambda_of(M, x)

        left = gamma_apply(M, x, gamma_apply(M, y, v))
        right = gamma_apply(M, x + y, v)
        assert np.max(np.abs(left - right)) <= 1e-9 * (1.0 + np.max(np.abs(right)))

        assert abs(M.frame.ell(lam @ u, lam @ v) - M.frame.ell(u, v)) <= 1e-9 * (
            1.0 + abs(M.frame.ell(u, v))
        )

        nil = lam - np.eye(M.n)
        assert np.max(np.abs(nil @ nil @ nil)) <= 1e-9 * (1.0 + np.max(np.abs(nil))) ** 3

        assert abs(M.frame.l0(gamma_apply(M, x, v)) - M.frame.l0(v)) <= 1e-9 * (
            1.0 + abs(M.frame.l0(v))
        )

        assert np.max(np.abs(lam @ M.frame.v0 - M.frame.v0)) <= 1e-9
    print("ACCEPTANCE 09: PASS - group-action laws hold on 100 samples")


def test_criterion_10_transverse_rank_positive():
    rng = np.random.default_rng(1010)
    accepted = 0
    for i in range(200):
        if i % 2 == 0:
            P = random_characteristic_parabola(rng)
        else:
            m = int(rng.integers(1, 4))
            raw = [rng.standard_normal((m, m)) for _ in range(3)]
            P = MatrixParabola(*(0.5 * (w + w.T) for w in raw))
        nonelliptic = max(np.max(np.abs(P.B)), np.max(np.abs(P.C))) > 1e-9
        ok, sig = is_characteristic(P, 2 * P.dim + 2)
        if ok and nonelliptic:
            accepted += 1
            assert sig.r >= 1
    assert accepted >= 50  # the acceptance filter must actually fire
    print(f"ACCEPTANCE 10: PASS - every accepted nonelliptic parabola ({accepted}) has r >= 1")
