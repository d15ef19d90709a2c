"""Reconstruction, certificates, spectral invariants, equivalence search."""

import copy
import io
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcurves import (
    BadCertificate,
    CSingular,
    DimensionMismatch,
    EquivalenceCertificate,
    MatrixParabola,
    NonFiniteInput,
    NotCharacteristic,
    NotDegenerate,
    NotSimpleSpectrum,
    SignatureInconsistent,
    UnsupportedDimension,
    affine_spectrum,
    almost_equivalent,
    apply_certificate,
    build,
    char_polynomial,
    check_free,
    example_4d,
    example_5d,
    identity_certificate,
    is_characteristic,
    realize,
    reparametrize,
    search_certificate,
    signature_of,
    simple_spectrum_form,
    symmetrize,
    verify_equivalence,
)
import causalcurves
from causalcurves import charpoly, classify, cli, symmat
from conftest import (
    random_characteristic_parabola,
    random_elliptic,
    random_lattice,
    random_manifold,
    random_orthogonal,
    random_real_invertible,
    random_unimodular,
    random_violating_arrays,
    rounding_asymmetric,
    unvalidated_manifold,
    wide_map_pair,
)

P_UNIT = MatrixParabola([[1.0]], [[0.0]], [[1.0]])


def random_certificate(rng, m, integral=None):
    if integral is None:
        integral = rng.random() < 0.5
    x = random_unimodular(rng, m) if integral else random_real_invertible(rng, m)
    alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    beta = float(rng.uniform(-5.0, 5.0))
    return EquivalenceCertificate(x, alpha, beta)


def proportional_b_members(rng, m):
    """Eigenvalues t and a maker of members with B = b C (b > 0), whose
    affine spectrum is degenerate: a' = W diag(t) W^T with 0 < t < 1/b
    and a''^T a'' = a'/b - a'^2, for one draw of b, W and the lattice."""
    b = rng.uniform(0.3, 2.0)
    W, L = random_orthogonal(rng, m), random_lattice(rng, m)

    def member(t):
        a_dbl = np.diag(np.sqrt(t / b - t * t)) @ W.T
        return char_polynomial(build(2 * m + 2, W @ np.diag(t) @ W.T, a_dbl, L))

    return np.sort(rng.uniform(0.1, 0.9, m)) / b, member


class TestRealize:
    def test_unit_parabola(self):
        M = realize(P_UNIT, 4)
        np.testing.assert_allclose(M.a_prime, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(M.a_dblprime), [[1.0]], atol=1e-12)
        np.testing.assert_allclose(M.lattice, [[1.0]], atol=1e-12)

    def test_dim5_round_trip(self):
        P = char_polynomial(example_5d(1, 1))
        M = realize(P, 5)
        assert signature_of(M).as_tuple() == (5, 2, 1, 0)
        assert char_polynomial(M).close_to(P, 1e-8)

    def test_elliptic(self, rng):
        A = symmetrize(np.diag([2.0, 3.0]) + 0.2)
        P = MatrixParabola(A, np.zeros((2, 2)), np.zeros((2, 2)))
        M = realize(P, 4)
        assert M.elliptic
        np.testing.assert_allclose(M.lattice, symmat.psd_sqrt(A), atol=1e-12)
        assert char_polynomial(M).close_to(P, 1e-8)

    def test_rejects_non_characteristic(self):
        P = MatrixParabola(np.eye(2), np.eye(2), [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NotCharacteristic):
            realize(P, 6)

    def test_round_trip_constant_directions(self, rng):
        # Members with k >= 1 are realized as constant block plus moving
        # part, also after wide real certificates.
        P = MatrixParabola(np.diag([1.0, 2.0]), np.zeros((2, 2)), np.diag([1.0, 0.0]))
        M = realize(P, 5)
        assert signature_of(M).as_tuple() == (5, 2, 1, 1)
        assert char_polynomial(M).close_to(P, 1e-10)
        for m in range(2, 9):
            for _ in range(4):
                k = int(rng.integers(1, m))
                P = char_polynomial(random_manifold(rng, m=m, r=int(rng.integers(1, m - k + 1)), k=k))
                cert = EquivalenceCertificate(
                    random_real_invertible(rng, m), 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-50.0, 50.0)
                )
                Q = apply_certificate(P, cert)
                n = 2 * m + 2
                ok, sig = is_characteristic(Q, n)
                assert ok and sig.k == k
                M = realize(Q, n)
                assert signature_of(M) == sig
                assert char_polynomial(M).close_to(Q, 1e-8)

    def test_realizes_wherever_characteristic(self, rng):
        # Membership and realization share one floor for the ambient
        # dimension, m + r + 2 <= n: down to n = 3 for an order-1
        # elliptic member.
        members = []
        for m in (1, 2, 3):
            members += [random_manifold(rng, m=m) for _ in range(4)]
            members += [random_elliptic(rng, m=m, extra_dim=0) for _ in range(2)]
            if m > 1:
                members.append(random_manifold(rng, m=m, r=1, k=1))
        for M in members:
            P, (_, m, r, _) = char_polynomial(M), signature_of(M).as_tuple()
            for n in range(m + r + 1, m + r + 4):
                ok, sig = is_characteristic(P, n)
                assert ok == (n >= m + r + 2)
                if ok:
                    realized = realize(P, n)
                    assert signature_of(realized) == sig
                    assert char_polynomial(realized).close_to(P, 1e-8)

    def test_round_trip_random(self, rng):
        for _ in range(100):
            P = random_characteristic_parabola(rng)
            n = 2 * P.dim + 2
            M = realize(P, n)
            assert char_polynomial(M).close_to(P, 1e-8)
            assert check_free(M)

    def test_sum_of_squares_normalization(self, rng):
        # Q(s) = A^{1/2} ((1 + s B~)^2 + s^2 (C~ - B~^2)) A^{1/2}.
        for _ in range(30):
            P = random_characteristic_parabola(rng)
            root = symmat.psd_sqrt(P.A)
            inv_root = symmat.pd_inv_sqrt(P.A)
            b_t = symmetrize(inv_root @ P.B @ inv_root)
            c_t = symmetrize(inv_root @ P.C @ inv_root)
            g = c_t - b_t @ b_t
            eye = np.eye(P.dim)
            for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
                inner = (eye + s * b_t) @ (eye + s * b_t) + s * s * g
                recon = root @ inner @ root
                assert np.max(np.abs(recon - P(s))) <= 1e-8 * (1 + np.max(np.abs(P(s))))

    def test_half_power_normalizations(self, rng):
        for _ in range(20):
            P = random_characteristic_parabola(rng)
            inv_a = symmat.pd_inv_sqrt(P.A)
            const = symmat.congruence(P.A, inv_a)
            np.testing.assert_allclose(const, np.eye(P.dim), atol=1e-9)
            inv_c = symmat.pd_inv_sqrt(P.C)
            quad = symmat.congruence(P.C, inv_c)
            np.testing.assert_allclose(quad, np.eye(P.dim), atol=1e-9)


class TestCertificates:
    def test_identity(self):
        P = char_polynomial(example_5d(1, 1))
        assert apply_certificate(P, identity_certificate(2)).close_to(P, 1e-12)

    def test_shift_by_one(self):
        out = apply_certificate(P_UNIT, EquivalenceCertificate([[1.0]], 1.0, 1.0))
        np.testing.assert_allclose(out.A, [[2.0]], atol=1e-14)
        np.testing.assert_allclose(out.B, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(out.C, [[1.0]], atol=1e-14)

    def test_reflect_and_scale(self):
        out = apply_certificate(P_UNIT, EquivalenceCertificate([[-1.0]], 2.0, 0.0))
        np.testing.assert_allclose(out.A, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(out.B, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(out.C, [[4.0]], atol=1e-14)

    def test_alpha_must_be_positive(self):
        with pytest.raises(BadCertificate):
            EquivalenceCertificate([[1.0]], -1.0, 0.0)

    def test_singular_x_rejected(self):
        with pytest.raises(BadCertificate):
            EquivalenceCertificate(np.zeros((2, 2)), 1.0, 0.0)

    @pytest.mark.parametrize("X", [1e-5 * np.eye(3), 0.03 * np.eye(8)])
    def test_small_well_conditioned_x_accepted(self, X):
        # |det X| is 1e-15 and 6.6e-13, but X is perfectly conditioned.
        cert = EquivalenceCertificate(X, 1.0, 0.0)
        np.testing.assert_array_equal(cert.inverse().X, np.linalg.inv(X))

    def test_integrality_flag(self):
        assert EquivalenceCertificate([[0, 1], [1, 0]], 1.0, 0.0).integral
        assert not EquivalenceCertificate([[0.5]], 1.0, 0.0).integral
        assert not EquivalenceCertificate([[2.0]], 1.0, 0.0).integral

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteInput):
            EquivalenceCertificate([[1.0, bad], [0.0, 1.0]], 1.0, 0.0)
        with pytest.raises(NonFiniteInput):
            EquivalenceCertificate(np.eye(2), bad, 0.0)
        with pytest.raises(NonFiniteInput):
            EquivalenceCertificate(np.eye(2), 1.0, bad)


class TestVerifyEquivalence:
    def test_reflexive(self):
        P = char_polynomial(example_5d(1, 1))
        assert verify_equivalence(P, P, identity_certificate(2), n=5)

    def test_shifted_unit(self):
        # The certificate transports the second curve onto the first:
        # applying ([1], 1, 1) to 1+s^2 yields 2+2s+s^2.
        P_shifted = MatrixParabola([[2.0]], [[1.0]], [[1.0]])
        cert = EquivalenceCertificate([[1.0]], 1.0, 1.0)
        assert verify_equivalence(P_shifted, P_UNIT, cert)
        mirror = EquivalenceCertificate([[1.0]], 1.0, -1.0)
        assert verify_equivalence(P_UNIT, P_shifted, mirror)

    def test_scaled_constant_rejected(self):
        P2 = MatrixParabola([[2.0]], [[0.0]], [[1.0]])
        # Matching quadratic coefficients forces alpha = 1 for X = +-1,
        # leaving the constant terms 1 and 2 apart.
        for x in (1.0, -1.0):
            for beta in (0.0, 0.5, -0.5):
                cert = EquivalenceCertificate([[x]], 1.0, beta)
                assert not verify_equivalence(P_UNIT, P2, cert)

    def test_planted_and_perturbed(self, rng):
        for _ in range(50):
            P = random_characteristic_parabola(rng)
            cert = random_certificate(rng, P.dim)
            P2 = apply_certificate(P, cert.inverse())
            assert verify_equivalence(P, P2, cert, 1e-7)
            bad = np.array(P2.A)
            bad[0, 0] += 1e-3
            P2_bad = MatrixParabola(bad, P2.B, P2.C)
            assert not verify_equivalence(P, P2_bad, cert, 1e-7)

    def test_certificate_preserves_invariants(self, rng):
        for _ in range(30):
            P = random_characteristic_parabola(rng)
            cert = random_certificate(rng, P.dim)
            P2 = apply_certificate(P, cert)
            n = 2 * P.dim + 2
            ok1, sig1 = is_characteristic(P, n)
            ok2, sig2 = is_characteristic(P2, n)
            assert ok1 and ok2 and sig1 == sig2
            assert affine_spectrum(P).matches(affine_spectrum(P2))


class TestAffineSpectrum:
    def test_unit_parabola_degenerate(self):
        spec = affine_spectrum(P_UNIT)
        assert spec.degenerate
        np.testing.assert_allclose(spec.values, [0.0])

    def test_dim5_canonical(self):
        spec = affine_spectrum(char_polynomial(example_5d(1, 1)))
        assert not spec.degenerate
        np.testing.assert_allclose(spec.values, [0.0, 1.0], atol=1e-12)

    def test_c_singular(self):
        with pytest.raises(CSingular):
            affine_spectrum(MatrixParabola(np.eye(2), np.eye(2), np.diag([1.0, 0.0])))

    def test_realness_against_nonsymmetric_route(self, rng):
        for _ in range(50):
            P = random_characteristic_parabola(rng)
            raw = affine_spectrum(P).raw
            general = np.linalg.eigvals(P.B @ np.linalg.inv(P.C))
            assert np.max(np.abs(general.imag)) <= 1e-7 * (1 + np.max(np.abs(general)))
            np.testing.assert_allclose(
                np.sort(general.real), raw, atol=1e-7 * (1 + np.max(np.abs(raw)))
            )

    def test_invariance_under_certificates(self, rng):
        for _ in range(100):
            P = random_characteristic_parabola(rng)
            cert = random_certificate(rng, P.dim)
            assert affine_spectrum(P).matches(affine_spectrum(apply_certificate(P, cert)))


def reference_affine_spectrum(analysis):
    """(values, degenerate, size) of the affine spectrum as the record
    forms them: np.ptp and max_norm of the whole of mu."""
    mu = analysis.c_gauge.mu
    spread = float(mu[-1] - mu[0])
    degenerate = spread <= analysis.tol * symmat.max_norm(mu)
    values = np.zeros_like(mu) if degenerate else (mu - mu[0]) / spread
    return values, degenerate, 1.0 if degenerate else symmat.max_norm(mu) / np.ptp(mu)


def spectrum_members(rng):
    """One seeded member of each kind the spectrum reading meets: k = 0,
    k = 2, a degenerate B = b C spectrum and a 2-fold cluster of mu."""
    t, member = proportional_b_members(rng, 3)
    return {
        "k0": char_polynomial(random_manifold(rng, m=5, zero_eigs=0)),
        "k2": char_polynomial(random_manifold(rng, m=5, r=2, k=2, zero_eigs=0)),
        "degenerate": member(t),
        "cluster": char_polynomial(random_manifold(rng, m=5, r=2, zero_eigs=2)),
    }


class TestSpectrumReading:
    """The one builder of the affine spectrum reads its lowest value,
    spread, size and degenerate flag as floats from the ends of the
    ascending mu, and the normal form's scale from the ends of the
    ascending h: the same numbers as the np.ptp and max_norm reference,
    bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_record(self, seed):
        rng = np.random.default_rng(seed)
        for kind, P in spectrum_members(rng).items():
            analysis = is_characteristic(P, 2 * P.dim + 2).analysis
            mu = analysis.c_gauge.mu
            spectrum = classify._affine_spectrum(analysis)
            values, degenerate, size = reference_affine_spectrum(analysis)
            assert spectrum.degenerate is degenerate is (kind == "degenerate")
            np.testing.assert_array_equal(spectrum.values, values)
            np.testing.assert_array_equal(spectrum.raw, mu)
            assert spectrum.size == size
            assert (spectrum.low, spectrum.spread) == (mu[0], float(mu[-1] - mu[0]))
            assert {type(x) for x in (spectrum.low, spectrum.spread, spectrum.size)} == {float}
            if kind == "cluster":
                gaps = np.diff(spectrum.values)
                assert (gaps <= classify.SPECTRUM_TOL * spectrum.size).sum() == 1
            if not analysis.kernel.any():
                record = affine_spectrum(P)
                for name in ("values", "raw"):
                    np.testing.assert_array_equal(getattr(record, name), getattr(spectrum, name))
                assert (record.degenerate, record.low, record.spread, record.size) == (
                    spectrum.degenerate, spectrum.low, spectrum.spread, spectrum.size)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_form_scale_and_band(self, seed):
        # scale^2 is the squared spread, or max|h| on a degenerate
        # spectrum; the band reads max|H| of the scaled form.
        rng = np.random.default_rng(seed)
        for kind, P in spectrum_members(rng).items():
            analysis = is_characteristic(P, 2 * P.dim + 2).analysis
            g, spectrum = analysis.c_gauge, classify._affine_spectrum(analysis)
            H, band, G, scale = classify._normal_form(analysis, spectrum)
            scale2 = symmat.max_norm(g.h) if spectrum.degenerate else float(g.mu[-1] - g.mu[0]) ** 2
            assert scale == np.sqrt(scale2)
            assert band == classify.SPECTRUM_TOL * (g.size / scale2 + 2.0 * spectrum.size * symmat.max_norm(H))
            if kind in ("k0", "k2"):
                assert G is g.F
                np.testing.assert_array_equal(H, g.H / scale2)


def normal_form_member(mu, H):
    """The k = 0 member (s + diag mu)^2 + H, with C = I."""
    return MatrixParabola(np.diag(mu * mu) + H, np.diag(mu), np.eye(mu.size))


class TestSpectrumBandEdge:
    """On k = 0 pairs of equal signature, almost_equivalent answers
    "affine spectra differ" exactly when the public records do not
    match: canonical spectra half and twice the band apart, and a
    degenerate spectrum against one spread by half and twice the
    degenerate band.  The second member is mapped by a real X and
    s -> alpha s, which keep the spectrum's size and so its band."""

    @staticmethod
    def _pair(rng, mu1, mu2):
        m = mu1.size
        root = rng.standard_normal((m, m))
        H = root @ root.T + np.eye(m)
        cert = EquivalenceCertificate(random_real_invertible(rng, m), float(10.0 ** rng.uniform(-1, 1)), 0.0)
        return normal_form_member(mu1, H), apply_certificate(normal_form_member(mu2, H), cert)

    @staticmethod
    def _check(P1, P2, expect_match):
        matches = affine_spectrum(P1).matches(affine_spectrum(P2))
        assert matches is expect_match
        verdict = almost_equivalent(P1, P2)
        assert (verdict.reason == "affine spectra differ") is (not matches)
        assert verdict.verdict == "no" or matches

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_canonical_values_at_the_band(self, factor):
        rng = np.random.default_rng(25)
        for _ in range(20):
            m = int(rng.integers(3, 7))
            mu = np.sort(rng.uniform(-2.0, 2.0, m))
            spread = mu[-1] - mu[0]
            band = classify.SPECTRUM_TOL * np.abs(mu).max() / spread
            moved = mu.copy()
            moved[1:-1] += factor * band * spread * rng.choice([-1.0, 1.0], m - 2)
            self._check(*self._pair(rng, mu, moved), expect_match=factor < 1.0)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_degenerate_against_spread(self, factor):
        rng = np.random.default_rng(26)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            mu = np.full(m, rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
            moved = mu.copy()
            moved[-1] += factor * symmat.DEFAULT_TOL * mu[0]  # away from 0: max|mu| is moved[-1]
            P1, P2 = self._pair(rng, mu, moved)
            assert affine_spectrum(P1).degenerate
            assert affine_spectrum(P2).degenerate is (factor < 1.0)
            self._check(P1, P2, expect_match=factor < 1.0)


class TestSimpleSpectrumForm:
    def test_dim5(self):
        form = simple_spectrum_form(example_5d(1, 1))
        np.testing.assert_allclose(form.eigenvalues, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(form.gram, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_dim4(self):
        form = simple_spectrum_form(example_4d())
        np.testing.assert_allclose(form.eigenvalues, [0.0], atol=1e-12)
        np.testing.assert_allclose(form.gram, [[1.0]], atol=1e-12)

    def test_repeated_eigenvalue_rejected(self):
        M = build(6, np.diag([1.0, 1.0]), np.eye(2), np.eye(2))
        with pytest.raises(NotSimpleSpectrum):
            simple_spectrum_form(M)

    def test_nonzero_diagonal_for_nonzero_eigenvalues(self, rng):
        for _ in range(30):
            P = random_characteristic_parabola(rng, simple=True)
            M = realize(P, 2 * P.dim + 2)
            try:
                form = simple_spectrum_form(M)
            except NotSimpleSpectrum:
                continue
            for i, value in enumerate(form.eigenvalues):
                if abs(value) > 1e-6:
                    assert form.gram[i, i] > 0.0

    def test_rounding_asymmetry_reads_as_its_symmetrized_copy(self, rng):
        for m in (2, 3, 5):
            M = random_manifold(rng, m=m, zero_eigs=0)
            a_prime = rounding_asymmetric(M.a_prime)
            forms = [
                simple_spectrum_form(unvalidated_manifold(a, M.a_dblprime, M.lattice))
                for a in (a_prime, symmetrize(a_prime))
            ]
            for field in ("eigenvalues", "gram", "frame"):
                np.testing.assert_array_equal(getattr(forms[0], field), getattr(forms[1], field))



def breadth_first_signs(S, band):
    """Reference for classify._signs: the breadth-first forest over the
    entries |S_ij| > band, with the mask and signs of each row formed
    when the row is reached."""
    signs = np.zeros(S.shape[0])
    for root in range(signs.size):
        if signs[root] == 0.0:
            signs[root] = 1.0
            queue = [root]
            for i in queue:
                for j in np.flatnonzero((np.abs(S[i]) > band) & (signs == 0.0)):
                    signs[j] = signs[i] * np.sign(S[i, j])
                    queue.append(j)
    return signs


def sign_test_matrix(rng, m, band):
    """A symmetric matrix with entries at exactly +-band, zero rows and
    columns, and (half the time) two blocks with no entry between them."""
    S = rng.standard_normal((m, m))
    at_band = rng.random((m, m)) < 0.2
    S[at_band] = band * np.sign(S[at_band])
    S = np.triu(S) + np.triu(S, 1).T
    if m > 2 and rng.random() < 0.5:
        cut = int(rng.integers(1, m))
        S[:cut, cut:] = S[cut:, :cut] = 0.0
    for i in np.flatnonzero(rng.random(m) < 0.15):
        S[i, :] = S[:, i] = 0.0
    return S


class TestSigns:
    """classify._signs forms the band mask and the signs of S once and
    grows the forest over Python lists; the signs are those of the
    breadth-first reference, which reads one row of S at a time."""

    def test_matches_breadth_first_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            m = int(rng.integers(1, 9))
            band = float(rng.uniform(0.1, 1.0))
            S = sign_test_matrix(rng, m, band)
            signs = classify._signs(S, band)
            reference = breadth_first_signs(S, band)
            assert signs.dtype == reference.dtype
            np.testing.assert_array_equal(signs, reference)
        # The first row reaching every index gives its signs directly;
        # one entry inside the band, or two diagonal blocks, do not.
        for _ in range(400):
            m = int(rng.integers(1, 9))
            band = float(rng.uniform(0.1, 1.0))
            S = rng.standard_normal((m, m))
            S = np.triu(S) + np.triu(S, 1).T
            row = band * rng.uniform(1.01, 3.0, m) * rng.choice([-1.0, 1.0], m)
            S[0, :], S[:, 0] = row, row
            variants = [S]
            if m > 1:
                inside = S.copy()
                j = int(rng.integers(1, m))
                inside[0, j] = inside[j, 0] = rng.choice([-1.0, 0.0, 1.0]) * band * rng.uniform(0.0, 1.0)
                block = S.copy()
                cut = int(rng.integers(1, m))
                block[:cut, cut:] = block[cut:, :cut] = 0.0
                variants += [inside, block]
            for T in variants:
                signs = classify._signs(T, band)
                np.testing.assert_array_equal(signs, breadth_first_signs(T, band))
                assert signs.dtype == np.float64

    def test_edge_cases(self):
        band = 0.5
        # Entries at exactly +-band do not join trees.
        S = np.array([[1.0, -0.5, 0.0], [-0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        np.testing.assert_array_equal(classify._signs(S, band), [1.0, 1.0, 1.0])
        # A zero row is a tree of its own; two blocks are two trees.
        S = np.array([[1.0, -2.0, 0.0, 0.0], [-2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
        np.testing.assert_array_equal(classify._signs(S, band), [1.0, -1.0, 1.0, 1.0])
        assert classify._signs(np.zeros((0, 0)), band).shape == (0,)

    def test_form_is_the_same_for_every_sign_conjugate(self):
        # d S d agrees exactly on the entries that clear the band; the
        # others lie within it and may change sign between trees.
        rng = np.random.default_rng(21)
        for _ in range(60):
            m = int(rng.integers(1, 6))
            band = float(rng.uniform(0.1, 1.0))
            S = sign_test_matrix(rng, m, band)
            d = classify._signs(S, band)
            form, clears = S * np.outer(d, d), np.abs(S) > band
            for e in itertools.product((-1.0, 1.0), repeat=m):
                conjugate = S * np.outer(e, e)
                d2 = classify._signs(conjugate, band)
                form2 = conjugate * np.outer(d2, d2)
                np.testing.assert_array_equal(form2[clears], form[clears])
                np.testing.assert_array_equal(np.abs(form2), np.abs(form))


class TestNormalForm:
    """classify._normal_form rotates the C-gauge's frame only on proper
    clusters of the canonical spectrum."""

    @staticmethod
    def _form(P):
        analysis = is_characteristic(P, 2 * P.dim + 2).analysis
        spectrum = classify._affine_spectrum(analysis)
        return analysis.c_gauge, spectrum, classify._normal_form(analysis, spectrum)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_simple_spectrum_keeps_the_gauge_frame(self, rng, m):
        g, spectrum, (H, _, G, scale) = self._form(char_polynomial(random_manifold(rng, m=m, zero_eigs=0)))
        assert (np.diff(spectrum.values) > classify.SPECTRUM_TOL * spectrum.size).all()
        assert G is g.F
        np.testing.assert_array_equal(H, g.H / scale**2)

    @pytest.mark.parametrize("m", [3, 5])
    def test_proper_cluster_rotates_and_its_witness_verifies(self, rng, m):
        # a' with a double zero eigenvalue puts a 2-fold cluster into mu.
        P = char_polynomial(random_manifold(rng, m=m, r=2, zero_eigs=2))
        g, spectrum, (H, _, G, scale) = self._form(P)
        clusters = symmat.clusters(spectrum.values, classify.SPECTRUM_TOL * spectrum.size)
        assert max(c.stop - c.start for c in clusters) == 2
        assert G is not g.F and not np.array_equal(G, g.F)
        np.testing.assert_allclose(symmat.congruence(P.C, G), np.eye(m), atol=1e-9)
        Q = apply_certificate(P, random_certificate(rng, m))
        verdict = almost_equivalent(P, Q)
        assert verdict.is_yes
        assert verify_equivalence(P, Q, verdict.certificate, 1e-6)


class TestAlmostEquivalent:
    def test_planted_certificates(self, rng):
        for _ in range(40):
            P = random_characteristic_parabola(rng, simple=True)
            cert = random_certificate(rng, P.dim)
            P2 = apply_certificate(P, cert.inverse())
            verdict = almost_equivalent(P, P2)
            assert verdict.is_yes
            assert verify_equivalence(P, P2, verdict.certificate, 1e-6)

    def test_dim5_family_members_differ(self):
        P1 = char_polynomial(example_5d(1, 1))
        P2 = char_polynomial(example_5d(2, 1))
        verdict = almost_equivalent(P1, P2, n=5)
        assert verdict.verdict == "no"

    def test_unit_vs_scaled(self):
        P2 = MatrixParabola([[2.0]], [[0.0]], [[2.0]])
        verdict = almost_equivalent(P_UNIT, P2)
        assert verdict.is_yes
        np.testing.assert_allclose(np.abs(verdict.certificate.X), [[1 / np.sqrt(2)]], atol=1e-9)

    def test_unit_vs_stretched(self):
        P2 = MatrixParabola([[2.0]], [[0.0]], [[1.0]])
        verdict = almost_equivalent(P_UNIT, P2)
        assert verdict.is_yes
        assert verify_equivalence(P_UNIT, P2, verdict.certificate, 1e-8)

    def test_elliptic_pair(self, rng):
        M1 = random_elliptic(rng, m=2)
        M2 = random_elliptic(rng, m=2)
        verdict = almost_equivalent(char_polynomial(M1), char_polynomial(M2))
        assert verdict.is_yes

    def test_signature_mismatch(self):
        P1 = char_polynomial(example_5d(1, 1))  # r = 1
        M = build(6, np.diag([0.4, 1.3]), np.eye(2), np.eye(2))  # r = 2
        P2 = char_polynomial(M)
        verdict = almost_equivalent(P1, P2, n=6)
        assert verdict.verdict == "no"
        assert "signature" in verdict.reason

    def test_non_characteristic_raises(self):
        bad = MatrixParabola(np.eye(2), np.eye(2), [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NotCharacteristic):
            almost_equivalent(bad, bad)

    def test_scaled_order_eight_pair(self):
        # The witness scales like 1e-3^{1/2}, so |det X| is near 1e-12.
        P = random_characteristic_parabola(np.random.default_rng(3), m=8, simple=True)
        small = MatrixParabola(1e-3 * P.A, 1e-3 * P.B, 1e-3 * P.C)
        verdict = almost_equivalent(small, P)
        assert verdict.is_yes
        assert verify_equivalence(small, P, verdict.certificate, 1e-6)

    @pytest.mark.parametrize("m, k", [(2, 0), (3, 0), (5, 0), (3, 1)])
    @pytest.mark.parametrize("alpha", [1e-5, 1e-6])
    def test_small_c_is_not_singular(self, m, k, alpha):
        # s -> alpha s shrinks C by alpha^2; membership keeps its rank, and
        # the affine spectrum reads C's kernel on the same band.
        rng = np.random.default_rng(7)
        P = char_polynomial(random_manifold(rng, m=m, r=1, k=k, zero_eigs=0))
        P2 = reparametrize(P, alpha, 0.0)
        verdict = almost_equivalent(P, P2)
        assert verdict.is_yes
        assert verify_equivalence(P, P2, verdict.certificate, 1e-7)

    @pytest.mark.parametrize("m, k", [(1, 0), (2, 0), (3, 0), (5, 0), (3, 1)])
    @pytest.mark.parametrize("copy", ["scaled", "expanded"])
    def test_scaled_and_expanded_copies(self, m, k, copy):
        # 1e-12 Q and Q(1e9 s) are equivalent to Q.  Bands with an
        # absolute term rejected the first as a non-member and found the
        # affine spectrum of the second degenerate.
        rng = np.random.default_rng(30)
        P = char_polynomial(random_manifold(rng, m=m, r=1, k=k, zero_eigs=0))
        if copy == "scaled":
            P2 = MatrixParabola(1e-12 * P.A, 1e-12 * P.B, 1e-12 * P.C)
        else:
            P2 = reparametrize(P, 1e9, 0.0)
        verdict = almost_equivalent(P, P2)
        assert verdict.is_yes
        assert verify_equivalence(P, P2, verdict.certificate, 1e-7)

    def test_contracted_member_is_equivalent(self):
        # A member contracted by s -> 1e-6 s is no elliptic point.
        P = char_polynomial(random_manifold(np.random.default_rng(7), m=2, r=1, k=0, zero_eigs=0))
        P2 = reparametrize(P, 1e-6, 0.0)
        verdict = almost_equivalent(P, P2, 1e-6)
        assert verdict.is_yes
        assert verify_equivalence(P, P2, verdict.certificate, 1e-6)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_witness_matches_realized_route(self, rng, m):
        # The witness from the C-gauge normal forms equals the one
        # assembled from the realized manifold data of P1 and of the
        # aligned P2, up to the automorphism -I of the parabola.
        for _ in range(5):
            P1 = char_polynomial(random_manifold(rng, m=m, zero_eigs=0))
            P2 = apply_certificate(P1, random_certificate(rng, m).inverse())
            cert = almost_equivalent(P1, P2).certificate
            n = 2 * m + 2
            M1 = realize(P1, n)
            M2 = realize(reparametrize(P2, cert.alpha, cert.beta), n)
            f1, f2 = simple_spectrum_form(M1), simple_spectrum_form(M2)
            X = np.linalg.solve(M2.lattice, f2.frame @ f1.frame.T @ M1.lattice)
            gap = min(symmat.max_norm(cert.X - X), symmat.max_norm(cert.X + X))
            assert gap <= 1e-9 * symmat.max_norm(X)

    def test_proportional_b_pairs(self):
        # B = b C makes the affine spectrum degenerate: the normal form
        # divides H by its largest eigenvalue instead of the spread, and
        # order one is this case.  Such pairs used to be "unknown".
        rng = np.random.default_rng(77)
        for m in [1, 2, 3, 5, 8] * 3:
            t, member = proportional_b_members(rng, m)
            P = member(t)
            assert affine_spectrum(P).degenerate
            alpha, beta = 10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-20.0, 20.0)
            cert = EquivalenceCertificate(random_real_invertible(rng, m), alpha, beta)
            Q = apply_certificate(P, cert)
            verdict = almost_equivalent(P, Q)
            assert verdict.is_yes
            assert verify_equivalence(P, Q, verdict.certificate, 1e-6)
            if m > 1:
                t[0] *= 0.7
                verdict = almost_equivalent(P, apply_certificate(member(t), cert))
                assert verdict.verdict == "no"
                assert verdict.reason == "normal forms differ"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([3, 5, 8]),
        unimodular=st.booleans(),
        log_alpha=st.floats(-1.0, 1.0),
        beta=st.floats(-5.0, 5.0),
    )
    def test_repeated_spectrum_is_order_independent(self, seed, m, unimodular, log_alpha, beta):
        # a' with a double zero eigenvalue: both arguments see the same
        # cluster in the C-gauge, so the verdict does not depend on their
        # order, and each witness inverts to one for the other order.
        rng = np.random.default_rng(seed)
        P = char_polynomial(random_manifold(rng, m=m, r=2, zero_eigs=2))
        X = random_unimodular(rng, m) if unimodular else random_real_invertible(rng, m)
        Q = apply_certificate(P, EquivalenceCertificate(X, 10.0**log_alpha, beta))
        forward, backward = almost_equivalent(P, Q), almost_equivalent(Q, P)
        assert forward.verdict == backward.verdict
        for first, second, verdict in ((P, Q, forward), (Q, P, backward)):
            if verdict.is_yes:
                assert verify_equivalence(second, first, verdict.certificate.inverse(), 1e-6)

    def test_repeated_eigenvalue_of_h_is_unknown(self):
        # B = 0 and A = C = I: mu = (0, 0) is one cluster on which H = I
        # has no unique eigenbasis, so refinement stalls.
        P = char_polynomial(build(6, np.zeros((2, 2)), np.eye(2), np.eye(2)))
        verdict = almost_equivalent(P, P)
        assert verdict.verdict == "unknown"
        assert verdict.reason == "H repeats an eigenvalue on a 2-fold cluster"

    def test_nearby_spectra_differ(self):
        # Order-3 members whose a' differ by 1e-6 in one eigenvalue: the
        # canonical affine spectra differ by more than their band, which
        # a relative tolerance of 1e-5 used to swallow ("unknown").
        for seed in range(10):
            rng = np.random.default_rng(seed)
            M = random_manifold(rng, m=3, r=2, zero_eigs=0)
            values, W = np.linalg.eigh(M.a_prime)
            values[int(rng.integers(3))] += 1e-6
            M2 = build(7, W @ np.diag(values) @ W.T, M.a_dblprime, M.lattice)
            assert almost_equivalent(char_polynomial(M), char_polynomial(M2)).verdict == "no"

    @pytest.mark.parametrize("seed", [4, 75])
    def test_wide_map_witness_checked_against_its_terms(self, seed):
        # After a wide map (beta = 275 at m = 2, -169 at m = 8) the image
        # X^T Q2(alpha s + beta) X is summed from terms far larger than P1,
        # and a band on max|P1| alone rejected the witness ("unknown").
        P, Q, cert = wide_map_pair(seed)
        verdict = almost_equivalent(P, Q)
        assert verdict.is_yes, verdict.reason
        inverse = cert.inverse()
        assert verdict.certificate.alpha == pytest.approx(inverse.alpha, rel=1e-6)
        assert verdict.certificate.beta == pytest.approx(inverse.beta, rel=1e-6)

    @pytest.mark.parametrize("seed", [3, 53, 82, 138, 233])
    def test_wide_map_witness_passes_verify_equivalence(self, seed):
        # verify_equivalence at the default tol accepts the witness
        # almost_equivalent verified (m = 8, 3, 5, 5, 3): both read the
        # band on the terms of the image, where a band on max|P1| alone
        # rejected it.
        P, Q, _ = wide_map_pair(seed)
        verdict = almost_equivalent(P, Q)
        assert verdict.is_yes, verdict.reason
        assert verify_equivalence(P, Q, verdict.certificate)


class TestOrderZero:
    """The 0 x 0 parabola has no moving directions: its C-gauge is the
    empty gauge of the elliptic point, so every reader of the gauge
    answers for it as for the elliptic point's moving part."""

    P0 = MatrixParabola(*np.zeros((3, 0, 0)))

    def test_empty_gauge(self):
        g = charpoly.ParabolaAnalysis(self.P0).c_gauge
        assert g.F.shape == (0, 0) and g.mu.shape == (0,) and g.H.shape == (0, 0) and g.h.shape == (0,)
        assert g.size == 0.0

    def test_almost_equivalent_to_itself(self):
        verdict = almost_equivalent(self.P0, self.P0)
        assert verdict.is_yes, verdict.reason
        cert = verdict.certificate
        assert cert.X.shape == (0, 0) and (cert.alpha, cert.beta) == (1.0, 0.0)
        assert verify_equivalence(self.P0, self.P0, cert)

    def test_membership_positivity_and_schur(self):
        ok, sig = is_characteristic(self.P0, 4)
        assert ok and sig.as_tuple() == (4, 0, 0, 0)
        assert is_characteristic(self.P0, 1) == (False, None)
        assert charpoly.check_positive_all_s(self.P0) is True
        schur = charpoly.schur_condition(self.P0)
        assert schur.matrix.shape == (0, 0) and (schur.psd, schur.rank) == (True, 0)

    def test_typed_errors(self):
        with pytest.raises(CSingular):
            affine_spectrum(self.P0)
        with pytest.raises(NotDegenerate):
            charpoly.reduce_degenerate(self.P0)
        with pytest.raises(SignatureInconsistent):
            realize(self.P0, 4)
        with pytest.raises(UnsupportedDimension):
            search_certificate(self.P0, self.P0)


class TestTypedErrors:
    """The order checks of the equivalence entry points, and the answers
    of almost_equivalent that no pair of members reaches by itself."""

    P2 = char_polynomial(example_5d(1.0, 2.0))

    def test_orders_must_agree(self):
        with pytest.raises(DimensionMismatch, match="certificate is 2x2, parabola has order 1"):
            apply_certificate(P_UNIT, identity_certificate(2))
        with pytest.raises(DimensionMismatch, match="different orders 1 and 2"):
            verify_equivalence(P_UNIT, self.P2, identity_certificate(1))
        with pytest.raises(DimensionMismatch, match="different orders 1 and 2"):
            almost_equivalent(P_UNIT, self.P2)
        with pytest.raises(DimensionMismatch, match="different orders 2 and 1"):
            search_certificate(self.P2, P_UNIT)

    def test_second_parabola_not_characteristic(self):
        bad = MatrixParabola(np.eye(2), np.eye(2), [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NotCharacteristic, match="second parabola"):
            almost_equivalent(self.P2, bad)

    def test_failed_witness_is_unknown(self, monkeypatch):
        # The invariants match, but a perturbed witness does not fit.
        witness = classify._moving_witness

        def perturbed(a1, a2):
            X, alpha, beta = witness(a1, a2)
            return X * 1.01, alpha, beta

        assert almost_equivalent(self.P2, self.P2).is_yes
        monkeypatch.setattr(classify, "_moving_witness", perturbed)
        verdict = almost_equivalent(self.P2, self.P2)
        assert verdict.verdict == "unknown" and verdict.certificate is None
        assert verdict.reason == "invariants match but the assembled witness failed verification"


def _rebind(monkeypatch, name, replacement):
    """Replace ``name`` in every module of the package that binds it (the
    package itself binds none: it looks names up in their modules)."""
    for module in (causalcurves, charpoly, classify, cli):
        if name in vars(module):
            monkeypatch.setattr(module, name, replacement)


def _every_kind(rng, m):
    """(Q, n, ok) for an elliptic member and each non-member kind of
    order m: indefinite A, too few dimensions, a killed eigenvector, and
    B not vanishing on ker C."""
    E = random_elliptic(rng, m=m)
    P = char_polynomial(random_manifold(rng, m=m, r=1, zero_eigs=0))
    w, V = np.linalg.eigh(P.A)
    indefinite = MatrixParabola(V @ np.diag(np.r_[-w[0], w[1:]]) @ V.T, P.B, P.C)
    killed = char_polynomial(unvalidated_manifold(*random_violating_arrays(rng, m=m)))
    D = char_polynomial(random_manifold(rng, m=m, r=1, k=1))
    u, x = np.linalg.eigh(D.C)[1][:, 0], rng.standard_normal(m)  # C is PSD: its kernel comes first
    leaking = MatrixParabola(D.A, D.B + 1e-2 * (np.outer(u, x) + np.outer(x, u)), D.C)
    n = 2 * m + 2
    return [(char_polynomial(E), E.n, True), (indefinite, n, False), (P, m + 2, False), (killed, n, False),
            (leaking, n, False)]


def _validate_parabola(monkeypatch, P, n):
    """Run ``validate-parabola`` in-process on P; returns the exit code."""
    payload = {"A": P.A.tolist(), "B": P.B.tolist(), "C": P.C.tolist()}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    return cli.main(["validate-parabola", "--n", str(n)])


class TestMembershipDecidedOnce:
    """realize, almost_equivalent and validate-parabola decide each
    input's membership once and read every criterion from its analysis."""

    @pytest.fixture
    def decided(self, monkeypatch):
        calls = []

        def counting(P, n, tol=symmat.DEFAULT_TOL):
            calls.append(P.dim)
            return charpoly.is_characteristic(P, n, tol)

        monkeypatch.setattr(classify, "is_characteristic", counting)
        return calls

    def test_realize(self, decided, rng):
        realize(random_characteristic_parabola(rng), 8)
        assert len(decided) == 1

    @pytest.mark.parametrize("m, r, k", [(3, 2, 0), (3, 1, 1)])
    def test_almost_equivalent_yes_pair(self, decided, rng, m, r, k):
        P = char_polynomial(random_manifold(rng, m=m, r=r, k=k, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, m).inverse())
        verdict = almost_equivalent(P, P2)
        assert len(decided) == 2
        assert verdict.is_yes
        assert verify_equivalence(P, P2, verdict.certificate, 1e-6)

    def test_almost_equivalent_runs_no_reduction(self, monkeypatch, rng):
        # The C-gauge splits off ker C by itself and the witness maps the
        # constant frames onto each other, so a yes pair with a constant
        # direction builds no reduction (one per input while the decision
        # read the moving part of the reduction).
        reductions, built = [], charpoly.ReductionResult

        def counting(*args):
            reductions.append(args)
            return built(*args)

        monkeypatch.setattr(charpoly, "ReductionResult", counting)
        P = char_polynomial(random_manifold(rng, m=3, r=1, k=1, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, 3).inverse())
        assert almost_equivalent(P, P2).is_yes
        assert reductions == []
        charpoly.reduce_degenerate(P)  # the spy sees the one builder of a reduction
        assert len(reductions) == 1

    @pytest.mark.parametrize("m, r, k", [(3, 1, 1), (5, 2, 2), (3, 0, 3)])
    def test_almost_equivalent_verifies_once(self, monkeypatch, rng, m, r, k):
        # The moving parts' witness is assembled through the constant
        # blocks and verified once, as a whole.
        M = random_elliptic(rng, m=m) if k == m else random_manifold(rng, m=m, r=r, k=k, zero_eigs=0)
        P = char_polynomial(M)
        P2 = apply_certificate(P, random_certificate(rng, m).inverse())
        calls = []
        fits = classify._fits

        def counting(coeffs1, T, alpha, beta, tol):
            calls.append(T.shape)
            return fits(coeffs1, T, alpha, beta, tol)

        monkeypatch.setattr(classify, "_fits", counting)
        assert almost_equivalent(P, P2).is_yes
        assert calls == [(3, m * m)]

    def test_validate_parabola(self, monkeypatch, rng, capsys):
        # The CLI calls charpoly.is_characteristic at call time, so the
        # double replaces it there and calls the original it captured.
        calls = []
        original = charpoly.is_characteristic

        def counting(P, n, tol=symmat.DEFAULT_TOL):
            calls.append(P.dim)
            return original(P, n, tol)

        def recomputed(*args, **kwargs):
            raise AssertionError("criterion recomputed outside the analysis")

        monkeypatch.setattr(charpoly, "is_characteristic", counting)
        _rebind(monkeypatch, "check_positive_all_s", recomputed)
        _rebind(monkeypatch, "schur_condition", recomputed)
        assert _validate_parabola(monkeypatch, random_characteristic_parabola(rng), 8) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["characteristic"] and result["poabc"] and result["schur_psd"]
        assert calls == [result["signature"]["m"]]

    @pytest.mark.parametrize("m, r, k", [(3, 2, 0), (3, 1, 1)])
    def test_almost_equivalent_builds_no_manifold(self, monkeypatch, rng, m, r, k):
        def built(*args, **kwargs):
            raise AssertionError("manifold data built on the equivalence path")

        monkeypatch.setattr(classify, "build", built)
        P = char_polynomial(random_manifold(rng, m=m, r=r, k=k, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, m).inverse())
        assert almost_equivalent(P, P2).is_yes


    @pytest.mark.parametrize("m, r, k", [(3, 2, 0), (3, 1, 1)])
    def test_decision_path_is_c_gauge(self, monkeypatch, rng, m, r, k):
        # Membership reads no A-gauge (no A^{-1/2}, no linearization) and
        # builds no SVD reduction on members, elliptic ones included, or
        # on any kind of non-member, and equivalence analyses no moving
        # part and no aligned copy: the only reparametrization is the
        # image of the witness in its check, _fits.
        def refused(*args, **kwargs):
            raise AssertionError("A-gauge on the decision path")

        singular_values = symmat.singular_values

        def svd_of_a_certificate(*args, **kwargs):
            # The one SVD left is EquivalenceCertificate's singularity
            # check of the witness it is handed; no reduction is built.
            assert sys._getframe(1).f_code.co_name == "__post_init__", "SVD on the decision path"
            return singular_values(*args, **kwargs)

        def numpy_svd(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd on the decision path")

        reparametrized = classify._reparametrized

        def reparametrize_in_verification(*args):
            assert sys._getframe(1).f_code.co_name == "_fits"
            return reparametrized(*args)

        analyses = []
        original = charpoly.ParabolaAnalysis.__init__

        def counting(self, P, tol=symmat.DEFAULT_TOL):
            analyses.append(P.dim)
            original(self, P, tol)

        P = char_polynomial(random_manifold(rng, m=m, r=r, k=k, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, m).inverse())
        kinds = _every_kind(rng, m)
        monkeypatch.setattr(np.linalg, "eigvals", refused)
        monkeypatch.setattr(symmat, "pd_inv_sqrt", refused)
        monkeypatch.setattr(classify, "_reparametrized", reparametrize_in_verification)
        monkeypatch.setattr(charpoly.ParabolaAnalysis, "__init__", counting)
        monkeypatch.setattr(symmat, "singular_values", svd_of_a_certificate)
        monkeypatch.setattr(np.linalg, "svd", numpy_svd)
        assert [is_characteristic(Q, n)[0] for Q, n, _ in kinds] == [ok for _, _, ok in kinds]
        assert is_characteristic(P, 2 * m + 2)[0]
        analyses.clear()
        assert almost_equivalent(P, P2).is_yes
        # The two inputs only, for every k: no moving part is analysed.
        assert analyses == [m, m]

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_positive_is_decided_on_every_kind(self, monkeypatch, capsys, rng, m):
        # positive is a bool on members and on every kind of non-member,
        # the leaking one included (it deflates ker C in the C-gauge),
        # reads no A-gauge, and validate-parabola reports it.
        def refused(*args, **kwargs):
            raise AssertionError("A^{-1/2} read by positive")

        for Q, n, _ in _every_kind(rng, m):
            with monkeypatch.context() as refusing:
                refusing.setattr(symmat, "pd_inv_sqrt", refused)
                assert type(charpoly.ParabolaAnalysis(Q).positive) is bool
            assert _validate_parabola(monkeypatch, Q, n) == 0
            poabc = json.loads(capsys.readouterr().out)["result"]["poabc"]
            assert poabc == charpoly.check_positive_all_s(Q)


class TestSvdCounts:
    """The one SVD of the equivalence decision is the singularity check
    of the certificate it returns, by symmat.singular_values; numpy's
    svd wrapper is not called."""

    @pytest.fixture
    def svd_callers(self, monkeypatch):
        # The caller of each singular_values call, and "numpy.linalg.svd"
        # for each call of numpy's wrapper, which the exact lists refuse
        # (the test inputs are drawn with it before the list is cleared).
        callers = []
        singular_values, svd = symmat.singular_values, np.linalg.svd

        def counting(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return singular_values(*args, **kwargs)

        def numpy_svd(*args, **kwargs):
            callers.append("numpy.linalg.svd")
            return svd(*args, **kwargs)

        monkeypatch.setattr(symmat, "singular_values", counting)
        monkeypatch.setattr(np.linalg, "svd", numpy_svd)
        return callers

    @pytest.mark.parametrize("m, r, k", [(1, 1, 0), (3, 2, 0), (5, 2, 0), (3, 1, 1), (5, 2, 2)])
    def test_yes_pair(self, svd_callers, rng, m, r, k):
        P = char_polynomial(random_manifold(rng, m=m, r=r, k=k, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, m).inverse())
        svd_callers.clear()
        assert almost_equivalent(P, P2).is_yes
        assert svd_callers == ["__post_init__"]

    def test_no_pairs(self, svd_callers, rng):
        signatures = (char_polynomial(random_manifold(rng, m=3, r=1, zero_eigs=0)),
                      char_polynomial(random_manifold(rng, m=3, r=2, zero_eigs=0)))
        spectra = (char_polynomial(random_manifold(rng, m=3, r=3, zero_eigs=0)),
                   char_polynomial(random_manifold(rng, m=3, r=3, zero_eigs=0)))
        svd_callers.clear()
        for P1, P2 in (signatures, spectra):
            verdict = almost_equivalent(P1, P2)
            assert verdict.verdict == "no"
        assert "spectra" in verdict.reason
        assert svd_callers == []


class TestEigensolverCounts:
    """Eigendecompositions per top-level call, for every k: every
    symmetric one is a symmat.sym_eig call, and the one general one,
    of positivity's linearization [[-M, I], [-H, -M]] where H is
    indefinite, is numpy's eigvals."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        solvers = [(symmat, "sym_eig"), (np.linalg, "eigvals"), (np.linalg, "eig")]
        for module, name in solvers:

            def counting(*args, _solver=getattr(module, name), **kwargs):
                calls.append(_solver.__name__)
                return _solver(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    @staticmethod
    def _count(calls, fn):
        calls.clear()
        fn()
        return len(calls)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_membership_realize_and_validate(self, eig_calls, monkeypatch, capsys, rng, m):
        M = random_manifold(rng, m=m, zero_eigs=0)
        P = char_polynomial(M)
        # C, W^T B W and H; realize adds A^{-1/2}, G and build's freeness
        # test, and validate-parabola reads the Schur inertia of H.
        assert self._count(eig_calls, lambda: charpoly.is_characteristic(P, M.n)) == 3
        assert self._count(eig_calls, lambda: realize(P, M.n)) == 6
        assert self._count(eig_calls, lambda: _validate_parabola(monkeypatch, P, M.n)) == 3
        assert json.loads(capsys.readouterr().out)["result"]["characteristic"]

    def test_validate_parabola_constant_direction(self, eig_calls, monkeypatch, capsys, rng):
        # The four of membership, whose positivity and Schur inertia the
        # verdict's analysis keeps (five while the decision read the
        # moving part of the reduction).
        M = random_manifold(rng, m=3, r=1, k=1, zero_eigs=0)
        P = char_polynomial(M)
        assert self._count(eig_calls, lambda: _validate_parabola(monkeypatch, P, M.n)) == 4
        assert json.loads(capsys.readouterr().out)["result"]["poabc"]

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_validate_parabola_elliptic(self, eig_calls, monkeypatch, capsys, rng, m):
        # C and the constant block: 2; the empty C-gauge needs no
        # decomposition, and its inertia (True, 0) is the Schur verdict.
        M = random_elliptic(rng, m=m)
        P = char_polynomial(M)
        assert self._count(eig_calls, lambda: _validate_parabola(monkeypatch, P, M.n)) == 2
        assert json.loads(capsys.readouterr().out)["result"]["poabc"]

    def test_membership_degenerate(self, eig_calls, rng):
        # C, the constant block, W^T B W and H: the C-gauge splits off
        # ker C with the eigenpairs of C and of the constant block (five
        # while the reduced parabola's C was decomposed again).
        M = random_manifold(rng, m=3, r=1, k=1, zero_eigs=0)
        P = char_polynomial(M)
        assert self._count(eig_calls, lambda: charpoly.is_characteristic(P, M.n)) == 4

    def test_membership_indefinite_constant_block(self, eig_calls, rng):
        # C, then the constant block, which rejects: the C-gauge's
        # W^T B W and H (two more) are not formed.
        M = random_manifold(rng, m=3, r=1, k=1, zero_eigs=0)
        red = charpoly.reduce_degenerate(char_polynomial(M))
        T = np.zeros((3, 3, 3))
        T[0, :1, :1] = -red.constant_block
        T[:, 1:, 1:] = red.reduced.coeffs
        P = MatrixParabola(*symmat.congruence(T, np.linalg.inv(red.X)))
        verdict = charpoly.is_characteristic(P, M.n)
        assert not verdict[0]
        U = verdict.analysis.c_eig.vectors[:, verdict.analysis.kernel]
        assert (U.T @ P.A @ U)[0, 0] < 0.0
        assert self._count(eig_calls, lambda: charpoly.is_characteristic(P, M.n)) == 2

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_membership_elliptic(self, eig_calls, rng, m):
        # C, then the definiteness of the constant block; the empty
        # C-gauge needs no decomposition.
        M = random_elliptic(rng, m=m)
        P = char_polynomial(M)
        assert self._count(eig_calls, lambda: charpoly.is_characteristic(P, M.n)) == 2

    @pytest.mark.parametrize("m, r, k", [(3, 1, 1), (5, 2, 2)])
    def test_realize_constant_directions(self, eig_calls, rng, m, r, k):
        # The four of membership; realize adds (Y^T A Y)^{-1/2} of the
        # a_frame, G and build's freeness test (eight while realize read
        # the moving part of the SVD reduction).
        M = random_manifold(rng, m=m, r=r, k=k, zero_eigs=0)
        P = char_polynomial(M)
        assert self._count(eig_calls, lambda: realize(P, M.n)) == 7

    def test_almost_equivalent_order_eight(self, eig_calls, rng):
        P = char_polynomial(random_manifold(rng, m=8, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, 8).inverse())
        eig_calls.clear()
        assert almost_equivalent(P, P2).is_yes
        # Three per membership decision; a simple spectrum needs no
        # refinement.
        assert len(eig_calls) == 6

    def test_almost_equivalent_constant_direction(self, eig_calls, rng):
        P = char_polynomial(random_manifold(rng, m=3, r=1, k=1, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, 3).inverse())
        eig_calls.clear()
        assert almost_equivalent(P, P2).is_yes
        # Four per membership decision; the witness reads the constant
        # frames the decisions built (ten while each decision read its
        # reduced parabola's C-gauge).
        assert len(eig_calls) == 8

    def test_almost_equivalent_two_constant_directions(self, eig_calls, rng):
        P = char_polynomial(random_manifold(rng, m=5, r=2, k=2, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, 5).inverse())
        eig_calls.clear()
        assert almost_equivalent(P, P2).is_yes
        # Four per membership decision; the witness needs none.
        assert len(eig_calls) == 8

    def test_almost_equivalent_degenerate_spectrum(self, eig_calls):
        # B = b C: each membership decision adds lambda_min of H on the
        # one cluster of mu, and each normal form the eigenbasis of H.
        rng = np.random.default_rng(5)
        t, member = proportional_b_members(rng, 3)
        P = member(t)
        P2 = apply_certificate(P, random_certificate(rng, 3).inverse())
        eig_calls.clear()
        assert almost_equivalent(P, P2).is_yes
        assert len(eig_calls) == 10


class TestScaleCounts:
    """Max-norms per top-level call.  Every max-norm of a whole
    coefficient is read from MatrixParabola.scales, so a membership
    decision calls symmat.max_norm only for the band of the constant
    block K at k >= 1 (when the max-norms were computed on use, it took
    1 call at k = 0, max|C|, and 4 at k >= 1: max|C|, max|B|, max|A|
    and max|K|).  The certificate's singularity check is
    symmat.singular_values, so no equivalence path calls numpy's svd."""

    @pytest.fixture
    def max_norms(self, monkeypatch):
        calls = []
        max_norm = symmat.max_norm
        monkeypatch.setattr(symmat, "max_norm", lambda S: calls.append(np.shape(S)) or max_norm(S))
        return calls

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_membership_full_rank(self, max_norms, rng, m):
        M = random_manifold(rng, m=m, zero_eigs=0)
        P = char_polynomial(M)
        max_norms.clear()
        assert is_characteristic(P, M.n)[0]
        assert max_norms == []

    @pytest.mark.parametrize("m, r, k", [(2, 1, 1), (3, 1, 1), (5, 2, 2), (8, 3, 3)])
    def test_membership_constant_directions(self, max_norms, rng, m, r, k):
        M = random_manifold(rng, m=m, r=r, k=k, zero_eigs=0)
        P = char_polynomial(M)
        max_norms.clear()
        assert is_characteristic(P, M.n)[0]
        assert max_norms == [(k, k)]

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_membership_elliptic(self, max_norms, rng, m):
        M = random_elliptic(rng, m=m)
        P = char_polynomial(M)
        max_norms.clear()
        assert is_characteristic(P, M.n)[0]
        assert max_norms == [(m, m)]

    def test_no_numpy_svd_on_any_equivalence_path(self, monkeypatch, rng):
        pairs = []
        for m, r, k in [(1, 1, 0), (3, 2, 0), (8, 3, 0), (3, 1, 1), (5, 2, 2)]:
            P = char_polynomial(random_manifold(rng, m=m, r=r, k=k, zero_eigs=0))
            pairs.append((P, apply_certificate(P, random_certificate(rng, m).inverse()), "yes"))
        E = char_polynomial(random_elliptic(rng, m=3))
        pairs.append((E, apply_certificate(E, random_certificate(rng, 3).inverse()), "yes"))
        t, member = proportional_b_members(np.random.default_rng(5), 3)
        pairs.append((member(t), apply_certificate(member(t), random_certificate(rng, 3).inverse()), "yes"))
        pairs.append((char_polynomial(random_manifold(rng, m=3, r=1, zero_eigs=0)),
                      char_polynomial(random_manifold(rng, m=3, r=2, zero_eigs=0)), "no"))
        pairs.append((char_polynomial(random_manifold(rng, m=3, r=3, zero_eigs=0)),
                      char_polynomial(random_manifold(rng, m=3, r=3, zero_eigs=0)), "no"))
        x = random_unimodular(rng, 2, ops=2)
        P = random_characteristic_parabola(rng, m=2)
        P2 = apply_certificate(P, EquivalenceCertificate(x, 1.5, 0.5).inverse())

        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd on an equivalence path")

        monkeypatch.setattr(np.linalg, "svd", refused)
        assert [almost_equivalent(P1, P2).verdict for P1, P2, _ in pairs] == [v for _, _, v in pairs]
        found = search_certificate(P, P2, entry_bound=3)
        assert found is not None and verify_equivalence(P, P2, found)
        assert verify_equivalence(P2, P, found.inverse(), 1e-6)


class TestSymmetrizeCounts:
    """Symmetrizations per top-level call.  Each matrix is symmetrized
    once, where it is formed: sym_eig reads its input as given and
    congruence returns X^T S X exactly symmetric, so a k = 0 decision
    calls symmetrize no more.  When sym_eig and congruence still called
    it, the count was 4 at every m (C and W^T B W in sym_eig, W^T B W and
    F^T A F in congruence)."""

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_membership_full_rank(self, monkeypatch, rng, m):
        calls = []
        symmetrize = symmat.symmetrize
        M = random_manifold(rng, m=m, zero_eigs=0)
        P = char_polynomial(M)
        monkeypatch.setattr(symmat, "symmetrize", lambda S: calls.append(np.shape(S)) or symmetrize(S))
        assert charpoly.is_characteristic(P, M.n)[0]
        assert len(calls) <= 0

    @pytest.mark.parametrize("m, r, k", [(3, 1, 1), (5, 2, 2)])
    def test_membership_constant_directions(self, monkeypatch, rng, m, r, k):
        # The constant block and the gauge's W^T B W and F^T A F come
        # from congruence, exactly symmetric, and are read as given (2
        # while a reduced MatrixParabola and is_pd symmetrized them).
        calls = []
        symmetrize = symmat.symmetrize
        M = random_manifold(rng, m=m, r=r, k=k, zero_eigs=0)
        P = char_polynomial(M)
        monkeypatch.setattr(symmat, "symmetrize", lambda S: calls.append(np.shape(S)) or symmetrize(S))
        assert charpoly.is_characteristic(P, M.n)[0]
        assert len(calls) <= 0


class TestCongruenceCounts:
    """symmat.congruence calls per top-level call.  A witness is checked
    from the one product T = X^T [A2, B2, C2] X: the image is T
    reparametrized, and the band reads T's terms.  The integer search
    forms its candidates' T from the table of Kronecker squares instead.
    When the check formed the image by apply_certificate and its terms by
    a second congruence, a k = 0 yes of almost_equivalent took 8 at every
    m, and a found search_certificate 3 (traces, the screened images and
    the re-check of the first survivor)."""

    @pytest.fixture
    def congruences(self, monkeypatch):
        calls = []
        congruence = symmat.congruence
        monkeypatch.setattr(symmat, "congruence", lambda S, X: calls.append(np.shape(X)) or congruence(S, X))
        return calls

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_almost_equivalent_full_rank(self, congruences, rng, m):
        # W^T B W and F^T A F per membership decision, and the witness's
        # T; a simple spectrum needs no refined frame, so H is not
        # rotated (7 while the identity rotation was applied).
        P = char_polynomial(random_manifold(rng, m=m, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, m).inverse())
        congruences.clear()
        assert almost_equivalent(P, P2).is_yes
        assert len(congruences) <= 5

    @pytest.mark.parametrize("m", [1, 2])
    def test_search_found(self, congruences, rng, m):
        # The candidates' T is one product with the table of Kronecker
        # squares, which serves the traces and every candidate's check
        # (one stacked congruence while the search formed T by congruence).
        x = [[-1.0]] if m == 1 else random_unimodular(rng, 2, ops=2)
        P = random_characteristic_parabola(rng, m=m)
        P2 = apply_certificate(P, EquivalenceCertificate(x, 1.5, 0.5).inverse())
        congruences.clear()
        assert search_certificate(P, P2, entry_bound=3) is not None
        assert len(congruences) == 0


def scalar_search(P1, P2, entry_bound, tol=symmat.DEFAULT_TOL):
    """Reference for search_certificate: one candidate X at a time, in
    lexicographic order, with alpha and beta forced by the traces."""
    m = P1.dim
    tr_b1, tr_c1 = float(np.trace(P1.B)), float(np.trace(P1.C))
    tiny = tol * P1.coeff_scale()
    for entries in itertools.product(range(-entry_bound, entry_bound + 1), repeat=m * m):
        det = entries[0] if m == 1 else entries[0] * entries[3] - entries[1] * entries[2]
        if abs(det) != 1:
            continue
        X = np.array(entries, dtype=float).reshape(m, m)
        # X^T S X by the search's product, vec(S) against np.kron(X, X).
        _, T_B, T_C = symmat.symmetrize((P2.coeffs.reshape(3, m * m) @ np.kron(X, X)).reshape(3, m, m))
        tr_c2x = float(np.trace(T_C))
        if tr_c1 <= tiny and tr_c2x <= tiny:
            alpha, beta = 1.0, 0.0
        elif tr_c1 <= tiny or tr_c2x <= tiny:
            continue
        else:
            alpha = float(np.sqrt(tr_c1 / tr_c2x))
            tr_b2x = float(np.trace(T_B))
            beta = (tr_b1 / alpha - tr_b2x) / tr_c2x
        cert = EquivalenceCertificate(X, alpha, beta)
        if P1.close_to(apply_certificate(P2, cert), tol):
            return cert
    return None


def assert_same_search(found, reference):
    """Same verdict and, when found, the same X, alpha and beta bit for bit:
    the batched search repeats the reference's arithmetic."""
    assert (found is None) == (reference is None)
    if found is not None:
        np.testing.assert_array_equal(found.X, reference.X)
        assert (found.alpha, found.beta) == (reference.alpha, reference.beta)


class TestSearchCertificate:
    def test_planted_swap(self):
        P = char_polynomial(example_5d(1, 2))
        planted = EquivalenceCertificate([[0.0, 1.0], [1.0, 0.0]], 1.0, 0.0)
        P2 = apply_certificate(P, planted)
        found = search_certificate(P, P2, entry_bound=2)
        assert found is not None
        assert found.integral
        assert verify_equivalence(P, P2, found)

    def test_shifted_unit(self):
        P2 = MatrixParabola([[2.0]], [[1.0]], [[1.0]])
        found = search_certificate(P_UNIT, P2, entry_bound=2)
        assert found is not None
        assert verify_equivalence(P_UNIT, P2, found)
        # Deterministic: the lexicographically first witness is X = [-1]
        # with beta = -1 (the mirror of ([1], 1, 1)).
        np.testing.assert_allclose(found.X, [[-1.0]])
        assert found.alpha == pytest.approx(1.0)
        assert found.beta == pytest.approx(-1.0)

    def test_no_certificate(self):
        P2 = MatrixParabola([[3.0]], [[0.0]], [[1.0]])
        assert search_certificate(P_UNIT, P2, entry_bound=3) is None

    def test_unsupported_dimension(self):
        P = MatrixParabola(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(UnsupportedDimension):
            search_certificate(P, P)
        with pytest.raises(UnsupportedDimension):
            search_certificate(P_UNIT, P_UNIT, entry_bound=6)
        empty = MatrixParabola(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)))
        with pytest.raises(UnsupportedDimension):
            search_certificate(empty, empty)

    def test_random_planted_certificates(self, rng):
        for _ in range(15):
            P = random_characteristic_parabola(rng, m=2)
            x = random_unimodular(rng, 2, ops=2)
            if np.max(np.abs(x)) > 2:
                continue
            cert = EquivalenceCertificate(x, float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0)))
            P2 = apply_certificate(P, cert.inverse())
            found = search_certificate(P, P2, entry_bound=3, tol=1e-7)
            assert found is not None
            assert verify_equivalence(P, P2, found, 1e-6)

    @pytest.mark.parametrize("m", [1, 2])
    def test_unimodular_table_is_built_once_and_read_only(self, m):
        for bound in range(1, 6):
            table = classify._unimodular_stack(m, bound)
            assert classify._unimodular_stack(m, bound) is table
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0, 0] = 7.0
            det = table[:, 0, 0] if m == 1 else table[:, 0, 0] * table[:, 1, 1] - table[:, 0, 1] * table[:, 1, 0]
            assert table.shape[1:] == (m, m) and (np.abs(det) == 1).all() and np.abs(table).max() <= bound
            squares = classify._squares_table(m, bound)
            assert classify._squares_table(m, bound) is squares
            assert not squares.flags.writeable
            with pytest.raises(ValueError):
                squares[0, 0] = 7.0
            # Candidate n's columns are np.kron(X_n, X_n), entries-first.
            blocks = squares.reshape(m * m, m * m, len(table))
            for n, X in enumerate(table):
                np.testing.assert_array_equal(blocks[:, :, n], np.kron(X, X))
        assert classify._squares_table(2, 5).nbytes <= 80_000

    @pytest.mark.parametrize("m", [1, 2])
    def test_squares_table_images_are_congruences(self, rng, m):
        # vec(S) times the table is vec(X^T S X) for every candidate X,
        # against the congruence kernel, at every bound.
        for bound in range(1, 6):
            Xs = classify._unimodular_stack(m, bound)
            S = symmetrize(rng.standard_normal((3, m, m)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 1, 1)))
            images = (S.reshape(3, m * m) @ classify._squares_table(m, bound)).reshape(3, m, m, len(Xs))
            expected = symmat.congruence(S[:, None], Xs)  # (3, N, m, m)
            scale = np.abs(S).max(axis=(1, 2))[:, None, None, None] * np.abs(Xs).max() ** 2
            np.testing.assert_allclose(images.transpose(0, 3, 1, 2), expected, rtol=0, atol=1e-14 * scale.max())

    def test_fits_on_a_stack_is_fits_on_each_candidate(self, monkeypatch, rng):
        # _fits reads one layout for a stack and for one witness: the
        # search's verdict on candidate n is _fits on T[:, :, n] alone,
        # for forced alpha and beta, where both traces are tiny
        # (alpha = 1, beta = 0) and where exactly one is (for every
        # candidate, or for some of them).
        stacks = []
        fits = classify._fits

        def recording(coeffs1, T, alpha, beta, tol):
            verdicts = fits(coeffs1, T, alpha, beta, tol)
            stacks.append((coeffs1, T, alpha, beta, tol, verdicts))
            return verdicts

        monkeypatch.setattr(classify, "_fits", recording)
        pairs = [pair for pair, _ in self._trace_edge_pairs()]
        for m in (1, 2):
            pairs.extend(itertools.islice(self._pairs(rng, m, 2), 4))
        for P1, P2 in pairs:
            search_certificate(P1, P2, 3, tol=1e-7)
        assert len(stacks) == len(pairs)
        assert any(alpha.size and (alpha == 1.0).all() and not beta.any() for _, _, alpha, beta, _, _ in stacks)
        candidates = len(classify._unimodular_stack(2, 3))
        assert any(T.shape[2] == 0 for _, T, _, _, _, _ in stacks)
        assert any(0 < T.shape[2] < candidates and T.shape[1] == 4 for _, T, _, _, _, _ in stacks)
        assert any(verdicts.any() for *_, verdicts in stacks) and any(not verdicts.all() for *_, verdicts in stacks)
        for coeffs1, T, alpha, beta, tol, verdicts in stacks:
            assert verdicts.shape == alpha.shape == beta.shape == (T.shape[2],)
            m = math.isqrt(T.shape[1])  # every image exactly symmetric, as congruence's
            np.testing.assert_array_equal(T, T.reshape(3, m, m, -1).swapaxes(1, 2).reshape(T.shape))
            each = [fits(coeffs1[..., 0], T[:, :, n], alpha[n], beta[n], tol) for n in range(T.shape[2])]
            np.testing.assert_array_equal(verdicts, np.array(each, dtype=bool))

    def test_entry_bound_must_be_integral(self):
        for bound in (2.5, 3.0, "3", None):
            with pytest.raises(UnsupportedDimension):
                search_certificate(P_UNIT, P_UNIT, entry_bound=bound)
        assert search_certificate(P_UNIT, P_UNIT, entry_bound=np.int64(2)) is not None

    @pytest.mark.parametrize(
        "call",
        [
            lambda tol: search_certificate(P_UNIT, P_UNIT, tol=tol),
            lambda tol: almost_equivalent(P_UNIT, P_UNIT, tol),
            lambda tol: verify_equivalence(P_UNIT, P_UNIT, identity_certificate(1), tol),
            lambda tol: realize(P_UNIT, 3, tol),
        ],
        ids=["search_certificate", "almost_equivalent", "verify_equivalence", "realize"],
    )
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9])
    def test_non_finite_tol_rejected(self, call, tol):
        # P_UNIT is equivalent to itself: a NaN or negative band must not
        # answer None, "no" or NotCharacteristic for it.
        with pytest.raises(NonFiniteInput):
            call(tol)

    @staticmethod
    def _pairs(rng, m, count):
        """Planted pairs P1 = X^T P2(alpha s + beta) X, each followed by
        its scaled copy c P1 (c in {2, 3}), which no certificate reaches."""
        for _ in range(count):
            P = random_characteristic_parabola(rng, m=m)
            if m == 1:
                x = [[float(rng.choice([-1.0, 1.0]))]]
            else:
                x = random_unimodular(rng, 2, ops=int(rng.integers(1, 5)))
            cert = EquivalenceCertificate(
                x, float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
            )
            P2 = apply_certificate(P, cert.inverse())
            c = float(rng.choice([2.0, 3.0]))
            yield P, P2
            yield MatrixParabola(c * P.A, c * P.B, c * P.C), P2

    @staticmethod
    def _trace_edge_pairs():
        """Pairs at the edges of the trace rule, each with whether a
        certificate with entries in [-2, 2] exists."""
        x = np.array([[2.0, 1.0], [1.0, 1.0]])
        zero = np.zeros((2, 2))
        # Both traces tiny: alpha = 1, beta = 0.
        elliptic = (MatrixParabola(np.eye(2), zero, zero), MatrixParabola(x.T @ x, zero, zero))
        # C1 = 0 but C2 != 0: exactly one tiny trace rules every X out.
        mixed = (MatrixParabola(np.eye(2), zero, zero), MatrixParabola(np.eye(2), zero, np.eye(2)))
        # An indefinite C2: the candidates with tr X^T C2 X <= 0, among
        # them the lexicographically first ones, drop out before the check.
        P2 = MatrixParabola([[2.0, 0.3], [0.3, 1.0]], [[0.5, 0.1], [0.1, -0.2]], np.diag([1.0, -1.0]))
        indefinite = (apply_certificate(P2, EquivalenceCertificate(x, 1.5, 0.5)), P2)
        return [(elliptic, True), (mixed, False), (indefinite, True)]

    def test_matches_scalar_reference(self, rng):
        found = 0
        for m, bound in itertools.product((1, 2), range(1, 6)):
            for P1, P2 in self._pairs(rng, m, 2):
                batched = search_certificate(P1, P2, bound, tol=1e-7)
                assert_same_search(batched, scalar_search(P1, P2, bound, tol=1e-7))
                found += batched is not None
        assert found >= 10
        for (P1, P2), expected in self._trace_edge_pairs():
            for bound in range(1, 6):
                batched = search_certificate(P1, P2, bound)
                assert (batched is not None) == (expected and bound >= 2)
                assert_same_search(batched, scalar_search(P1, P2, bound))


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: random_characteristic_parabola(rng, m=2),
        lambda rng: random_manifold(rng, m=2),
        lambda rng: random_certificate(rng, 2),
        lambda rng: charpoly.reduce_degenerate(char_polynomial(random_manifold(rng, m=3, r=1, k=1, zero_eigs=0))),
        lambda rng: charpoly.schur_condition(random_characteristic_parabola(rng, m=2)),
        lambda rng: affine_spectrum(random_characteristic_parabola(rng, m=2)),
        lambda rng: simple_spectrum_form(example_5d(1.0, 2.0)),
        lambda rng: almost_equivalent(*[random_characteristic_parabola(rng, m=2)] * 2),
    ],
    ids=["MatrixParabola", "ManifoldData", "EquivalenceCertificate", "ReductionResult", "SchurResult",
         "AffineSpectrum", "SimpleSpectrumForm", "AlmostVerdict"],
)
def test_records_holding_arrays_compare_by_identity(rng, make):
    # Value equality would compare arrays elementwise, and raise.
    record = make(rng)
    assert record == record
    assert (record == copy.deepcopy(record)) is False
    assert hash(record) == hash(record)
