"""Reconstruction, certificates, spectral invariants, equivalence search."""

import functools
import io
import json
import sys

import numpy as np
import pytest

from causalcurves import (
    BadCertificate,
    CSingular,
    EquivalenceCertificate,
    MatrixParabola,
    NonFiniteInput,
    NotCharacteristic,
    NotSimpleSpectrum,
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
    random_manifold,
    random_real_invertible,
    random_unimodular,
)

P_UNIT = MatrixParabola([[1.0]], [[0.0]], [[1.0]])


def random_certificate(rng, m, integral=None):
    if integral is None:
        integral = rng.random() < 0.5
    x = random_unimodular(rng, m) if integral else random_real_invertible(rng, m)
    alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    beta = float(rng.uniform(-5.0, 5.0))
    return EquivalenceCertificate(x, alpha, beta)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
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
        # The witness from the analyses equals the one assembled from the
        # realized manifold data of P1 and of the aligned P2.
        for _ in range(5):
            P1 = char_polynomial(random_manifold(rng, m=m, zero_eigs=0))
            P2 = apply_certificate(P1, random_certificate(rng, m).inverse())
            cert = almost_equivalent(P1, P2).certificate
            n = 2 * m + 2
            M1 = realize(P1, n)
            M2 = realize(reparametrize(P2, cert.alpha, cert.beta), n)
            f1, f2 = simple_spectrum_form(M1), simple_spectrum_form(M2)
            X = np.linalg.solve(M2.lattice, f2.frame @ f1.frame.T @ M1.lattice)
            assert np.array_equal(X, cert.X)


def _rebind(monkeypatch, name, replacement):
    """Replace ``name`` in every module of the package that binds it."""
    for module in (causalcurves, charpoly, classify, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


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

    def test_almost_equivalent_reduces_each_input_once(self, monkeypatch, rng):
        reductions = []
        original = charpoly.ParabolaAnalysis.reduction.func

        def counting(analysis):
            if analysis.kernel.any():
                reductions.append(analysis.P.dim)
            return original(analysis)

        counted = functools.cached_property(counting)
        counted.__set_name__(charpoly.ParabolaAnalysis, "reduction")
        monkeypatch.setattr(charpoly.ParabolaAnalysis, "reduction", counted)
        P = char_polynomial(random_manifold(rng, m=3, r=1, k=1, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, 3).inverse())
        assert almost_equivalent(P, P2).is_yes
        assert reductions == [3, 3]

    def test_validate_parabola(self, monkeypatch, rng, capsys):
        calls = []

        def counting(P, n, tol=symmat.DEFAULT_TOL):
            calls.append(P.dim)
            return charpoly.is_characteristic(P, n, tol)

        def recomputed(*args, **kwargs):
            raise AssertionError("criterion recomputed outside the analysis")

        monkeypatch.setattr(cli, "is_characteristic", counting)
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


class TestEigensolverCounts:
    """Eigendecompositions per top-level call on k = 0 members."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh", "eigvals", "eig"):

            def counting(*args, _solver=getattr(np.linalg, name), **kwargs):
                calls.append(_solver.__name__)
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
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
        assert self._count(eig_calls, lambda: charpoly.is_characteristic(P, M.n)) <= 5
        assert self._count(eig_calls, lambda: realize(P, M.n)) <= 6
        assert self._count(eig_calls, lambda: _validate_parabola(monkeypatch, P, M.n)) <= 5
        assert json.loads(capsys.readouterr().out)["result"]["characteristic"]

    def test_membership_degenerate(self, eig_calls, rng):
        # C of the full parabola, then the definiteness of the constant
        # block, then C, A, linearization, batched evaluation and G of the
        # reduced parabola; the reduction reuses the eigenpairs of C.
        M = random_manifold(rng, m=3, r=1, k=1, zero_eigs=0)
        P = char_polynomial(M)
        assert self._count(eig_calls, lambda: charpoly.is_characteristic(P, M.n)) <= 7

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_membership_elliptic(self, eig_calls, rng, m):
        # C, then the definiteness of the constant block; the 0 x 0
        # moving part needs no decomposition.
        M = random_elliptic(rng, m=m)
        P = char_polynomial(M)
        assert self._count(eig_calls, lambda: charpoly.is_characteristic(P, M.n)) <= 2

    def test_almost_equivalent_order_eight(self, eig_calls, rng):
        P = char_polynomial(random_manifold(rng, m=8, zero_eigs=0))
        P2 = apply_certificate(P, random_certificate(rng, 8).inverse())
        eig_calls.clear()
        assert almost_equivalent(P, P2).is_yes
        assert len(eig_calls) <= 16


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
