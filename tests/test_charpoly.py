"""Parabola extraction, positivity, Schur criterion, degenerate reduction."""

import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcurves import (
    EquivalenceCertificate,
    InvalidCharacteristic,
    MatrixParabola,
    NonFiniteInput,
    NotDegenerate,
    Signature,
    SingularA,
    apply_certificate,
    char_polynomial,
    check_free,
    check_positive_all_s,
    example_4d,
    example_5d,
    is_characteristic,
    q_direct,
    reduce_degenerate,
    reparametrize,
    schur_condition,
    signature_of,
)
from causalcurves.errors import DimensionMismatch
from conftest import (
    random_characteristic_parabola,
    random_elliptic,
    random_manifold,
    random_real_invertible,
    random_unimodular,
    random_violating_arrays,
    unvalidated_manifold,
)

I2 = np.eye(2)


@pytest.fixture
def pair_one():
    """Quadratic coefficient barely coupled; Schur matrix indefinite.

    Here A = B = I makes Q(-1) equal to C - B A^{-1} B, so the parabola
    is degenerate at s = -1 whenever the Schur matrix is indefinite:
    positivity and the Schur condition fail together on this input.
    """
    return MatrixParabola(I2, I2, [[1.0, 0.5], [0.5, 1.0]])


@pytest.fixture
def pair_two():
    return MatrixParabola(I2, np.diag([1.0, 0.0]), I2)


class TestCharPolynomial:
    def test_dim4(self):
        P = char_polynomial(example_4d())
        np.testing.assert_allclose(P.A, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(P.B, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(P.C, [[1.0]], atol=1e-14)

    @pytest.mark.parametrize("t,r", [(1, 1), (2, 1), (1, 3)])
    def test_dim5_family(self, t, r):
        P = char_polynomial(example_5d(t, r))
        np.testing.assert_allclose(P.A, I2, atol=1e-12)
        np.testing.assert_allclose(P.B, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(
            P.C, [[t * t, t * r], [t * r, 1 + r * r]], atol=1e-12
        )

    def test_elliptic_has_constant_curve(self, rng):
        M = random_elliptic(rng)
        P = char_polynomial(M)
        np.testing.assert_allclose(P.A, M.lattice.T @ M.lattice, atol=1e-12)
        assert np.max(np.abs(P.B)) == 0.0
        assert np.max(np.abs(P.C)) == 0.0


class TestQDirect:
    def test_dim4_at_origin(self):
        M = example_4d()
        assert q_direct(M, np.array([1.0]), np.zeros(4)) == pytest.approx(1.0)

    def test_dim4_at_height_two(self):
        M = example_4d()
        v = 2.0 * M.frame.v1  # l0(v) = 2
        assert q_direct(M, np.array([1.0]), v) == pytest.approx(5.0)  # Q(2) = 1 + 4

    def test_zero_loop(self, rng):
        M = example_5d(1, 1)
        v = rng.standard_normal(5)
        assert q_direct(M, np.zeros(2), v) == pytest.approx(0.0)

    def test_matches_parabola_form(self, rng):
        for _ in range(200):
            M = random_manifold(rng)
            P = char_polynomial(M)
            z = rng.integers(-3, 4, size=M.m).astype(float)
            v = rng.standard_normal(M.n)
            direct = q_direct(M, z, v)
            form = float(z @ P(M.frame.l0(v)) @ z)
            assert abs(direct - form) <= 1e-9 * (1.0 + abs(direct))

    def test_shift_covariance(self, rng):
        for _ in range(50):
            M = random_manifold(rng)
            P = char_polynomial(M)
            z = rng.integers(-3, 4, size=M.m).astype(float)
            v = rng.standard_normal(M.n)
            beta = rng.uniform(-3.0, 3.0)
            shifted = q_direct(M, z, v + beta * M.frame.v1)
            form = float(z @ P(M.frame.l0(v) + beta) @ z)
            assert abs(shifted - form) <= 1e-9 * (1.0 + abs(form))


class TestPositivity:
    def test_scalar_parabola_positive(self):
        assert check_positive_all_s(MatrixParabola([[1.0]], [[0.0]], [[1.0]]))

    def test_root_at_minus_one(self, pair_two):
        assert not check_positive_all_s(pair_two)

    def test_pair_one_degenerates(self, pair_one):
        # Q(-1) = C - I has eigenvalues +-1/2.
        assert not check_positive_all_s(pair_one)
        assert np.linalg.eigvalsh(pair_one(-1.0))[0] < 0

    def test_positive_without_schur(self):
        # Positivity does not imply the Schur condition: no real det
        # roots (checked against a sampling oracle in test_symmat), yet
        # C - B A^{-1} B = [[1, 1.2], [1.2, 1]] is indefinite.
        P = MatrixParabola(I2, np.diag([1.0, 0.0]), [[2.0, 1.2], [1.2, 1.0]])
        assert check_positive_all_s(P)
        schur = schur_condition(P)
        assert not schur.psd
        assert not is_characteristic(P, 6)[0]

    def test_scaling_covariance(self, rng):
        from causalcurves import build

        for _ in range(30):
            M = random_manifold(rng)
            t = rng.uniform(0.5, 3.0)
            scaled = build(M.n, M.a_prime / t, M.a_dblprime / t, M.lattice)
            P = char_polynomial(M)
            P_scaled = char_polynomial(scaled)
            assert reparametrize(P_scaled, t, 0.0).close_to(P, 1e-9)

    def test_grid_sampling_cross_check(self, rng):
        # Dense sampling of the minimum eigenvalue over the root-bounding
        # interval of det' agrees with the verdict whenever the family is
        # comfortably away from the boundary.
        import numpy.polynomial.polynomial as npoly

        from causalcurves import symmat

        for _ in range(40):
            if rng.random() < 0.5:
                M = random_manifold(rng)
                P = char_polynomial(M)
            else:
                m = int(rng.integers(1, 4))
                mats = [rng.standard_normal((m, m)) for _ in range(3)]
                mats = [0.5 * (w + w.T) for w in mats]
                mats[0] = mats[0] @ mats[0] + 0.3 * np.eye(m)
                mats[2] = mats[2] @ mats[2]
                P = MatrixParabola(*mats)
            p = symmat.det_poly(P.A, P.B, P.C)
            dp = symmat.trim_poly(npoly.polyder(p))
            # Cauchy's bound: every real root of dp lies inside [-bound, bound].
            bound = 1.0 + np.max(np.abs(dp[:-1])) / abs(dp[-1]) if dp.size > 1 else 1.0
            grid = np.linspace(-bound, bound, 1001)
            grid_min = min(np.linalg.eigvalsh(P(s))[0] for s in grid)
            lead_ok = p.size % 2 == 1 and p[-1] > 0
            band = 1e-6 * P.coeff_scale()
            if grid_min > band and lead_ok:
                assert check_positive_all_s(P)
            elif grid_min < -band:
                assert not check_positive_all_s(P)


class TestSchur:
    def test_pair_one(self, pair_one):
        schur = schur_condition(pair_one)
        np.testing.assert_allclose(schur.matrix, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
        assert not schur.psd

    def test_pair_two(self, pair_two):
        schur = schur_condition(pair_two)
        np.testing.assert_allclose(schur.matrix, np.diag([0.0, 1.0]), atol=1e-12)
        assert schur.psd
        assert schur.rank == 1

    def test_dim5_gram(self):
        P = char_polynomial(example_5d(1, 1))
        schur = schur_condition(P)
        np.testing.assert_allclose(schur.matrix, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)
        assert schur.psd
        assert schur.rank == 1

    def test_singular_a(self):
        with pytest.raises(SingularA):
            schur_condition(MatrixParabola(np.diag([1.0, 0.0]), I2, I2))


class TestIsCharacteristic:
    def test_dim4_normal_form(self):
        ok, sig = is_characteristic(MatrixParabola([[1.0]], [[0.0]], [[1.0]]), 4)
        assert ok
        assert sig.as_tuple() == (4, 1, 1, 0)

    def test_pair_one_rejected(self, pair_one):
        ok, sig = is_characteristic(pair_one, 6)
        assert not ok and sig is None

    def test_pair_two_rejected(self, pair_two):
        ok, sig = is_characteristic(pair_two, 6)
        assert not ok and sig is None

    def test_dim5_family(self):
        P = char_polynomial(example_5d(1, 1))
        ok, sig = is_characteristic(P, 5)
        assert ok and sig.as_tuple() == (5, 2, 1, 0)
        ok, _ = is_characteristic(P, 4)  # m + r + 2 = 5 does not fit
        assert not ok

    def test_elliptic_accepted(self):
        P = MatrixParabola([[2.0, 0.5], [0.5, 1.0]], np.zeros((2, 2)), np.zeros((2, 2)))
        ok, sig = is_characteristic(P, 4)
        assert ok and sig.as_tuple() == (4, 2, 0, 2)

    def test_weaker_condition_when_r_equals_m(self, rng):
        # With the Schur matrix definite (r = m), definiteness of A alone
        # must agree with the full positivity check.
        for _ in range(30):
            M = random_manifold(rng, m=2, r=2, zero_eigs=0)
            P = char_polynomial(M)
            schur = schur_condition(P)
            if schur.rank != P.dim:
                continue
            from causalcurves import is_pd

            assert check_positive_all_s(P) == is_pd(P.A)

    def test_freeness_matches_positivity(self, rng):
        # Orders 5 and 8 draw from their own seed.  A killed eigenvector
        # makes Q singular at a single point where it stays semidefinite;
        # at order 8 such points are easy to miss.
        wide = np.random.default_rng(6)
        for gen, m in [(rng, None), (wide, 5), (wide, 8)]:
            for _ in range(60):
                if gen.random() < 0.5:
                    M = random_manifold(gen, m=m)
                else:
                    a_prime, a_dbl = random_violating_arrays(gen, m=m)
                    M = unvalidated_manifold(a_prime, a_dbl)
                assert check_free(M) == check_positive_all_s(char_polynomial(M))

    def test_steep_reparametrization_terminates(self):
        # s -> 1000 s of an order-3 member; each verdict must come back
        # within the deadline instead of looping in the root finder.
        rng = np.random.default_rng(9)
        for _ in range(19):
            P = random_characteristic_parabola(rng)
        assert P.dim == 3

        def expire(signum, frame):
            raise TimeoutError("is_characteristic exceeded its deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        try:
            for Q in (P, reparametrize(P, 1000.0, 0.0)):
                signal.setitimer(signal.ITIMER_REAL, 5.0)
                ok, sig = is_characteristic(Q, 8)
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                assert ok and sig.as_tuple() == (8, 3, 2, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from([None, 5, 8]),
        member=st.booleans(),
        unimodular=st.booleans(),
        log_alpha=st.floats(-3.0, 3.0),
        beta=st.floats(-50.0, 50.0),
        scale=st.sampled_from([1.0, 1e-12, 1e-9, 1e9]),
    )
    def test_verdict_invariant_under_wide_certificates(
        self, seed, order, member, unimodular, log_alpha, beta, scale
    ):
        # Members and freeness-violating non-members keep their verdict
        # and signature under scale * X^T Q(alpha s + beta) X with alpha
        # in [1e-3, 1e3], at orders 1-3 (order None) and at orders 5 and
        # 8.  A band with an absolute term rejects every member at
        # scale 1e-12.
        rng = np.random.default_rng(seed)
        if member:
            M = random_manifold(rng, m=order)
        else:
            M = unvalidated_manifold(*random_violating_arrays(rng, m=order))
        P = char_polynomial(M)
        X = random_unimodular(rng, P.dim) if unimodular else random_real_invertible(rng, P.dim)
        Q = apply_certificate(P, EquivalenceCertificate(X, 10.0**log_alpha, beta))
        Q = MatrixParabola(scale * Q.A, scale * Q.B, scale * Q.C)
        n = 2 * P.dim + 2
        assert is_characteristic(Q, n) == is_characteristic(P, n)
        assert check_positive_all_s(Q) == check_positive_all_s(P)

    @pytest.mark.parametrize("seed", [92, 205, 462, 874])
    def test_schur_rank_kept_under_small_alpha(self, seed):
        # Order-2 members of rank r = 2 under certificates with alpha in
        # [1e-3, 1e-2]: C shrinks by alpha^2, so a Schur band with an
        # absolute term, or a ker C band with one, reported r = 1.
        rng = np.random.default_rng(seed)
        P = char_polynomial(random_manifold(rng))
        X = random_unimodular(rng, 2) if rng.random() < 0.5 else random_real_invertible(rng, 2)
        alpha, beta = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-50.0, 50.0)
        assert 1e-3 <= alpha <= 1e-2
        Q = apply_certificate(P, EquivalenceCertificate(X, alpha, beta))
        assert is_characteristic(P, 6) == (True, Signature(6, 2, 2, 0))
        assert is_characteristic(Q, 6) == (True, Signature(6, 2, 2, 0))

    @pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1e-4, 1e4, 1e8, 1e9])
    def test_contraction_and_expansion_scan(self, alpha):
        # s -> alpha s scales C by alpha^2 and the linearization
        # eigenvalues by alpha: members keep their signature (a small C
        # is no elliptic point), and killed-eigenvector non-members (the
        # s = infinity floor scales with them) and non-members whose B
        # does not vanish on ker C (B U is read relative to max|B|) stay
        # rejected.
        rng = np.random.default_rng(8)
        for m in range(1, 9):
            for k in (0, 1) if m > 1 else (0,):
                P = char_polynomial(random_manifold(rng, m=m, r=1 if k else None, k=k))
                n = 2 * m + 2
                verdict = is_characteristic(P, n)
                assert verdict[0]
                assert is_characteristic(reparametrize(P, alpha, 0.0), n) == verdict
            if m > 1:
                P = char_polynomial(unvalidated_manifold(*random_violating_arrays(rng, m=m)))
                assert not is_characteristic(reparametrize(P, alpha, 0.0), 2 * m + 2)[0]
                P = char_polynomial(random_manifold(rng, m=m, r=1, k=1))
                u = np.linalg.eigh(P.C)[1][:, 0]  # C is PSD: its kernel comes first
                w = rng.standard_normal(m)
                P = MatrixParabola(P.A, P.B + 1e-2 * (np.outer(u, w) + np.outer(w, u)), P.C)
                assert not is_characteristic(reparametrize(P, alpha, 0.0), 2 * m + 2)[0]

    def test_contracted_member_is_not_elliptic(self):
        P = char_polynomial(random_manifold(np.random.default_rng(7), m=2, r=1, k=0, zero_eigs=0))
        Q = reparametrize(P, 1e-6, 0.0)
        assert is_characteristic(Q, 6, 1e-6) == (True, Signature(6, 2, 1, 0))

    def test_rank_bookkeeping(self, rng):
        for _ in range(40):
            k = int(rng.integers(0, 2))
            M = random_manifold(rng, m=3, r=1, k=k)
            P = char_polynomial(M)
            sig = signature_of(M)
            band = 1e-8 * (1.0 + np.max(np.abs(P.C)))
            assert P.dim - sig.k == np.sum(np.abs(np.linalg.eigvalsh(P.C)) > band)

    @pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-6])
    def test_reduction_check_follows_tol(self, tol):
        # C has an eigenvalue near 1e-8 whose eigenvector B kills to 1e-8:
        # a full-rank member at tol = 1e-9, one constant direction above
        # 1e-8.  The block structure of the reduction must be checked at
        # the same tol, or the looser bands turn the member away.
        eps = 1e-8
        P = MatrixParabola(
            np.diag([2.0, 1.5, 1.0]),
            [[0.3, 0.1, eps], [0.1, -0.2, 0.0], [eps, 0.0, 0.0]],
            [[1.0, 0.2, 0.0], [0.2, 0.8, eps], [0.0, eps, eps]],
        )
        ok, sig = is_characteristic(P, 8, tol)
        assert ok
        assert sig.as_tuple() == ((8, 3, 3, 0) if tol < eps else (8, 3, 2, 1))


class TestReduction:
    def test_already_block(self):
        # diag(1 + s^2, 2): constant block [2], moving block 1 + s^2.
        P = MatrixParabola(np.diag([1.0, 2.0]), np.zeros((2, 2)), np.diag([1.0, 0.0]))
        red = reduce_degenerate(P)
        assert red.constant_block.shape == (1, 1)
        assert red.constant_block[0, 0] == pytest.approx(2.0)
        np.testing.assert_allclose(red.reduced.A, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(red.reduced.B, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(red.reduced.C, [[1.0]], atol=1e-12)

    def test_conjugated_block(self, rng):
        base = MatrixParabola(np.diag([1.0, 2.0]), np.zeros((2, 2)), np.diag([1.0, 0.0]))
        for _ in range(20):
            while True:
                x = rng.standard_normal((2, 2))
                if abs(np.linalg.det(x)) > 0.3:
                    break
            P = MatrixParabola(x.T @ base.A @ x, x.T @ base.B @ x, x.T @ base.C @ x)
            red = reduce_degenerate(P)
            assert red.constant_block.shape == (1, 1)
            ok, sig = is_characteristic(red.reduced, 4)
            assert ok and sig.as_tuple() == (4, 1, 1, 0)

    def test_block_structure_verified(self, rng):
        for _ in range(20):
            M = random_manifold(rng, m=3, r=1, k=1)
            P = char_polynomial(M)
            red = reduce_degenerate(P)
            for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
                full = red.X.T @ P(s) @ red.X
                k = red.constant_block.shape[0]
                np.testing.assert_allclose(
                    full[:k, :k], red.constant_block, atol=1e-9 * (1 + np.max(np.abs(full)))
                )
                assert np.max(np.abs(full[:k, k:])) <= 1e-9 * (1 + np.max(np.abs(full)))

    def test_linear_algebraic_reduction_without_validity(self):
        # ker C = span(e2) lies inside ker B, so reduction succeeds even
        # though the reduced parabola (1+s)^2 then fails positivity.
        P = MatrixParabola(I2, np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        red = reduce_degenerate(P)
        assert red.constant_block.shape == (1, 1)
        np.testing.assert_allclose(red.reduced.A, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(red.reduced.B, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(red.reduced.C, [[1.0]], atol=1e-12)
        assert not check_positive_all_s(red.reduced)
        ok, _ = is_characteristic(P, 6)
        assert not ok

    def test_everything_constant(self):
        # B = C = 0: the kernel of C is everything, X is the orthonormal
        # kernel basis, the constant block is X^T A X and the reduced
        # parabola is empty.
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        P = MatrixParabola(A, np.zeros((2, 2)), np.zeros((2, 2)))
        red = reduce_degenerate(P)
        np.testing.assert_allclose(red.X, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(red.constant_block, red.X.T @ A @ red.X, atol=1e-12)
        assert red.reduced.dim == 0
        for coeff in (red.reduced.A, red.reduced.B, red.reduced.C):
            assert coeff.shape == (0, 0)

    def test_full_rank_rejected(self):
        with pytest.raises(NotDegenerate):
            reduce_degenerate(MatrixParabola([[1.0]], [[0.0]], [[1.0]]))

    def test_linear_on_kernel_required(self):
        with pytest.raises(InvalidCharacteristic):
            reduce_degenerate(MatrixParabola(I2, I2, np.zeros((2, 2))))


class TestParabolaType:
    def test_symmetrized_on_entry(self):
        P = MatrixParabola([[1.0, 2.0], [0.0, 1.0]], np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_allclose(P.A, [[1.0, 1.0], [1.0, 1.0]])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MatrixParabola(np.eye(2), np.eye(3), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", range(3))
    def test_rejects_non_finite(self, which, bad):
        coeffs = [np.eye(2), np.zeros((2, 2)), np.eye(2)]
        coeffs[which][0, 1] = bad
        with pytest.raises(NonFiniteInput):
            MatrixParabola(*coeffs)
