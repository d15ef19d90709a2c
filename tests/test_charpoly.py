"""Parabola extraction, positivity, Schur criterion, degenerate reduction."""

import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcurves import (
    EquivalenceCertificate,
    InvalidCharacteristic,
    MatrixParabola,
    NonFiniteInput,
    NotCharacteristic,
    NotDegenerate,
    Signature,
    SignatureInconsistent,
    SingularA,
    apply_certificate,
    char_polynomial,
    check_free,
    check_positive_all_s,
    example_4d,
    example_5d,
    is_characteristic,
    q_direct,
    realize,
    reduce_degenerate,
    reparametrize,
    schur_condition,
    signature_of,
)
from causalcurves import charpoly, classify, symmat
from causalcurves.errors import DimensionMismatch
from conftest import (
    random_characteristic_parabola,
    random_free_arrays,
    random_elliptic,
    random_manifold,
    random_orthogonal,
    random_real_invertible,
    random_unimodular,
    random_violating_arrays,
    rounding_asymmetric,
    unvalidated_manifold,
    wide_degenerate_member,
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

    @pytest.fixture
    def lambda_mins(self, monkeypatch):
        """Orders of the H-blocks the Hautus test decomposes."""
        calls = []
        lambda_min = charpoly._lambda_min
        monkeypatch.setattr(charpoly, "_lambda_min", lambda S: calls.append(S.shape[0]) or lambda_min(S))
        return calls

    def test_simple_mu_matches_the_cluster_loop(self, rng):
        # Reference: the loop over singleton clusters that the one
        # comparison of diag H replaces, on members and on non-free data.
        seen = set()
        for _ in range(80):
            arrays = random_free_arrays(rng, zero_eigs=0) if rng.random() < 0.5 else random_violating_arrays(rng)
            analysis = charpoly.ParabolaAnalysis(char_polynomial(unvalidated_manifold(*arrays)))
            g = analysis.c_gauge
            if g is None or not analysis.inertia[0]:
                continue
            cells = symmat.clusters(g.mu, analysis.tol * np.abs(g.mu).max())
            if len(cells) == g.mu.size:
                loop = all(charpoly._lambda_min(g.H[c, c]) > analysis.tol * g.size for c in cells)
                assert analysis.positive == loop
                seen.add(loop)
        assert seen == {True, False}

    def test_repeated_mu_takes_the_cluster_route(self, lambda_mins):
        # C = I and B = I: the C-gauge frame is the identity, mu = (1, 1)
        # and H = A - I = [[1, 1], [1, 1]], so Q(-1) = H is singular.
        # Each diagonal entry of H clears the band; lambda_min of the
        # block does not.
        P = MatrixParabola([[2.0, 1.0], [1.0, 2.0]], I2, I2)
        analysis = charpoly.ParabolaAnalysis(P)
        g = analysis.c_gauge
        assert np.all(np.diag(g.H) > analysis.tol * g.size)
        assert analysis.inertia == (True, 1)
        assert not analysis.positive
        assert lambda_mins == [2]
        assert not is_characteristic(P, 5)[0]

    def test_simple_mu_on_the_band_resolves_to_false(self, lambda_mins):
        # C = I and B = diag(0, 1): mu = (0, 1), H = diag(h, 1) and
        # size = max|F^T A F| = 2, so h = tol * size puts H[0, 0] exactly
        # on the band of the one-comparison Hautus test.
        h = symmat.DEFAULT_TOL * 2.0
        on_band = MatrixParabola(np.diag([h, 2.0]), np.diag([0.0, 1.0]), I2)
        analysis = charpoly.ParabolaAnalysis(on_band)
        g = analysis.c_gauge
        assert g.size == 2.0 and g.H[0, 0] == analysis.tol * g.size
        assert analysis.inertia == (True, 1)
        assert not analysis.positive
        assert not is_characteristic(on_band, 6)[0]
        above = MatrixParabola(np.diag([np.nextafter(h, 1.0), 2.0]), np.diag([0.0, 1.0]), I2)
        assert is_characteristic(above, 6) == (True, Signature(6, 2, 2, 0))
        assert lambda_mins == []


def _leaking_member(seed, factor):
    """wide_degenerate_member(seed) with B + eps (u x^T + x u^T): u spans
    the first direction of ker C, x is a unit vector orthogonal to ker C
    (so U^T B U stays 0) and eps = factor * tol * max|B|, a leak of
    ``factor`` times the band of the column-norm rule."""
    P, _ = wide_degenerate_member(seed)
    k = is_characteristic(P, 2 * P.dim + 2)[1].k
    U = np.linalg.eigh(P.C)[1][:, :k]  # C is PSD: its kernel comes first
    x = np.random.default_rng(10_000 + seed).standard_normal(P.dim)
    x -= U @ (U.T @ x)
    x /= np.linalg.norm(x)
    eps = factor * symmat.DEFAULT_TOL * P.scales[1]
    return MatrixParabola(P.A, P.B + eps * (np.outer(U[:, 0], x) + np.outer(x, U[:, 0])), P.C)


class TestPositivityWhereBLeaks:
    """Where B leaks onto ker C there is no C-gauge, and positivity
    deflates ker C exactly in the frame [E | Y] and decides the Schur
    complement it leaves.  When the linearization of all of Z^T Q(s) Z
    in the A-gauge decided instead, each direction of ker C left a
    near-Jordan block that rounding split above its s = infinity floor,
    so the verdict followed the rounding of the input, not the
    parabola."""

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_rotated_exact_kernel_family(self, m):
        # A = I, B = diag(0, t), C = diag(0, t^2 + c^2) with c >= 1/2 and
        # a leak eps of 1-1000 x the band in B[0, j]: after splitting off
        # e_0, the Schur complement is diagonal with entries
        # (1 + s t_i)^2 + s^2 c_i^2, less 4 s^2 eps^2 at i = j, positive
        # for every s, and so is every orthogonal image.  The A-gauge
        # linearization read 225 of 400 such images as positive.
        rng = np.random.default_rng(m)
        for _ in range(40):
            t, c = rng.uniform(-2.0, 2.0, m - 1), rng.uniform(0.5, 2.0, m - 1)
            B, C = np.diag(np.r_[0.0, t]), np.diag(np.r_[0.0, t * t + c * c])
            j = int(rng.integers(1, m))
            B[0, j] = B[j, 0] = 10 ** rng.uniform(0.0, 3.0) * symmat.DEFAULT_TOL * np.abs(B).max()
            X = random_orthogonal(rng, m)
            assert check_positive_all_s(MatrixParabola(np.eye(m), B, C))
            assert check_positive_all_s(MatrixParabola(*symmat.congruence(np.array([np.eye(m), B, C]), X)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 399),
        log_factor=st.floats(np.log10(3.0), 3.0),
        mix=st.integers(0, 2**32 - 1),
        log_top=st.floats(-300.0, 300.0),
    )
    def test_verdict_invariant_on_leak_draws(self, seed, log_factor, mix, log_top):
        # Leaks of 3-1000 x the band with U^T B U = 0: the verdict is the
        # parabola's, so a coordinate permutation, an orthogonal
        # congruence and a scale to max|entry| = 10^[-300, 300] keep it.
        # With the A-gauge linearization 27 of 400 draws changed under a
        # permutation and 46 of 300 under a congruence and a scale.
        Q = _leaking_member(seed, 10**log_factor)
        rng = np.random.default_rng(mix)
        p, X = rng.permutation(Q.dim), random_orthogonal(rng, Q.dim)
        verdict = check_positive_all_s(Q)
        assert check_positive_all_s(MatrixParabola(*Q.coeffs[:, p][:, :, p])) == verdict
        rotated = symmat.congruence(Q.coeffs, X)
        assert check_positive_all_s(MatrixParabola(*(rotated * (10**log_top / np.abs(rotated).max())))) == verdict

    def test_leak_draws_at_the_float_maximum(self):
        # P is read in units of a power of two, so the frame [E | Y], whose
        # Y is not orthonormal, forms no entry beyond the float maximum.
        for seed in range(0, 200, 5):
            Q = _leaking_member(seed, 10 ** np.random.default_rng(seed).uniform(0.0, 3.0))
            top = MatrixParabola(*(Q.coeffs * (1.7e308 / np.abs(Q.coeffs).max())))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert check_positive_all_s(top) == check_positive_all_s(Q)


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

    def test_g_reads_as_its_symmetrized_copy(self, rng):
        # realize forms G = C~ - B~^2, and BLAS does not promise that B~^2
        # comes out exactly symmetric; here C~ is made asymmetric by
        # rounding, and the transverse root is still the one of G's
        # symmetrized copy.
        for m in (2, 3, 5, 8):
            P = random_characteristic_parabola(rng, m=m)
            r = is_characteristic(P, 2 * m + 2)[1].r
            B_t, C_t = symmat.congruence(P.coeffs[1:], charpoly.ParabolaAnalysis(P).a_frame)
            C_t = rounding_asymmetric(C_t)
            G = C_t - B_t @ B_t
            assert not np.array_equal(G, G.T)
            values, vectors = np.linalg.eigh(symmat.symmetrize(G))
            want = np.diag(np.sqrt(np.clip(values[m - r :], 0.0, None))) @ vectors[:, m - r :].T
            np.testing.assert_array_equal(classify._transverse_root(B_t, C_t, r), want)


class TestDiagnosticsReduceFirst:
    """check_positive_all_s and schur_condition split off ker C as the
    membership decision does.  Positivity reads the constant block and
    the C-gauge of the moving directions; it never linearizes a
    parabola whose C is singular, where each direction of ker C puts a
    Jordan block at an infinite eigenvalue that rounding splits.
    Without that split these members read as not positive, and under
    wide maps the A-gauge misreads their Schur rank."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 6])
    def test_members_are_positive(self, seed):
        P, r = wide_degenerate_member(seed)
        assert is_characteristic(P, 2 * P.dim + 2)[0]
        assert check_positive_all_s(P)

    # From 27 on, A is definite only below its band, so A^{-1/2} does not
    # exist; the frame Z^T A Z = I does, its blocks K and Y^T A Y being
    # definite.
    @pytest.mark.parametrize("seed", [7, 19, 73, 127, 27, 67, 163, 199, 203, 335, 347, 355])
    def test_schur_rank_is_the_signature_rank(self, seed):
        P, r = wide_degenerate_member(seed)
        assert is_characteristic(P, 2 * P.dim + 2)[1].r == r
        schur = schur_condition(P)
        assert (schur.psd, schur.rank) == (True, r)

    def test_realize_round_trip_where_a_is_definite_only_below_its_band(self):
        P, r = wide_degenerate_member(199)
        M = realize(P, 2 * P.dim + 2)
        assert M.a_dblprime.shape[0] == r
        assert char_polynomial(M).close_to(P, 1e-12)

    def test_zero_order_part_needs_no_eigensolver(self, monkeypatch):
        # The elliptic point's moving part is 0 x 0: positive, with
        # inertia (True, 0), read without a decomposition beyond the
        # constructor's of the 0 x 0 C.
        def refused(*args, **kwargs):
            raise AssertionError("eigensolver on an empty matrix")

        analysis = charpoly.ParabolaAnalysis(MatrixParabola(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))))
        monkeypatch.setattr(symmat, "sym_eig", refused)
        monkeypatch.setattr(np.linalg, "eigvals", refused)
        monkeypatch.setattr(np.linalg, "eig", refused)
        assert analysis.positive is True
        assert analysis.inertia == (True, 0)

    def test_undecided_without_a_c_gauge(self):
        # C indefinite: no C-gauge, so the inertia of H is None, and
        # Q(s) is not positive (its leading coefficient has a negative
        # eigenvalue); the Schur diagnostic reads D.
        P = MatrixParabola(I2, np.zeros((2, 2)), np.diag([1.0, -1.0]))
        analysis = charpoly.ParabolaAnalysis(P)
        assert analysis.c_gauge is None
        assert analysis.positive is False and analysis.inertia is None
        assert not check_positive_all_s(P)
        schur = schur_condition(P)
        assert (schur.psd, schur.rank) == (False, 2)


class TestOneAnalysisPerCall:
    """Each top-level call analyses its parabola once: realize and the
    Schur diagnostic read the frame Z^T A Z = I of that analysis,
    positivity reads its C-gauge, and no analysis of a moving part is
    built.  The one exception is positivity where B leaks onto ker C
    but vanishes on it to second order (U^T B U = 0): ker C is deflated
    exactly, and the Schur complement it leaves, of order m - k, gets
    its own analysis."""

    @staticmethod
    def parabola(kind):
        rng = np.random.default_rng(31)
        if kind == "k0":
            return random_characteristic_parabola(rng, m=3)
        member = char_polynomial(random_manifold(rng, m=3, r=1, k=1))
        if kind == "k1":
            return member
        if kind in ("b_leaking", "b_leaking_orthogonal"):
            u, x = np.linalg.eigh(member.C)[1][:, 0], rng.standard_normal(3)
            if kind == "b_leaking_orthogonal":
                x -= u * (u @ x)  # x is orthogonal to ker C, so U^T B U stays 0
            return MatrixParabola(member.A, member.B + 1e-2 * (np.outer(u, x) + np.outer(x, u)), member.C)
        # (s + diag(0, 1))^2 + diag(1, -1/2) beside one constant direction:
        # H is indefinite, and Q(-1) is not definite.
        mu = np.array([0.0, 1.0])
        moving = np.array([np.diag(mu * mu) + np.diag([1.0, -0.5]), np.diag(mu), I2])
        return _assembled(np.eye(1), moving, random_real_invertible(rng, 3))

    @pytest.mark.parametrize("kind", ["k0", "k1", "h_indefinite", "b_leaking", "b_leaking_orthogonal"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda P: is_characteristic(P, 2 * P.dim + 2),
            lambda P: realize(P, 2 * P.dim + 2),
            check_positive_all_s,
            schur_condition,
        ],
        ids=["is_characteristic", "realize", "check_positive_all_s", "schur_condition"],
    )
    def test_one_analysis(self, monkeypatch, kind, call):
        P = self.parabola(kind)
        member = kind in ("k0", "k1")
        assert is_characteristic(P, 2 * P.dim + 2)[0] == member
        # The orthogonal leak of 1e-2 keeps Q(s) positive: its deflated
        # Schur complement is a small perturbation of the member's.
        assert check_positive_all_s(P) == (member or kind == "b_leaking_orthogonal")
        analyses = []
        init = charpoly.ParabolaAnalysis.__init__

        def counted(analysis, *args, **kwargs):
            analyses.append(analysis)
            init(analysis, *args, **kwargs)

        monkeypatch.setattr(charpoly.ParabolaAnalysis, "__init__", counted)
        try:
            call(P)
        except NotCharacteristic:
            assert not member
        assert len(analyses) == (2 if kind == "b_leaking_orthogonal" and call is check_positive_all_s else 1)

    @pytest.mark.parametrize(
        "kind, kept",
        [("k0", (True, True)), ("k1", (True, True)), ("h_indefinite", (True, True)),
         ("b_leaking", (False, False)), ("c_indefinite", (True, False))],
    )
    def test_gauge_pass_keeps_the_constant_directions(self, kind, kept):
        # The constructor sets the test of B on ker C and the constant
        # frames as plain attributes on every analysis: vacuously (True,
        # None) at k = 0, else from the eigenvectors U of C on the kernel
        # band, whether B leaks or not, and whether ker C comes first (C
        # PSD) or is the middle column of an indefinite C.  ``kept`` is
        # (B vanishes on ker C, a C-gauge exists).
        if kind == "c_indefinite":
            P = MatrixParabola(np.eye(3), np.zeros((3, 3)), np.diag([-1.0, 0.0, 1.0]))
        else:
            P = self.parabola(kind)
        analysis = charpoly.ParabolaAnalysis(P)
        assert {"_b_vanishes_on_kernel", "_frames"} <= set(vars(analysis))
        assert (analysis._b_vanishes_on_kernel, analysis.c_gauge is not None) == kept
        if kind == "k0":
            assert analysis._frames is None
            return
        E, R, Y = analysis._frames
        U = analysis.c_eig.vectors[:, analysis.kernel]
        np.testing.assert_allclose(symmat.congruence(P.A, E), np.eye(1), atol=1e-12)
        np.testing.assert_allclose(U.T @ P.A @ Y, np.zeros((1, 2)), atol=1e-12 * symmat.max_norm(P.A))
        if kind == "c_indefinite":  # ker C is the middle column: a_frame reads the mask
            np.testing.assert_array_equal(np.abs(U[:, 0]), [0.0, 1.0, 0.0])
            np.testing.assert_allclose(symmat.congruence(P.A, analysis.a_frame), np.eye(3), atol=1e-12)

    def test_frames_of_an_indefinite_constant_block(self):
        # K = diag(-1, 2) is nonsingular but indefinite: the moving frame
        # Y is still A-orthogonal to ker C, but there is no E, so neither
        # the C-gauge nor a_frame exists, and reduce_degenerate still
        # splits K off.  A singular K leaves no frames at all.
        A = np.diag([-1.0, 2.0, 1.0])
        A[:2, 2] = A[2, :2] = 0.5
        P = MatrixParabola(A, np.zeros((3, 3)), np.diag([0.0, 0.0, 1.0]))
        analysis = charpoly.ParabolaAnalysis(P)
        E, R, Y = analysis._frames
        assert E is None and analysis.c_gauge is None and analysis.a_frame is None
        np.testing.assert_allclose(analysis.c_eig.vectors[:, :2].T @ A @ Y, np.zeros((2, 1)), atol=1e-15)
        red = reduce_degenerate(P)
        np.testing.assert_allclose(red.constant_block, A[:2, :2], atol=1e-15)
        np.testing.assert_allclose(red.reduced.A, [[1.125]], atol=1e-15)  # 1 - (1/4)(-1 + 1/2)
        A[1, 1] = 0.0
        assert charpoly.ParabolaAnalysis(MatrixParabola(A, P.B, P.C))._frames is None

    def test_realize_forms_no_svd_or_inverse(self, monkeypatch):
        P, calls = self.parabola("k1"), []

        def recorded(name, function):
            def call(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return call

        for name in ("svd", "inv"):
            monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
        monkeypatch.setattr(symmat, "singular_values", recorded("svd", symmat.singular_values))
        monkeypatch.setattr(classify, "build", recorded("build", classify.build))
        M = realize(P, 2 * P.dim + 2)
        assert calls[: calls.index("build")] == []
        assert char_polynomial(M).close_to(P, 1e-12)


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

    def test_signature_kept_under_wide_shifts(self):
        # Members at orders 5 and 8 under X^T Q(alpha s + beta) X with
        # beta up to +-500: A = Q(beta) grows like beta^2 and its
        # condition number with it, while C, which the membership gauge
        # is taken from, does not move under the shift.  An A^{-1/2}
        # gauge misread seeds 1 and 35 (r = 2 for r = 1, and a rejection).
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = (5, 8)[seed % 2]
            P = char_polynomial(random_manifold(rng, m=m))
            unimodular = rng.random() < 0.5
            X = random_unimodular(rng, m, ops=12) if unimodular else random_real_invertible(rng, m)
            alpha, beta = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-500.0, 500.0)
            Q = apply_certificate(P, EquivalenceCertificate(X, alpha, beta))
            assert is_characteristic(Q, 2 * m + 2) == is_characteristic(P, 2 * m + 2)

    def test_ill_conditioned_a_member(self):
        # An order-8 member under a real map with alpha = 0.331 and
        # beta = -28.1, where cond(A) = 4.9e8: an A^{-1/2} gauge rounds
        # zero eigenvalues of G to -1.7e-13 against a band of 1.4e-13 and
        # rejects it.
        rng = np.random.default_rng(75)
        P = char_polynomial(random_manifold(rng, m=8))
        rng.random()
        X = random_real_invertible(rng, 8)
        alpha, beta = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-50.0, 50.0)
        Q = apply_certificate(P, EquivalenceCertificate(X, alpha, beta))
        assert np.linalg.cond(Q.A) > 1e8
        assert is_characteristic(Q, 18) == is_characteristic(P, 18) == (True, Signature(18, 8, 2, 0))

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
        # s -> alpha s scales C by alpha^2 and mu by alpha: members keep
        # their signature (a small C is no elliptic point), and
        # killed-eigenvector non-members (the clusters of mu scale with
        # them) and non-members whose B does not vanish on ker C (B U is
        # read relative to max|B|) stay rejected.
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

    @pytest.mark.parametrize("top", [1e306, 1e307, 1e308])
    def test_largest_finite_c_decides_like_its_small_multiple(self, top):
        # m max|C| bounds the eigenvalues of C.  At max|entry| = 1e308 it
        # passes the float maximum (C's top eigenvalue, about 2.2e308,
        # came back inf and the member was rejected), so C is decomposed
        # as 2^-e C with e even and W rescaled by the exact 2^(-e/2); up
        # to 1e307 the decomposition is that of C itself, bit for bit.
        rng = np.random.default_rng(3)
        random_manifold(rng, m=3, r=1, k=1)
        M = random_manifold(rng, m=5, r=2, k=2)
        P = char_polynomial(M)
        Q = MatrixParabola(*(P.coeffs * (top / np.abs(P.coeffs).max())))
        verdict = is_characteristic(Q, M.n)
        assert verdict == is_characteristic(P, M.n) == (True, Signature(M.n, 5, 2, 2))
        analysis = verdict.analysis
        assert np.isfinite(analysis.c_eig.values).all()
        if 5 * float(np.abs(Q.C).max()) <= np.finfo(float).max:
            np.testing.assert_array_equal(analysis.c_eig.values, np.linalg.eigh(Q.C)[0])
        g = analysis.c_gauge
        np.testing.assert_allclose(symmat.congruence(Q.C, g.F), np.eye(3), atol=1e-9)

    def test_largest_finite_a_decides_like_the_member(self):
        # Draws of a seeded scan of members with k <= 2 at max|entry| =
        # 1.7e308: the constant block K = U^T A U and E^T A V_c overflowed
        # (46 and 268) or read r = 2 for r = 1 (61), and Y^T A Y in the
        # frame Z^T A Z = I overflowed in schur_condition and realize (12).
        # A is decomposed as 2^-e A and the frames rescaled by 2^(-e/2).
        rng = np.random.default_rng(11)
        members = []
        for _ in range(269):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(0, min(m, 3))) if m > 1 else 0
            r = int(rng.integers(1, m - k + 1))
            members.append(char_polynomial(random_manifold(rng, m=m, r=r, k=k, zero_eigs=0)))
        for draw in (12, 46, 61, 268):
            P = members[draw]
            Q = MatrixParabola(*(P.coeffs * (1.7e308 / np.abs(P.coeffs).max())))
            n = 2 * P.dim + 2
            verdict = is_characteristic(Q, n)
            assert verdict == is_characteristic(P, n)
            ok, sig = verdict
            assert ok and sig.k >= 1
            Z = verdict.analysis.a_frame
            np.testing.assert_allclose(symmat.congruence(Q.A, Z), np.eye(P.dim), atol=1e-9)
            assert (schur_condition(Q).psd, schur_condition(Q).rank) == (True, sig.r)
            assert char_polynomial(realize(Q, n)).close_to(Q, 1e-8)

    def test_rank_bookkeeping(self, rng):
        for _ in range(40):
            k = int(rng.integers(0, 2))
            M = random_manifold(rng, m=3, r=1, k=k)
            P = char_polynomial(M)
            sig = signature_of(M)
            band = 1e-8 * (1.0 + np.max(np.abs(P.C)))
            assert P.dim - sig.k == np.sum(np.abs(np.linalg.eigvalsh(P.C)) > band)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9])
    @pytest.mark.parametrize(
        "view",
        [
            lambda P, tol: is_characteristic(P, 6, tol),
            check_positive_all_s,
            schur_condition,
            lambda P, tol: reduce_degenerate(MatrixParabola(P.A, P.B, np.diag([1.0, 0.0])), tol),
        ],
        ids=["is_characteristic", "check_positive_all_s", "schur_condition", "reduce_degenerate"],
    )
    def test_non_finite_tol_rejected(self, view, tol):
        # A member, so no verdict may come back silently at a NaN or
        # negative band.
        P = MatrixParabola([[2.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)), I2)
        with pytest.raises(NonFiniteInput):
            view(P, tol)

    @pytest.mark.parametrize("n", [4.5, 6.0, "6", None])
    def test_non_integral_n_rejected(self, n):
        P = MatrixParabola([[2.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)), I2)
        with pytest.raises(SignatureInconsistent):
            is_characteristic(P, n)

    def test_numpy_integer_n_accepted(self):
        P = MatrixParabola([[2.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)), I2)
        ok, sig = is_characteristic(P, np.int64(6))
        assert ok and sig.as_tuple() == (6, 2, 2, 0)
        assert type(sig.n) is int

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
    def test_full_rank_builds_no_empty_reduction(self, monkeypatch, rng):
        # Neither membership, realize nor reduce_degenerate (which raises
        # NotDegenerate) asks for the empty reduction X = I.
        def built(*args):
            raise AssertionError("empty reduction built")

        monkeypatch.setattr(charpoly, "ReductionResult", built)
        P = random_characteristic_parabola(rng, m=3)
        verdict = is_characteristic(P, 2 * P.dim + 2)
        assert verdict[0]
        assert char_polynomial(realize(P, 2 * P.dim + 2)).close_to(P, 1e-8)
        with pytest.raises(NotDegenerate):
            reduce_degenerate(P)

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

    def test_singular_constant_block_rejected(self):
        # ker C = span(e1) with K = U^T A U = 0: no congruence splits it
        # off (an SVD complement of U^T A = (0, 1) is e1 itself, so
        # X = [e1 | e1] was singular).
        P = MatrixParabola([[0.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)), np.diag([0.0, 1.0]))
        with pytest.raises(InvalidCharacteristic, match="constant block"):
            reduce_degenerate(P)
        assert is_characteristic(P, 6) == (False, None)

    def test_off_diagonal_block_checked(self):
        # The safety check on a hand-built T = X^T [A, B, C] X: a block
        # that must vanish is measured against tol * max|S| of its own
        # coefficient S, and the first coefficient over its band is named.
        P = MatrixParabola(4.0 * np.eye(3), np.diag([0.0, 1.0, -1.0]), np.diag([0.0, 2.0, 2.0]))
        T = P.coeffs.copy()
        charpoly._verify_reduction(P, T, 1, 1e-9)
        for which, (i, j) in [(0, (0, 1)), (1, (0, 2)), (1, (0, 0)), (2, (0, 1)), (2, (0, 0))]:
            for multiple, raised in ((0.9, False), (1.1, True)):
                bad = T.copy()
                bad[which, i, j] = bad[which, j, i] = multiple * 1e-9 * P.scales[which]
                if raised:
                    with pytest.raises(InvalidCharacteristic, match=f"block-diagonal in {'ABC'[which]}$"):
                        charpoly._verify_reduction(P, bad, 1, 1e-9)
                else:
                    charpoly._verify_reduction(P, bad, 1, 1e-9)

    def test_members_at_the_float_maximum(self):
        # wide_degenerate_member draws at max|entry| = 1.7e308, all
        # accepted by is_characteristic.  X = [U | Y] has columns of
        # squared norm up to about 300, so X^T S X is formed and verified
        # in units of 2^e and scaled back exactly: the reduction comes
        # back where its coefficients fit the float range (44 of 200) and
        # NonFiniteInput says they do not (156).  Formed at scale, 90
        # raised "not block-diagonal", 64 NonFiniteInput, and 161 warned
        # of an overflow.
        returned = 0
        for seed in range(200):
            P, _ = wide_degenerate_member(seed)
            factor = 1.7e308 / np.abs(P.coeffs).max()
            Q = MatrixParabola(*(P.coeffs * factor))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert is_characteristic(Q, 2 * P.dim + 2)[0]
                try:
                    red = reduce_degenerate(Q)
                except NonFiniteInput as exc:
                    assert "float range" in str(exc)
                    continue
            returned += 1
            k = red.constant_block.shape[0]
            T = np.zeros_like(P.coeffs)
            T[0, :k, :k], T[:, k:, k:] = red.constant_block, red.reduced.coeffs
            want = symmat.congruence(P.coeffs, red.X)
            np.testing.assert_allclose(T / factor, want, rtol=0.0, atol=1e-9 * np.abs(want).max())
        assert 0 < returned < 200

    def test_b_on_ker_c_is_read_by_column_norm(self):
        # ker C = span(e4), A = I and B e4 = 0.9e-9 (1, 1, 1, 0): each
        # entry of B U passes the band tol * max|B| = 1e-9, but the
        # column's 2-norm, 0.9e-9 sqrt(3) = 1.56e-9, does not.  The
        # decision and the reduction read the one column-norm rule.
        B = np.diag([1.0, 0.0, -1.0, 0.0])
        C = np.diag([4.0, 4.0, 4.0, 0.0])
        member = MatrixParabola(np.eye(4), B, C)
        assert is_characteristic(member, 10) == (True, Signature(10, 4, 3, 1))
        assert reduce_degenerate(member).constant_block.shape == (1, 1)
        B[:3, 3] = B[3, :3] = 0.9e-9
        leaking = MatrixParabola(np.eye(4), B, C)
        with pytest.raises(InvalidCharacteristic, match="B does not vanish on ker C"):
            reduce_degenerate(leaking)
        assert is_characteristic(leaking, 10) == (False, None)
        assert charpoly.ParabolaAnalysis(leaking).c_gauge is None

    def test_one_rule_for_b_on_ker_c(self):
        # A leak of 0.3-3 x the band tol * max|B| along a kernel vector u:
        # reduce_degenerate raises exactly where the decision's rule
        # (_b_vanishes_on_kernel) says B leaks.  Unperturbed, X is a
        # congruence (|det X| = 1, as X = [U | V] times a unit upper
        # triangle), K is positive definite, and the reduced parabola is
        # a member at n - k with the Schur rank P is read with.
        raised = 0
        for seed in range(400):
            P, _ = wide_degenerate_member(seed)
            n = 2 * P.dim + 2
            ok, sig = is_characteristic(P, n)
            assert ok
            red = reduce_degenerate(P)
            k = red.constant_block.shape[0]
            assert k == sig.k
            assert abs(np.linalg.det(red.X)) == pytest.approx(1.0, rel=1e-6)
            assert symmat.is_pd(red.constant_block)
            assert is_characteristic(red.reduced, n - k) == (True, Signature(n - k, P.dim - k, sig.r, 0))
            rng = np.random.default_rng(10_000 + seed)
            u, x = red.X[:, 0], rng.standard_normal(P.dim)
            leak = rng.uniform(0.3, 3.0) * 1e-9 * P.scales[1] / np.linalg.norm(x)
            Q = MatrixParabola(P.A, P.B + leak * (np.outer(u, x) + np.outer(x, u)), P.C)
            try:
                reduce_degenerate(Q)
            except InvalidCharacteristic:
                raised += 1
                assert not charpoly.ParabolaAnalysis(Q)._b_vanishes_on_kernel
            else:
                assert charpoly.ParabolaAnalysis(Q)._b_vanishes_on_kernel
        assert 0 < raised < 400


def _assembled(K, moving, X):
    """The parabola X^T blockdiag(K, Q_moving(s)) X, with ``moving`` the
    (3, m - k, m - k) coefficient stack of the moving part."""
    k, m = K.shape[0], K.shape[0] + moving.shape[1]
    T = np.zeros((3, m, m))
    T[0, :k, :k] = K
    T[:, k:, k:] = moving
    return MatrixParabola(*symmat.congruence(T, X))


class TestConstantDirectionsAgainstReduction:
    """The decision splits ker C off inside the C-gauge; an SVD
    reduction formed here is the independent reference: B U must vanish
    entrywise, then a definite constant block, then the moving part's
    verdict at n - k, with k added back to its signature."""

    @staticmethod
    def svd_reduction(P, tol=symmat.DEFAULT_TOL):
        """(K, reduced parabola) from X = [U | V], U the eigenvectors of C
        within tol * max|C| and V an orthonormal basis of
        {w : U^T A w = 0} from an SVD of U^T A; None where B U does not
        vanish at tol * max|B| or X^T Q(s) X is not block-diagonal."""
        values, vectors = np.linalg.eigh(P.C)
        U = vectors[:, np.abs(values) <= tol * symmat.max_norm(P.C)]
        if symmat.max_norm(P.B @ U) > tol * symmat.max_norm(P.B):
            return None
        k = U.shape[1]
        T = symmat.congruence(P.coeffs, np.hstack([U, np.linalg.svd(U.T @ P.A)[2][k:].T]))
        try:
            charpoly._verify_reduction(P, T, k, tol)
        except InvalidCharacteristic:
            return None
        return T[0, :k, :k], MatrixParabola(*T[:, k:, k:])

    @classmethod
    def through_reduction(cls, P, n):
        if (red := cls.svd_reduction(P)) is None:
            return False, None
        K, reduced = red
        k = K.shape[0]
        if not symmat.sym_eig(K).values[0] > symmat.DEFAULT_TOL * symmat.max_norm(K):
            return False, None
        ok, sig = is_characteristic(reduced, n - k)
        if not ok or sig.k:
            return False, None
        return True, Signature(n, P.dim, sig.r, k)

    @staticmethod
    def wide_map(rng, P):
        m = P.dim
        cert = EquivalenceCertificate(random_real_invertible(rng, m), 10.0 ** rng.uniform(-3.0, 3.0),
                                      rng.uniform(-500.0, 500.0))
        return apply_certificate(P, cert)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_members_under_wide_maps(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(12):
            k = int(rng.integers(1, m))
            r = int(rng.integers(1, m - k + 1))
            Q = self.wide_map(rng, char_polynomial(random_manifold(rng, m=m, r=r, k=k)))
            n = 2 * m + 2
            verdict = is_characteristic(Q, n)
            assert verdict == self.through_reduction(Q, n)
            assert verdict == (True, Signature(n, m, r, k))
            assert char_polynomial(realize(Q, n)).close_to(Q, 1e-8)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_non_members_of_every_constant_direction_kind(self, m):
        # B leaking on ker C, an indefinite constant block, and a moving
        # part with a killed eigenvector, each under a wide map.
        rng = np.random.default_rng(200 + m)
        n = 2 * m + 2
        for _ in range(4):
            D = char_polynomial(random_manifold(rng, m=m, r=1, k=1))
            u, x = np.linalg.eigh(D.C)[1][:, 0], rng.standard_normal(m)  # C is PSD: its kernel comes first
            leaking = MatrixParabola(D.A, D.B + 1e-2 * (np.outer(u, x) + np.outer(x, u)), D.C)
            red = reduce_degenerate(D)
            indefinite = _assembled(-red.constant_block, red.reduced.coeffs, np.linalg.inv(red.X))
            kinds = [leaking, indefinite]
            if m > 2:
                killed = char_polynomial(unvalidated_manifold(*random_violating_arrays(rng, m=m - 1)))
                kinds.append(_assembled(np.eye(1), killed.coeffs, random_real_invertible(rng, m)))
            for P in kinds:
                Q = self.wide_map(rng, P)
                assert is_characteristic(Q, n) == self.through_reduction(Q, n) == (False, None)


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

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_one_stack(self, rng, m):
        # The triple is held once: A, B and C are the rows of ``coeffs``,
        # each bit for bit the 2-D symmetrization of its input.
        raw = rng.standard_normal((3, m, m))
        P = MatrixParabola(*raw)
        assert P.coeffs.shape == (3, m, m)
        for row, coeff, given in zip(P.coeffs, (P.A, P.B, P.C), raw):
            assert np.shares_memory(coeff, P.coeffs)
            np.testing.assert_array_equal(coeff, row)
            np.testing.assert_array_equal(coeff, symmat.symmetrize(given))

    @pytest.mark.parametrize(
        "coeffs",
        [
            (np.ones(2), np.ones(2), np.ones(2)),  # 1-D
            (np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3))),  # non-square
            (np.eye(2), np.eye(2), np.eye(3)),  # mixed orders
        ],
        ids=["1-D", "non-square", "mixed-order"],
    )
    def test_shape_rejected(self, coeffs):
        with pytest.raises(DimensionMismatch):
            MatrixParabola(*coeffs)

    @pytest.mark.parametrize("which", range(3))
    def test_non_finite_names_the_coefficient(self, which):
        coeffs = [np.eye(2), np.zeros((2, 2)), np.eye(2)]
        coeffs[which][1, 0] = np.nan
        coeffs[2][0, 1] = np.inf
        with pytest.raises(NonFiniteInput, match=f"^{'ABC'[which]} "):
            MatrixParabola(*coeffs)


class TestOneStackValidation:
    """MatrixParabola validates in one pass: one conversion of the
    triple, one sum of squares as the finiteness check (the entries are
    tested only when it is not finite), one reduction of the symmetrized
    stack for ``scales``; the error path keeps the exception types and
    messages of the checks it replaces."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", range(3))
    def test_non_finite_names_the_coefficient(self, which, bad):
        coeffs = [np.eye(2), np.zeros((2, 2)), np.eye(2)]
        coeffs[which][1, 1] = bad
        with pytest.raises(NonFiniteInput, match=f"^{'ABC'[which]} has non-finite entries$"):
            MatrixParabola(*coeffs)

    def test_opposite_infinities_name_a(self):
        # inf/2 + (-inf)/2 would be NaN in the symmetrized stack, and the
        # sum would warn (an error in this suite): still A, quietly.
        A = np.eye(2)
        A[0, 1], A[1, 0] = np.inf, -np.inf
        with pytest.raises(NonFiniteInput, match="^A has non-finite entries$"):
            MatrixParabola(A, np.zeros((2, 2)), np.eye(2))

    def test_non_finite_beside_entries_whose_squares_overflow(self):
        # The sum of squares is inf for 1e200 as well; the entries decide.
        with pytest.raises(NonFiniteInput, match="^C has non-finite entries$"):
            MatrixParabola(1e200 * np.eye(2), np.zeros((2, 2)), np.diag([1.0, np.nan]))

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_largest_finite_entries_accepted(self, rng, m):
        # Halving before adding keeps every symmetrized entry finite.
        raw = 1.7e308 * rng.choice([-1.0, 1.0], size=(3, m, m))
        P = MatrixParabola(*raw)
        assert all(type(s) is float and np.isfinite(s) for s in P.scales)
        assert P.scales == tuple(symmat.max_norm(S) for S in symmat.symmetrize(raw))
        assert P.dim == m and type(P.dim) is int

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ((np.zeros((2, 3)),) * 3, "A must be square 2-D, got shape (2, 3)"),
            ((np.ones(2),) * 3, "A must be square 2-D, got shape (2,)"),
            ((np.eye(2), np.ones(2), np.eye(2)), "coefficient shapes differ: (2, 2), (2,), (2, 2)"),
            ((np.eye(2), np.eye(2), np.eye(3)), "coefficient shapes differ: (2, 2), (2, 2), (3, 3)"),
            ((np.eye(3), np.eye(2), np.eye(2)), "coefficient shapes differ: (3, 3), (2, 2), (2, 2)"),
        ],
        ids=["non-square", "1-D", "1-D B", "ragged C", "ragged A"],
    )
    def test_shape_messages(self, coeffs, message):
        with pytest.raises(DimensionMismatch) as caught:
            MatrixParabola(*coeffs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("which", range(3))
    def test_non_numeric_entries_keep_value_error(self, which):
        coeffs = [np.eye(2).tolist() for _ in range(3)]
        coeffs[which][0][1] = "x"
        with pytest.raises(ValueError, match="could not convert string to float") as caught:
            MatrixParabola(*coeffs)
        assert not isinstance(caught.value, DimensionMismatch)

    def test_ragged_rows_keep_value_error(self):
        with pytest.raises(ValueError, match="inhomogeneous") as caught:
            MatrixParabola([[1.0, 0.0], [0.0]], np.eye(2), np.eye(2))
        assert not isinstance(caught.value, DimensionMismatch)

    def test_order_zero(self):
        P = MatrixParabola(*np.zeros((3, 0, 0)))
        assert P.scales == (0.0, 0.0, 0.0) and P.dim == 0 and P.coeff_scale() == 0.0

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_scales_are_the_coefficient_max_norms(self, rng, m):
        P = MatrixParabola(*(rng.standard_normal((3, m, m)) * [[[1.0]], [[1e-3]], [[1e3]]]))
        assert P.scales == tuple(symmat.max_norm(S) for S in (P.A, P.B, P.C))
        assert all(type(s) is float for s in P.scales)
        assert P.coeff_scale() == symmat.max_norm(P.coeffs)
