"""Affine action machinery: building data, group laws, recovery."""

import sys

import numpy as np
import pytest

from causalcurves import (
    FreenessViolated,
    InconsistentHolonomy,
    LorentzFrame,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficientR,
    SignatureInconsistent,
    ZeroParameter,
    a_vector,
    build,
    check_free,
    euclidean_factor_dim,
    example_4d,
    example_5d,
    gamma_apply,
    lambda_of,
    recover_a_from_holonomy,
    signature_of,
    tau_of,
)
from causalcurves import symmat
from conftest import (
    random_free_arrays,
    random_manifold,
    random_violating_arrays,
    rounding_asymmetric,
    unvalidated_manifold,
)


def cone_vector(rng, frame):
    """Random vector of the closed cone, away from the fixed line."""
    u = np.zeros(frame.n)
    u[: frame.n - 2] = rng.standard_normal(frame.n - 2)
    norm2 = float(u @ u)
    a = rng.uniform(0.5, 2.0)
    b = (norm2 / (2.0 * a)) * rng.uniform(1.0, 2.0) + 0.1
    return u + a * frame.v1 + b * frame.v0


class TestBuild:
    def test_dim4_inputs(self):
        M = build(4, [[0.0]], [[1.0]], [[1.0]])
        assert signature_of(M).as_tuple() == (4, 1, 1, 0)

    def test_dim5_inputs(self):
        M = build(5, np.diag([0.0, 1.0]), [[1.0, 1.0]], np.eye(2))
        assert signature_of(M).as_tuple() == (5, 2, 1, 0)

    def test_freeness_violation(self):
        # The eigenvalue-1 eigenspace of diag(1,1) contains e2, which the
        # transverse row [1, 0] kills.
        with pytest.raises(FreenessViolated) as info:
            build(5, np.diag([1.0, 1.0]), [[1.0, 0.0]], np.eye(2))
        assert info.value.eigenvalue == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            build(5, [[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0]], np.eye(2))

    def test_rejects_overfull_frame(self):
        with pytest.raises(SignatureInconsistent):
            build(4, np.diag([0.0, 1.0]), [[1.0, 1.0]], np.eye(2))

    def test_rejects_non_integral_dimension(self):
        with pytest.raises(SignatureInconsistent):
            build(5.5, [[0.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]], np.eye(2))

    def test_numpy_integer_dimension_becomes_int(self):
        M = build(np.int64(5), [[0.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]], np.eye(2))
        assert type(M.n) is int and type(signature_of(M).n) is int

    def test_rejects_rank_deficient_transverse(self):
        with pytest.raises(RankDeficientR):
            build(6, np.zeros((2, 2)), [[1.0, 0.0], [2.0, 0.0]], np.eye(2))

    def test_rejects_singular_lattice(self):
        with pytest.raises(NotPositiveDefinite):
            build(5, np.diag([0.0, 1.0]), [[1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]])

    def test_elliptic_accepted(self):
        M = build(5, np.zeros((2, 2)), np.zeros((0, 2)), np.eye(2))
        assert M.elliptic
        assert signature_of(M).as_tuple() == (5, 2, 0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["a_prime", "a_dblprime", "lattice"])
    def test_rejects_non_finite(self, field, bad):
        data = {
            "a_prime": np.diag([0.0, 1.0]),
            "a_dblprime": np.array([[1.0, 1.0]]),
            "lattice": np.eye(2),
        }
        data[field][0, 0] = bad
        with pytest.raises(NonFiniteInput):
            build(5, **data)


    def test_singular_values_through_the_one_kernel(self, monkeypatch, rng):
        # The lattice and a'' tests of build, the freeness test and
        # signature_of read symmat.singular_values, which gives numpy's
        # values bit for bit; numpy's svd wrapper is not called.
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd called")

        callers, singular_values = [], symmat.singular_values

        def counting(X):
            callers.append(sys._getframe(1).f_code.co_name)
            return singular_values(X)

        M = random_manifold(rng, m=3, r=2)
        monkeypatch.setattr(np.linalg, "svd", refused)
        monkeypatch.setattr(symmat, "singular_values", counting)
        build(M.n, M.a_prime, M.a_dblprime, M.lattice)
        assert callers[:2] == ["build", "build"] and callers[-1] == "signature_of"
        assert set(callers[2:-1]) == {"_freeness_violation"}
        with pytest.raises(FreenessViolated):
            build(5, np.diag([1.0, 1.0]), [[1.0, 0.0]], np.eye(2))


class TestExamples:
    def test_dim4_signature(self):
        assert signature_of(example_4d()).as_tuple() == (4, 1, 1, 0)

    def test_dim5_signature(self):
        assert signature_of(example_5d(1, 1)).as_tuple() == (5, 2, 1, 0)

    def test_dim5_zero_parameter(self):
        with pytest.raises(ZeroParameter):
            example_5d(1, 0)
        with pytest.raises(ZeroParameter):
            example_5d(0, 2)


class TestLambdaTau:
    def test_lambda_at_zero_is_identity(self):
        M = example_5d(1, 1)
        np.testing.assert_allclose(lambda_of(M, np.zeros(2)), np.eye(5), atol=1e-14)

    def test_dim4_generator_matrix(self):
        # Canonical coordinates: T = e1, R = e2, v0 = e3, v1 = e4.
        M = example_4d()
        lam = lambda_of(M, np.array([1.0]))
        e = np.eye(4)
        np.testing.assert_allclose(lam @ e[0], e[0], atol=1e-14)
        np.testing.assert_allclose(lam @ e[1], e[1] + e[2], atol=1e-14)
        np.testing.assert_allclose(lam @ e[2], e[2], atol=1e-14)
        np.testing.assert_allclose(lam @ e[3], e[3] + e[1] + 0.5 * e[2], atol=1e-14)

    def test_lambda_fixes_v0(self, rng):
        for _ in range(100):
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            np.testing.assert_allclose(
                lambda_of(M, x) @ M.frame.v0, M.frame.v0, atol=1e-12
            )

    def test_tau_at_zero(self):
        M = example_5d(1, 1)
        np.testing.assert_allclose(tau_of(M, np.zeros(2)), np.zeros(5), atol=1e-14)

    def test_tau_dim4(self):
        M = example_4d()
        np.testing.assert_allclose(tau_of(M, np.array([1.0])), np.eye(4)[0], atol=1e-14)

    def test_tau_dim5(self):
        # ell(a e2, e2) = -1, so tau picks up half of v0.
        M = example_5d(1, 1)
        expected = np.zeros(5)
        expected[1] = 1.0
        expected[3] = 0.5
        np.testing.assert_allclose(tau_of(M, np.array([0.0, 1.0])), expected, atol=1e-14)


class TestGroupLaws:
    def test_gamma_at_zero(self, rng):
        M = example_5d(1, 1)
        v = rng.standard_normal(5)
        np.testing.assert_allclose(gamma_apply(M, np.zeros(2), v), v, atol=1e-14)

    def test_gamma_of_origin_is_tau(self):
        M = example_4d()
        np.testing.assert_allclose(
            gamma_apply(M, np.array([1.0]), np.zeros(4)), np.eye(4)[0], atol=1e-14
        )

    def test_cocycle(self, rng):
        for _ in range(100):
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            y = rng.standard_normal(M.m)
            v = rng.standard_normal(M.n)
            left = gamma_apply(M, x, gamma_apply(M, y, v))
            right = gamma_apply(M, x + y, v)
            np.testing.assert_allclose(left, right, atol=1e-9 * (1 + np.max(np.abs(right))))

    def test_preserves_form(self, rng):
        for _ in range(100):
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            u = rng.standard_normal(M.n)
            v = rng.standard_normal(M.n)
            lam = lambda_of(M, x)
            before = M.frame.ell(u, v)
            after = M.frame.ell(lam @ u, lam @ v)
            assert abs(after - before) <= 1e-9 * (1.0 + abs(before))

    def test_unipotent_of_order_three(self, rng):
        for _ in range(100):
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            nil = lambda_of(M, x) - np.eye(M.n)
            cube = nil @ nil @ nil
            assert np.max(np.abs(cube)) <= 1e-9 * (1.0 + np.max(np.abs(nil)) ** 3)

    def test_hyperplanes_invariant(self, rng):
        for _ in range(100):
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            v = rng.standard_normal(M.n)
            assert abs(M.frame.l0(gamma_apply(M, x, v)) - M.frame.l0(v)) <= 1e-10 * (
                1.0 + abs(M.frame.l0(v))
            )

    def test_translations_modulo_fixed_line(self, rng):
        for _ in range(100):
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            v = rng.standard_normal(M.n)
            diff = gamma_apply(M, x, v) - v
            expected = M.frame.embed_N(x) + M.frame.l0(v) * a_vector(M, x)
            np.testing.assert_allclose(
                diff[: M.n - 2],
                expected[: M.n - 2],
                atol=1e-9 * (1.0 + np.max(np.abs(expected))),
            )

    def test_ell_symmetry_of_structure_map(self, rng):
        for _ in range(100):
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            y = rng.standard_normal(M.m)
            lhs = M.frame.ell(a_vector(M, x), M.frame.embed_N(y))
            rhs = M.frame.ell(M.frame.embed_N(x), a_vector(M, y))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    def test_cone_fixed_points_only_on_null_line(self, rng):
        count = 0
        while count < 100:
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            if np.linalg.norm(a_vector(M, x)) < 1e-6:
                continue
            v = cone_vector(rng, M.frame)
            assert M.frame.in_cone(v)
            moved = lambda_of(M, x) @ v
            assert np.linalg.norm(moved - v) > 1e-8
            count += 1

    def test_orbit_projection_injective(self, rng):
        for _ in range(100):
            M = random_manifold(rng)
            x = rng.standard_normal(M.m)
            y = rng.standard_normal(M.m)
            if np.linalg.norm(x - y) < 1e-3:
                continue
            v = rng.standard_normal(M.n)
            diff = gamma_apply(M, x, v) - gamma_apply(M, y, v)
            # Quotient by the fixed line: drop the v0 coordinate.
            mod_l = np.delete(diff, M.n - 2)
            assert np.linalg.norm(mod_l) > 1e-6 * np.linalg.norm(x - y)


class TestFreeness:
    def test_dim4_free(self):
        assert check_free(example_4d())

    def test_violating_pair(self):
        M = unvalidated_manifold(np.diag([1.0, 1.0]), np.array([[1.0, 0.0]]))
        assert not check_free(M)

    def test_zero_self_adjoint_part_is_free(self, rng):
        for m, r in [(1, 1), (2, 1), (3, 2)]:
            a_dbl = rng.standard_normal((r, m))
            M = unvalidated_manifold(np.zeros((m, m)), a_dbl)
            assert check_free(M)

    def test_randomized_violations_detected(self, rng):
        for _ in range(50):
            a_prime, a_dbl = random_violating_arrays(rng)
            M = unvalidated_manifold(a_prime, a_dbl)
            assert not check_free(M)

    def test_rounding_asymmetry_reads_as_its_symmetrized_copy(self, monkeypatch, rng):
        # Direct ManifoldData is not symmetrized; check_free symmetrizes
        # a' once, so the eigen kernel sees the same bits either way.
        seen = []
        sym_eig = symmat.sym_eig
        monkeypatch.setattr(symmat, "sym_eig", lambda S: seen.append(S.copy()) or sym_eig(S))
        for draw in (random_free_arrays, random_violating_arrays) * 5:
            arrays = draw(rng, m=3)
            a_prime = rounding_asymmetric(arrays[0])
            seen.clear()
            verdicts = [check_free(unvalidated_manifold(a, arrays[1])) for a in (a_prime, symmat.symmetrize(a_prime))]
            assert verdicts[0] == verdicts[1]
            np.testing.assert_array_equal(seen[0], seen[1])


class TestSignature:
    def test_padding_column_adds_kernel_dimension(self):
        a_prime = np.diag([0.0, 1.0, 0.0])
        a_dbl = np.array([[1.0, 1.0, 0.0]])
        M = build(6, a_prime, a_dbl, np.eye(3))
        assert signature_of(M).as_tuple() == (6, 3, 1, 1)

    def test_inequalities_enforced(self):
        with pytest.raises(SignatureInconsistent):
            from causalcurves import Signature

            Signature(5, 2, 2, 1)

    @pytest.mark.parametrize("field", range(4))
    def test_entries_must_be_integers(self, field):
        from causalcurves import Signature

        entries = [6, 2, 1, 1]
        with pytest.raises(SignatureInconsistent):
            Signature(*entries[:field], entries[field] + 0.5, *entries[field + 1:])
        entries[field] = np.int64(entries[field])
        assert all(type(value) is int for value in Signature(*entries).as_tuple())

    def test_euclidean_factor(self, rng):
        assert euclidean_factor_dim(example_4d()) == 0
        assert euclidean_factor_dim(example_5d(1, 1)) == 0
        M = random_manifold(rng, m=2, r=1, extra_dim=2)
        assert euclidean_factor_dim(M) == 2


class TestHolonomyRecovery:
    def test_dim4(self):
        M = example_4d()
        lam = [lambda_of(M, np.array([1.0]))]
        a_prime, a_dbl = recover_a_from_holonomy(M.frame, lam)
        np.testing.assert_allclose(a_prime, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(a_dbl, [[1.0]], atol=1e-12)

    def test_identity_gives_elliptic(self):
        frame = LorentzFrame(5, 2, 1)
        a_prime, a_dbl = recover_a_from_holonomy(frame, [np.eye(5), np.eye(5)])
        np.testing.assert_allclose(a_prime, np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(a_dbl, np.zeros((1, 2)), atol=1e-14)

    def test_dim5_parameters(self):
        M = example_5d(2, 3)
        lams = [lambda_of(M, e) for e in np.eye(2)]
        a_prime, a_dbl = recover_a_from_holonomy(M.frame, lams)
        np.testing.assert_allclose(a_prime, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(a_dbl, [[2.0, 3.0]], atol=1e-12)

    def test_round_trip_random(self, rng):
        for _ in range(50):
            M = random_manifold(rng)
            lams = [lambda_of(M, e) for e in np.eye(M.m)]
            a_prime, a_dbl = recover_a_from_holonomy(M.frame, lams)
            np.testing.assert_allclose(a_prime, M.a_prime, atol=1e-10)
            np.testing.assert_allclose(a_dbl, M.a_dblprime, atol=1e-10)

    def test_rejects_moved_v0(self):
        frame = LorentzFrame(4, 1, 1)
        bad = np.eye(4)
        bad[2, 2] = 2.0  # scales v0
        with pytest.raises(InconsistentHolonomy):
            recover_a_from_holonomy(frame, [bad])
