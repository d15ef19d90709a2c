"""Canonical frame: form values, cone membership, projections."""

import numpy as np
import pytest

from causalcurves import LorentzFrame
from causalcurves.errors import DimensionMismatch, SignatureInconsistent


def e(n, i):
    v = np.zeros(n)
    v[i - 1] = 1.0
    return v


@pytest.fixture
def frame4():
    return LorentzFrame(4, 1, 1)


class TestForm:
    def test_null_pairing(self, frame4):
        assert frame4.ell(e(4, 3), e(4, 4)) == 1.0

    def test_spacelike_direction(self, frame4):
        assert frame4.ell(e(4, 1), e(4, 1)) == -1.0

    def test_timelike_combination(self, frame4):
        u = np.array([0.0, 0.0, 1.0, 1.0])
        assert frame4.ell(u, u) == 2.0

    def test_normalization_each_frame(self):
        for n, m, r in [(4, 1, 1), (5, 2, 1), (7, 2, 1), (9, 4, 2)]:
            f = LorentzFrame(n, m, r)
            assert f.ell(f.v0, f.v0) == 0.0
            assert f.ell(f.v1, f.v1) == 0.0
            assert f.ell(f.v0, f.v1) == 1.0

    def test_dim_mismatch(self, frame4):
        with pytest.raises(DimensionMismatch):
            frame4.ell(np.zeros(4), np.zeros(5))


class TestL0:
    def test_on_v1(self, frame4):
        assert frame4.l0(frame4.v1) == 1.0

    def test_on_v0(self, frame4):
        assert frame4.l0(frame4.v0) == 0.0

    def test_linearity(self, frame4):
        assert frame4.l0(3.0 * frame4.v1 + e(4, 1)) == 3.0


class TestCone:
    def test_v0_on_boundary(self, frame4):
        assert frame4.in_cone(frame4.v0)

    def test_opposite_nappe(self, frame4):
        assert not frame4.in_cone(-frame4.v0)

    def test_spacelike_outside(self, frame4):
        assert not frame4.in_cone(e(4, 1))

    def test_hyperplane_meets_cone_only_along_null_line(self, rng):
        # Vectors of W with nonzero N-part are spacelike, so neither they
        # nor their negatives lie in the cone.
        f = LorentzFrame(6, 2, 1)
        for _ in range(100):
            w = np.zeros(6)
            while np.linalg.norm(w[:4]) < 1e-3:
                w[:4] = rng.standard_normal(4)
            w[4] = rng.standard_normal()  # v0-component is free
            assert not f.in_cone(w)
            assert not f.in_cone(-w)


class TestProjection:
    def test_fixes_n(self, frame4):
        np.testing.assert_array_equal(frame4.proj_N(e(4, 1)), e(4, 1))

    def test_kills_v0(self, frame4):
        np.testing.assert_array_equal(frame4.proj_N(frame4.v0), np.zeros(4))

    def test_coordinate_deletion(self):
        f = LorentzFrame(5, 2, 1)
        np.testing.assert_array_equal(f.proj_N(f.v1 + e(5, 2)), e(5, 2))

    def test_embed_n(self):
        f = LorentzFrame(5, 2, 1)
        np.testing.assert_array_equal(f.embed_N([1.0, 2.0], [3.0]), [1.0, 2.0, 3.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="T-component must have length 2"):
            f.embed_N(np.zeros(3))
        with pytest.raises(DimensionMismatch, match="R-component must have length 1"):
            f.embed_N(np.zeros(2), np.zeros(2))

    def test_idempotent_and_orthogonal(self, rng):
        f = LorentzFrame(7, 3, 1)
        for _ in range(100):
            v = rng.standard_normal(7)
            p = f.proj_N(v)
            np.testing.assert_array_equal(f.proj_N(p), p)
            w = np.zeros(7)
            w[:5] = rng.standard_normal(5)
            assert abs(f.ell(v - p, w)) < 1e-12

    def test_negative_definite_on_n(self, rng):
        f = LorentzFrame(6, 2, 2)
        for _ in range(100):
            w = np.zeros(6)
            while np.linalg.norm(w[:4]) < 1e-3:
                w[:4] = rng.standard_normal(4)
            assert f.ell(w, w) < 0.0


class TestFrameValidation:
    def test_rejects_small_dimension(self):
        # m + r + 2 <= n with m >= 1 is the only floor: n = 3 holds (3, 1, 0).
        assert LorentzFrame(3, 1, 0).dim_euclidean == 0
        with pytest.raises(SignatureInconsistent):
            LorentzFrame(2, 1, 0)

    def test_rejects_overfull_split(self):
        with pytest.raises(SignatureInconsistent):
            LorentzFrame(4, 2, 1)

    def test_euclidean_dim(self):
        assert LorentzFrame(7, 2, 1).dim_euclidean == 2
