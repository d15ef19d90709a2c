"""The canonical Minkowski frame and its distinguished subspaces.

Coordinates z_1..z_n carry the Lorentzian form

    ell(z, z) = 2 z_n z_{n-1} - z_1^2 - ... - z_{n-2}^2,

so the two null basis vectors are v0 = e_{n-1} and v1 = e_n with
ell(v0, v1) = 1.  The frame splits the negative-definite part
N = span(e_1..e_{n-2}) into T (first m coordinates), R (next r) and a
Euclidean factor E (the rest); L = R v0 and W = {z_n = 0} = L-orthogonal
hyperplane.  Only this one frame is supported: any admissible pair of
null vectors can be moved into it, so callers normalize first.

Vectors are plain length-n ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SignatureInconsistent
from .symmat import DEFAULT_TOL, max_norm


@dataclass(frozen=True)
class LorentzFrame:
    """Ambient dimension n with the T/R split (dim T = m, dim R = r)."""

    n: int
    m: int
    r: int

    def __post_init__(self):
        if self.m < 1 or self.r < 0:
            raise SignatureInconsistent(f"need m >= 1 and r >= 0, got m={self.m}, r={self.r}")
        if self.m + self.r + 2 > self.n:
            raise SignatureInconsistent(
                f"m + r + 2 = {self.m + self.r + 2} exceeds n = {self.n}"
            )

    @property
    def dim_euclidean(self):
        return self.n - self.m - self.r - 2

    @property
    def v0(self):
        v = np.zeros(self.n)
        v[self.n - 2] = 1.0
        return v

    @property
    def v1(self):
        v = np.zeros(self.n)
        v[self.n - 1] = 1.0
        return v

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise DimensionMismatch(f"expected a vector of length {self.n}, got shape {v.shape}")
        return v

    def ell(self, u, v):
        """The Lorentzian form in canonical coordinates."""
        u = self._check(u)
        v = self._check(v)
        cross = u[-1] * v[-2] + u[-2] * v[-1]
        return float(cross - np.dot(u[: self.n - 2], v[: self.n - 2]))

    def l0(self, v):
        """ell(v0, v); the affine parameter of the hyperplane through v."""
        return float(self._check(v)[-1])

    def in_cone(self, v, tol=DEFAULT_TOL):
        """Membership in the chosen closed cone nappe.

        Requires ell(v, v) >= -tol * max|v|^2 together with the
        orientation functional z_{n-1} + z_n >= 0, which is positive on
        the open nappe containing both v0 and v1.
        """
        v = self._check(v)
        return bool(self.ell(v, v) >= -tol * max_norm(v) ** 2 and v[-2] + v[-1] >= 0.0)

    def proj_N(self, v):
        """Orthogonal projection onto N: zero the last two coordinates."""
        v = self._check(v).copy()
        v[-2] = 0.0
        v[-1] = 0.0
        return v

    def embed_N(self, t_part, r_part=None):
        """Assemble a vector of N from its T- and R-components."""
        t_part = np.asarray(t_part, dtype=float)
        if t_part.shape != (self.m,):
            raise DimensionMismatch(f"T-component must have length {self.m}, got {t_part.shape}")
        v = np.zeros(self.n)
        v[: self.m] = t_part
        if r_part is not None:
            r_part = np.asarray(r_part, dtype=float)
            if r_part.shape != (self.r,):
                raise DimensionMismatch(f"R-component must have length {self.r}, got {r_part.shape}")
            v[self.m : self.m + self.r] = r_part
        return v
