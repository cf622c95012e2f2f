"""Rotationally symmetric conformally compact Einstein model spaces.

Hyperbolic space H^{n+1} written as a warped product over a round sphere:

    g_+ = dt^2 + f(t)^2 ghat,      f(t) = (e^t - k e^{-t}) / 2,

where ghat is the round metric with Ric = (n-1) k ghat (a sphere of radius
k^{-1/2}).  The warp vanishes at the centre t0 = (1/2) ln k; in the shifted
coordinate tau = t - t0 one has f = sqrt(k) sinh(tau) and f'/f = coth(tau)
independently of k.  The geodesic normal defining function is r = 2 e^{-t}
(so r f -> 1 at the boundary), which puts the metric in the normal form

    g_+ = r^{-2} (dr^2 + phi(r)^2 ghat),      phi(r) = 1 - k r^2 / 4,

on 0 < r < 2/sqrt(k).  The boundary representative lives entirely in k; the
r-normalisation is fixed once and pinned by the r f -> 1 invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special_fn import check_k


@dataclass(frozen=True)
class ModelSpace:
    """Hyperbolic model with round-sphere conformal infinity of parameter k,
    within `check_k`'s range."""

    n: int
    k: float
    t0: float = field(init=False)
    r_center: float = field(init=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError(f"n must be an integer >= 3, got {self.n}")
        check_k(self.n, self.k)
        object.__setattr__(self, "t0", 0.5 * math.log(self.k))
        object.__setattr__(self, "r_center", 2.0 / math.sqrt(self.k))

    # -- warp in the centred coordinate tau = t - t0 --------------------------
    def f_tau(self, tau):
        return math.sqrt(self.k) * np.sinh(tau)

    def df_tau(self, tau):
        """f' = sqrt(k) cosh(tau), also the Lee eigenfunction V:
        Lap_+ V = (n+1) V and r V = 1 + k r^2/4 -> 1."""
        return math.sqrt(self.k) * np.cosh(tau)

    # -- coordinate maps ------------------------------------------------------
    def tau_of_r(self, r):
        return np.log(2.0 / (math.sqrt(self.k) * r))

    def phi(self, r):
        return 1.0 - self.k * r * r / 4.0

    def dphi(self, r):
        return -self.k * r / 2.0


def mean_curvature_exact(m: ModelSpace, r):
    """Mean curvature of the level set {r = const} with respect to g_+.

    H_r = n (1 - r phi'/phi) = n f'/f, expanding as
    n + J r^2 + (1/2)|A|^2 r^4 + O(r^6) with J = nk/2, |A|^2 = n k^2/4.
    r may be a number, a list or an array; the first radius outside
    (0, 2/sqrt(k)) is refused.
    """
    radii = np.asarray(r)
    outside = ~((0.0 < radii) & (radii < m.r_center))
    if outside.any():
        raise ValueError(f"r={radii[outside].flat[0]} outside (0, {m.r_center})")
    return m.n * (1.0 - radii * m.dphi(radii) / m.phi(radii))
