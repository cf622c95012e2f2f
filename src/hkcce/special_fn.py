"""Gamma-function utilities and the closed-form constants of the fractional
Q-curvature problem.

The renormalisation constant d_gamma = 2^{2g} Gamma(g)/Gamma(-g) turns the
scattering matrix S(s) of an asymptotically hyperbolic Einstein space into the
fractional GJMS operator P_{2g} = d_g S(n/2 + g), and Q_{2g} is
2/(n - 2g) P_{2g}(1).  On hyperbolic space with a round sphere of radius
k^{-1/2} at infinity, P_{2g} acts on constants as the gamma ratio
Gamma(n/2+g)/Gamma(n/2-g); `sphere_q_value` is that closed form, the
independent oracle for the series connection.  It and the sphere volume are
formed through math.lgamma, so they stay finite where a Gamma factor alone
overflows (from n = 284 on).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Admissible fractional order.  The expansion coefficient u2 of the scattering
# solution carries 1/(1 - gamma), so a neighbourhood of gamma = 1 is excluded
# instead of implementing resonance log branches; the lower cut keeps the
# boundary-layer exponent 2 gamma of the radial integrals away from zero.
GAMMA_MIN = 0.05
GAMMA_MAX = 0.95

# Admissible boundary scale.  The branch coefficients grow like k^j for
# j up to about n/4 + 10 terms, and the reports scale like k^{-(n/2+1)}, so
# far from k = 1 they leave the double range.  k is accepted at dimension n
# when |log10 k| (n/2 + 10) <= K_DECADES.  A scan over n = 3..150 and gamma
# in {0.05, 0.5, 0.95} found Q and every adapted, hk-cla and hk-lee verdict
# correct at every decade inside this range and beyond its edge at each n.
K_DECADES = 200.0

_LD = np.longdouble           # 80-bit extended on x86; plain double elsewhere
# Stirling series of ln Gamma(z): B_{2m} / (2m (2m-1)) z^{1-2m}, m = 1..6,
# summed at z = _SHIFT -/+ g, where the seventh term is below 1e-21
_STIRLING_POWERS = 1 - 2 * np.arange(1, 7)          # 1 - 2m
_STIRLING = (np.array([1, -1, 1, -1, 1, -691], dtype=_LD)
             / np.array([12, 360, 1260, 1680, 1188, 360360], dtype=_LD))
_SHIFT = 32
_SHIFTED = np.arange(1, _SHIFT, dtype=_LD)           # the i < N of the recurrence


def _gamma_ratio_ext(g: float):
    """Gamma(1+g)/Gamma(1-g) in np.longdouble, for 0 <= g < 1.

    The recurrence lifts both arguments to N +/- g, N = _SHIFT,

        Gamma(1+g)/Gamma(1-g) = prod_{i<N} (i-g)/(i+g) * Gamma(N+g)/Gamma(N-g),

    and the last ratio is the Stirling series of ln Gamma(N+g) - ln Gamma(N-g),
    with ln(N+g) - ln(N-g) = 2 atanh(g/N) so that nothing of size N ln N cancels.
    """
    g = _LD(g)
    zp, zm = _SHIFT + g, _SHIFT - g
    diff = ((2 * _SHIFT - 1) * np.arctanh(g / _SHIFT) + g * np.log(zp * zm) - 2 * g
            + np.sum(_STIRLING * (zp ** _STIRLING_POWERS - zm ** _STIRLING_POWERS)))
    return np.prod((_SHIFTED - g) / (_SHIFTED + g)) * np.exp(diff)


@functools.lru_cache(maxsize=1)
def d_gamma_ext(gamma: float):
    """d_gamma in np.longdouble: -4^g Gamma(1+g)/Gamma(1-g).

    No reflection is needed, so no sin(pi g) loses digits near g = 1.  The
    last gamma's value is kept: one case asks for it 4 times for hk-adapted
    plus defect-adapted, 3 times for a sweep row and 2 times for a residuals
    row, and computes it once.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"d_gamma requires gamma in (0,1), got {gamma}")
    return -np.exp2(2 * _LD(gamma)) * _gamma_ratio_ext(gamma)


def d_gamma(gamma: float) -> float:
    """Renormalisation constant 2^{2g} Gamma(g)/Gamma(-g); negative on (0,1).

    Rounded once from `d_gamma_ext`, so within half an ulp where np.longdouble
    is the 80-bit type.
    """
    return float(d_gamma_ext(gamma))


def hk_constant(n: int, gamma: float) -> float:
    """Sharp constant C(n,g) of the fractional Heintze-Karcher inequality.

    C(n,g) = (n+2g)^2 / (4g(n+1)) * (-4g/d_g)^{(1-g)/g}; equals n+1 at g=1/2.
    """
    if n < 3 or not 0.0 < gamma < 1.0:
        raise ValueError(f"hk_constant requires n >= 3, gamma in (0,1); got n={n}, gamma={gamma}")
    base = -4.0 * gamma / d_gamma(gamma)
    return (n + 2.0 * gamma) ** 2 / (4.0 * gamma * (n + 1.0)) * base ** ((1.0 - gamma) / gamma)


def sphere_q_value(n: int, gamma: float, k: float = 1.0) -> float:
    """Fractional Q-curvature of the round sphere of radius k^{-1/2}.

    Closed form k^g * 2/(n-2g) * Gamma(n/2+g)/Gamma(n/2-g), the scattering
    value of hyperbolic space.  The Gamma ratio is formed through lgamma, so
    it stays finite where each factor overflows (n >= 284).  Unvalidated
    arguments.
    """
    ratio = math.exp(math.lgamma(n / 2.0 + gamma) - math.lgamma(n / 2.0 - gamma))
    return k ** gamma * (2.0 / (n - 2.0 * gamma)) * ratio


def check_k(n: int, k: float) -> None:
    """Refuse a boundary scale k that is not positive and finite, or whose
    powers the solve cannot represent at dimension n (see K_DECADES)."""
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    decades = K_DECADES / (n / 2.0 + 10.0)
    if abs(math.log10(k)) > decades:
        raise ValueError(
            f"k={k} out of range at n={n}: |log10 k| must not exceed "
            f"{K_DECADES:g}/(n/2 + 10) = {decades:.3g}")


@dataclass(frozen=True)
class QCurvParams:
    """Parameters of one scattering problem.

    n      boundary dimension (n >= 3)
    gamma  fractional order in [GAMMA_MIN, GAMMA_MAX]
    k      boundary Einstein constant: Ric = (n-1) k on the representative,
           i.e. a round sphere of radius k^{-1/2}; within `check_k`'s range
    s      spectral parameter n/2 + gamma (derived)
    """

    n: int
    gamma: float
    k: float
    s: float = field(init=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError(f"n must be an integer >= 3, got {self.n}")
        if not (GAMMA_MIN <= self.gamma <= GAMMA_MAX):
            raise ValueError(
                f"gamma={self.gamma} outside [{GAMMA_MIN}, {GAMMA_MAX}] (resonance guard)"
            )
        check_k(self.n, self.k)
        object.__setattr__(self, "s", self.n / 2.0 + self.gamma)


def sphere_volume(n: int) -> float:
    """Volume of the unit n-sphere, 2 pi^h / Gamma(h) with h = (n+1)/2.

    Formed as 2 exp(h ln pi - lgamma(h)), finite where Gamma(h) overflows;
    the volume itself is subnormal from n ~ 436 and underflows to 0 beyond.
    """
    if n < 1:
        raise ValueError("sphere_volume requires n >= 1")
    h = (n + 1) / 2.0
    return 2.0 * math.exp(h * math.log(math.pi) - math.lgamma(h))
