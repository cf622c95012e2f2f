"""Radial scattering problem on the model spaces and Q-curvature extraction.

The generalised eigenvalue problem  -Lap_+ u - s(n-s) u = 0  reduces on a
rotationally symmetric model to the singular ODE

    u'' + n coth(tau) u' + s(n-s) u = 0        (interior, tau = t - t0)

with the regular (even) solution normalised by u(0) = 1, and to

    r^2 u'' + (1-n) r u' + n r^2 (phi'/phi) u' + s(n-s) u = 0   (boundary)

in the normal-form coordinate r, which has a regular singular point at r = 0
with indicial roots n-s and s.  Both Frobenius branches are even power series
in r converging on r < 2/sqrt(k); the interior solution is a combination
u = c1 U1 + c2 U2 and the scattering value is S(s)1 = c2/c1 once both
branches carry unit leading coefficient.  The Q-curvature follows from the
d_gamma normalisation:  Q = (2/(n-2 gamma)) d_gamma c2/c1.

Extraction scheme (validated against the closed-form sphere oracle): the
regular solution is u = 2F1(s/2, (n-s)/2; (n+1)/2; -sinh^2 tau), summed
after the Pfaff transformation (DLMF 15.8.1) as the centre series

    u  = cosh(tau)^{-s} sum_j t_j x^j,                      x = tanh^2 tau,
    u' = -(n-s) tanh(tau) cosh(tau)^{-s} sum_j t_j (s+2j)/(n+1+2j) x^j,

    t_0 = 1,  t_{j+1}/t_j = (s/2+j)((s+1)/2+j) / (((n+1)/2+j)(1+j)).

Every term is positive, so neither sum cancels at any n, and both converge on
the whole interior.  The two Frobenius branches, summed until their last term
is below machine epsilon on r <= r(ln 8), are connected to u in value and
tau derivative at the single point tau_m = 3, where the column-equilibrated
2x2 system stays well conditioned (below 5e4 for n <= 40); a second connection
at tau = 2.5 gives the reported consistency gap, or nan where that
diagnostic connection fails its own guards.  Derivatives are always
transported analytically (dr/dtau = -r); second derivatives come from the
ODE closure, never from finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable

import numpy as np

from .special_fn import QCurvParams, d_gamma

TAU0 = 1e-3                   # inner edge of the radial grids; coth is never evaluated below
TAU_BRANCH = math.log(8.0)    # the branch series serve tau >= ln 8, i.e. r <= 0.25/sqrt(k)
TAU_MATCH = 3.0               # connection point of the centre series and the branches
TAU_CHECK = 2.5               # second connection, for the consistency gap
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)      # smallest normal float
_COND_MAX = 1e12
_BRANCH_MAX_ORDER = 400
_TABLE_POINTS = 9


class ResonanceError(ValueError):
    """An indicial factor vanished in the Frobenius recursion."""


class MatchingError(RuntimeError):
    """Branch matching failed (conditioning, truncation or a degenerate solution)."""


# ---------------------------------------------------------------------------
# Frobenius branches at the boundary
# ---------------------------------------------------------------------------

def _frobenius_terms(n, s, k, mu):
    """Yield a_0 = 1, a_2, a_4, ... of the branch r^mu (sum a_{2j} r^{2j}).

    Generic in the number type: Fraction inputs stay exact, floats stay
    floats.  Recursion (P(x) = (x - s)(x - (n - s))):

        P(mu + 2M) a_{2M} = (n k / 2) S_M,
        S_M = sum_{m<M} (k/4)^{M-1-m} (mu + 2m) a_{2m} = (k/4) S_{M-1} + (mu + 2M - 2) a_{2M-2}

    A vanishing indicial factor raises ResonanceError when that step is
    reached (for the eigenvalue instance s = n+1 this happens at 2M = n+2
    when n is even).
    """
    exact = any(isinstance(x, Fraction) for x in (k, mu, s))
    a = Fraction(1) if exact else 1.0
    yield a
    acc = a * mu
    M = 1
    while True:
        x = mu + 2 * M
        P = (x - s) * (x - (n - s))
        if P == 0:
            raise ResonanceError(
                f"indicial factor vanishes at step 2M={2 * M} (mu={mu}, s={s}, n={n})"
            )
        a = (n * k / 2) * acc / P
        yield a
        acc = acc * (k / 4)
        acc += a * (mu + 2 * M)
        M += 1


def frobenius_coefficients(n, s, k, mu, order: int):
    """Even branch coefficients a_0=1, a_2, ... a_{2*order} of r^mu (sum a_{2j} r^{2j})."""
    return list(islice(_frobenius_terms(n, s, k, mu), order + 1))


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j c_j x^j for the short branch series."""
    acc = np.zeros_like(x)
    for cj in c[::-1]:
        acc = acc * x + cj
    return acc


@dataclass
class FrobeniusBranch:
    """One branch r^mu (1 + a2 r^2 + ...) with float evaluation helpers."""

    n: int
    s: float
    k: float
    mu: float
    coeffs: list
    _c: np.ndarray = field(init=False, repr=False, compare=False)    # float a_{2j}
    _dc: np.ndarray = field(init=False, repr=False, compare=False)   # (mu + 2j) a_{2j}
    _rc: np.ndarray = field(init=False, repr=False, compare=False)   # 2j a_{2j}

    def __post_init__(self):
        j = np.arange(len(self.coeffs), dtype=float)
        self._c = np.array([float(c) for c in self.coeffs])
        self._dc = (self.mu + 2.0 * j) * self._c
        self._rc = 2.0 * j * self._c

    def series(self, r):
        """The even factor sum a_{2j} r^{2j} (without the r^mu prefactor)."""
        r = np.asarray(r, dtype=float)
        return _horner(self._c, r * r)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return r ** self.mu * self.series(r)

    def derivative(self, r):
        """d/dr of the branch."""
        r = np.asarray(r, dtype=float)
        return r ** (self.mu - 1.0) * _horner(self._dc, r * r)

    def r_series_derivative(self, r):
        """r d/dr of the even series factor, sum 2j a_{2j} r^{2j}."""
        r = np.asarray(r, dtype=float)
        return _horner(self._rc, r * r)

    def truncation_estimate(self, r) -> float:
        """Magnitude of the last kept term relative to the series value."""
        last = abs(self._c[-1]) * float(r) ** (2 * (len(self._c) - 1))
        return last / max(abs(float(self.series(r))), 1e-300)

    def recursion_residual(self) -> float:
        """Max re-substitution defect of the coefficients, relative."""
        worst = 0.0
        cs = self.coeffs
        for M in range(1, len(cs)):
            x = self.mu + 2 * M
            P = (x - self.s) * (x - (self.n - self.s))
            acc = cs[0] * self.mu
            for m in range(1, M):
                acc = acc * (self.k / 4)
                acc += cs[m] * (self.mu + 2 * m)
            lhs = float(P * cs[M])
            rhs = float(self.n * self.k / 2 * acc)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        return worst


def frobenius_branch(p: QCurvParams, mu: float) -> FrobeniusBranch:
    """Branch for validated parameters; mu must be one of the indicial roots.

    The series is summed until its last term is below machine epsilon
    relative to the sum at r(TAU_BRANCH) = 0.25/sqrt(k), the largest radius
    at which the branches are evaluated.
    """
    if not (math.isclose(mu, p.s) or math.isclose(mu, p.n - p.s)):
        raise ValueError(f"mu={mu} is not an indicial root (s={p.s}, n-s={p.n - p.s})")
    r2 = (2.0 / math.sqrt(p.k) * math.exp(-TAU_BRANCH)) ** 2
    coeffs, total = [], 0.0
    for M, a in enumerate(_frobenius_terms(p.n, p.s, p.k, mu)):
        coeffs.append(a)
        term = abs(a) * r2 ** M
        total += term
        if M >= 1 and term <= _EPS * total:
            break
        if M == _BRANCH_MAX_ORDER:
            raise MatchingError(
                f"Frobenius series (mu={mu}) not converged after {M} terms at r(ln 8)")
    return FrobeniusBranch(n=p.n, s=p.s, k=p.k, mu=mu, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Interior solution
# ---------------------------------------------------------------------------

class CentreSeries:
    """u and u' of the regular interior solution from its series in x = tanh^2 tau.

    The coefficients t_j and t_j (s+2j)/(n+1+2j) are kept up to the order
    that sums the series to machine precision at tau_max.  A call sums only
    the terms its largest x needs, as a blocked product: with j = B q + r,
    sum_j c_j x^j = sum_q x^{Bq} (sum_r c_{Bq+r} x^r), so the temporaries
    are (points x sqrt(terms)) rather than (points x terms).
    """

    def __init__(self, n: int, s: float, tau_max: float):
        self.n, self.s = n, s
        x_max = math.tanh(tau_max) ** 2
        size = 256
        while True:
            j = np.arange(size, dtype=float)
            ratio = (s / 2.0 + j) * ((s + 1.0) / 2.0 + j) / (((n + 1.0) / 2.0 + j) * (1.0 + j))
            t = np.concatenate(([1.0], np.cumprod(ratio[:-1])))
            terms = self._terms_needed(ratio, t, x_max)
            if terms is not None:
                break
            size *= 2
        self.ratio = ratio[:terms]
        self.t = t[:terms]
        self.dt = self.t * (s + 2.0 * j[:terms]) / (n + 1.0 + 2.0 * j[:terms])

    @staticmethod
    def _terms_needed(ratio, t, x: float) -> int | None:
        """Fewest terms whose tail is below eps times the partial sum at x.

        With T_j = t_j x^j, the tail after term j is at most
        T_j rho/(1-rho), rho = max(r_j, 1) x: the ratios r_j = t_{j+1}/t_j
        decrease while above 1 and stay below 1 once they drop under it.
        """
        T = t * np.power(x, np.arange(len(t), dtype=float))
        rho = np.maximum(ratio, 1.0) * x
        ok = (rho < 1.0) & (T * rho <= _EPS * np.cumsum(T) * (1.0 - rho))
        hits = np.flatnonzero(ok)
        return int(hits[0]) + 1 if hits.size else None

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        x = np.tanh(tau) ** 2
        J = self._terms_needed(self.ratio, self.t, float(np.max(x))) or len(self.t)
        B = math.isqrt(J - 1) + 1
        Q = -(-J // B)
        coef = np.zeros((2, Q * B))
        coef[0, :J] = self.t[:J]
        coef[1, :J] = self.dt[:J]
        low = np.power.outer(x, np.arange(B, dtype=float))                # x^r
        high = np.power.outer(x, B * np.arange(Q, dtype=float))           # x^{Bq}
        blocks = (low @ coef.reshape(2 * Q, B).T).reshape(len(x), 2, Q)
        sums = np.einsum("pkq,pq->kp", blocks, high)
        sech_s = np.cosh(tau) ** -self.s
        return sech_s * sums[0], -(self.n - self.s) * np.tanh(tau) * sech_s * sums[1]


@dataclass
class RadialProfile:
    """Regular radial solution in closed form: u and u' at any tau.

    `evaluate` is dense on [0, tau_max]; tau, u and du tabulate the profile
    on a coarse grid (checked for positivity by the geometry builders).  The
    second derivative is never finite-differenced; it is supplied by the ODE
    closure u'' = -n coth(tau) u' - lam u.
    """

    n: int
    s: float
    lam: float
    tau: np.ndarray
    u: np.ndarray
    du: np.ndarray
    tau_max: float
    values: Callable = field(repr=False)     # tau array -> (u, u')
    tau0: float = TAU0

    def evaluate(self, tau):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        if np.any(tau > self.tau_max * (1 + 1e-12)):
            raise ValueError(f"tau beyond profile horizon {self.tau_max}")
        return self.values(tau)

    def u_dd(self, tau, u, du):
        """ODE closure for the second derivative."""
        return -self.n / np.tanh(tau) * du - self.lam * u


def _tabulated(n: int, s: float, values: Callable, tau_max: float,
               table_max: float) -> RadialProfile:
    tau = np.linspace(0.0, table_max, _TABLE_POINTS)
    u, du = values(tau)
    return RadialProfile(n=n, s=s, lam=s * (n - s), tau=tau, u=u, du=du,
                         tau_max=tau_max, values=values)


def solve_interior(p: QCurvParams) -> RadialProfile:
    """The regular interior solution (u(0) = 1) as its centre series on [0, TAU_MATCH]."""
    return _tabulated(p.n, p.s, CentreSeries(p.n, p.s, TAU_MATCH), TAU_MATCH, TAU_MATCH)


# ---------------------------------------------------------------------------
# Matching and Q extraction
# ---------------------------------------------------------------------------

@dataclass
class ScatteringResult:
    """Matched branch data and the extracted Q-curvature."""

    params: QCurvParams
    c1: float
    c2: float
    scattering_value: float          # c2/c1 = S(s) 1
    q_value: float                   # (2/(n-2 gamma)) d_gamma c2/c1
    condition_estimate: float        # of the column-equilibrated system
    consistency_gap: float           # relative Q change, tau_m = 3 vs 2.5 (nan if 2.5 fails)
    T_match: float                   # connection point tau_m
    r_match: float
    order: int                       # highest branch series order
    branch_low: FrobeniusBranch = field(repr=False)   # mu = n-s
    branch_high: FrobeniusBranch = field(repr=False)  # mu = s


def _connect(profile: RadialProfile, p: QCurvParams, b1: FrobeniusBranch,
             b2: FrobeniusBranch, tau: float):
    """Solve the value/derivative system at tau; returns (c1, c2, cond, r).

    The columns are equilibrated before the condition number is taken, so
    the guard measures the conditioning of the connection, not the r^{n-s}
    and r^s scales of the branches.
    """
    r = (2.0 / math.sqrt(p.k)) * math.exp(-tau)
    trunc = max(b1.truncation_estimate(r), b2.truncation_estimate(r))
    if not trunc <= 1e-8:
        raise MatchingError(f"Frobenius truncation {trunc:.2e} too large at r={r:.2e}")
    u, du = profile.evaluate(tau)
    # a subnormal r^mu or u keeps only a few digits, which no condition
    # number sees: at n ~ 550 it gave Q off by 80% at condition 6e2
    if not (r ** max(b1.mu, b2.mu) >= _TINY and min(abs(u[0]), abs(du[0])) >= _TINY):
        raise MatchingError(f"branch or interior values underflow at tau={tau}")
    # tau derivative of a branch: d/dtau = -r d/dr
    m = np.array([
        [float(b1.value(r)), float(b2.value(r))],
        [-r * float(b1.derivative(r)), -r * float(b2.derivative(r))],
    ])
    scale = np.max(np.abs(m), axis=0)
    if not (np.all(np.isfinite(m)) and np.all(scale > 0.0)):
        raise MatchingError(f"branch values not representable at r={r:.2e}")
    m = m / scale
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(np.linalg.cond(m))
    if not cond <= _COND_MAX:
        raise MatchingError(f"matching system condition {cond:.2e} above {_COND_MAX:.0e}")
    c1, c2 = (float(c) for c in np.linalg.solve(m, [u[0], du[0]]) / scale)
    if not (c1 != 0.0 and math.isfinite(c1) and math.isfinite(c2)):
        raise MatchingError(f"degenerate connection: c1={c1}, c2={c2}")
    return c1, c2, cond, r


def _q_of(p: QCurvParams, c1: float, c2: float) -> float:
    return (2.0 / (p.n - 2.0 * p.gamma)) * d_gamma(p.gamma) * (c2 / c1)


def match_and_q(profile: RadialProfile, p: QCurvParams) -> ScatteringResult:
    """Extract c1, c2 and Q by two-branch matching at tau = TAU_MATCH."""
    b1 = frobenius_branch(p, p.n - p.s)
    b2 = frobenius_branch(p, p.s)
    c1, c2, cond, r = _connect(profile, p, b1, b2, TAU_MATCH)
    q = _q_of(p, c1, c2)
    # the check connection is a diagnostic only: where it cannot be made,
    # the gap is reported as nan and the tau_m = 3 result stands
    try:
        q_check = _q_of(p, *_connect(profile, p, b1, b2, TAU_CHECK)[:2])
    except MatchingError:
        q_check = math.nan
    return ScatteringResult(
        params=p, c1=c1, c2=c2, scattering_value=c2 / c1, q_value=q,
        condition_estimate=cond,
        consistency_gap=abs(q - q_check) / max(abs(q), 1e-300),
        T_match=TAU_MATCH, r_match=r,
        order=max(len(b1.coeffs), len(b2.coeffs)) - 1,
        branch_low=b1, branch_high=b2,
    )


def solve_case(p: QCurvParams):
    """Full pipeline: centre series plus the branch connection at TAU_MATCH."""
    profile = solve_interior(p)
    return profile, match_and_q(profile, p)


# ---------------------------------------------------------------------------
# Exact eigenfunction of the Lee compactification
# ---------------------------------------------------------------------------

def lee_potential_exact(m) -> RadialProfile:
    """The positive eigenfunction V with -Lap_+ V + (n+1) V = 0, r V -> 1.

    On the models V = f'(t) exactly: f''' = f' and n (f'/f) f'' = n f', so
    Lap_+ V = (n+1) V, while r f' = 1 + k r^2/4 -> 1.  Returned as a
    closed-form RadialProfile for the eigenvalue instance s = n+1
    (lam = -(n+1)), V = sqrt(k) cosh(tau).
    """
    from .model_geometry import ModelSpace

    if not isinstance(m, ModelSpace):
        raise TypeError("lee_potential_exact expects a ModelSpace")
    sk = math.sqrt(m.k)

    def values(tau):
        return sk * np.cosh(tau), sk * np.sinh(tau)

    return _tabulated(m.n, float(m.n + 1), values, math.inf, 20.0)
