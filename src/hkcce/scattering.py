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
diagnostic connection fails its own guards.  The series coefficients, the
four connection values, the 2x2 solve and d_gamma are carried in
np.longdouble, so that Q is rounded to double only once.  Derivatives are
always transported analytically (dr/dtau = -r); second derivatives come
from the ODE closure, never from finite differences.

The centre series does not depend on k: in tau all of k sits in the
branches, through r = (2/sqrt(k)) e^{-tau}.  Nor do the quadrature nodes it
is summed at: the radial integrals use one nested double-exponential
lattice (`de_lattice`) whose step and upper end are fixed, and the boundary
decay rate only moves its lower end, far beyond TAU_MATCH.  So the series is
summed once per (n, gamma) at the lattice's 155 nodes with tau <= TAU_MATCH,
which become the profile's table, and at the two connection points; every k
and every integral shares them.  `solve_interior` keeps the last interior
and `solve_case` the last case, one entry each.

The Lee eigenfunction of the eigenvalue instance s = n+1 needs no solve: it
is V = f' = sqrt(k) cosh(tau) (`ModelSpace.df_tau`), and its boundary
branch r V = 1 + k r^2/4 terminates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .special_fn import QCurvParams, d_gamma_ext

TAU_BRANCH = math.log(8.0)    # the branch series are summed for tau >= ln 8, r <= 0.25/sqrt(k)
TAU_MATCH = 3.0               # connection point of the centre series and the branches
TAU_CHECK = 2.5               # second connection, for the consistency gap
_EPS = float(np.finfo(float).eps)
_LD = np.longdouble           # 80-bit extended on x86; plain double elsewhere
_TINY = float(np.finfo(float).tiny)      # smallest normal float
_COND_MAX = 1e12
_BRANCH_MAX_ORDER = 400
_X_GROUPS = (0.5, 0.9, 0.97)  # x = tanh^2 tau bounds of the centre-series batches


def _s_ext(n: int, gamma: float):
    """s = n/2 + gamma in np.longdouble, where it is exact.

    The double QCurvParams.s is rounded, so a connection made with it solves
    for gamma' = s - n/2, while Q pairs c2/c1 with d_gamma(gamma): the slope
    of d_gamma near gamma = 1 turns the rounding into 4e-15 relative at 0.95.
    """
    return _LD(n) / 2 + _LD(gamma)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, no longer writable: the memoised results are shared between callers."""
    a.setflags(write=False)
    return a


class ResonanceError(ValueError):
    """An indicial factor vanished in the Frobenius recursion."""


class MatchingError(RuntimeError):
    """Branch matching failed (conditioning, truncation or a degenerate solution)."""


# ---------------------------------------------------------------------------
# Quadrature lattice
# ---------------------------------------------------------------------------

DE_STEP = 1.0 / 16.0        # coarse step h; the nodes of h/2 nest those of h
DE_T_MAX = 4.0              # tau(4) = 6e-38: the integrands vanish like tau^n below it


def de_lattice(tau_max: float):
    """Nodes of the nested double-exponential rule on (0, inf), at step h/2.

    tau = log(1 + e^z), z = -pi sinh t maps t in R onto (0, inf)
    (Takahasi & Mori, Publ. RIMS 9 (1974) 721-741).  The nodes are
    t = i h/2 for the integers i from the first one whose tau exceeds tau_max
    up to t = DE_T_MAX, in ascending t and so in descending tau.  tau_max moves
    only the lower end: the nodes with tau <= tau_max are the same for every
    larger tau_max.  Returns (i, t, z, tau).
    """
    half = 0.5 * DE_STEP
    t_min = -math.asinh(tau_max / math.pi)
    i = np.arange(math.floor(t_min / half), round(DE_T_MAX / half) + 1)
    t = i * half
    z = -math.pi * np.sinh(t)
    return i, t, z, np.logaddexp(0.0, z)


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


@dataclass(frozen=True)
class FrobeniusBranch:
    """One branch r^mu (1 + a2 r^2 + ...) with float evaluation helpers."""

    n: int
    s: float
    k: float
    mu: float
    coeffs: tuple
    _c: np.ndarray = field(init=False, repr=False, compare=False)    # float a_{2j}

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        object.__setattr__(self, "_c", _read_only(np.array([float(c) for c in self.coeffs])))

    def series(self, r):
        """The even factor sum a_{2j} r^{2j} (without the r^mu prefactor)."""
        r = np.asarray(r, dtype=float)
        return _horner(self._c, r * r)

    def extended_value_and_derivative(self, r):
        """Value and tau derivative (-r d/dr) at one radius, in np.longdouble."""
        r = _LD(r)
        j = np.arange(len(self.coeffs))
        terms = np.asarray(self.coeffs, dtype=_LD) * (r * r) ** j
        r_mu = r ** _LD(self.mu)
        return r_mu * terms.sum(), -r_mu * ((_LD(self.mu) + 2 * j) * terms).sum()

    def truncation_estimate(self, r) -> float:
        """Magnitude of the last kept term relative to the series value."""
        last = abs(self._c[-1]) * float(r) ** (2 * (len(self._c) - 1))
        return last / max(abs(float(self.series(r))), 1e-300)


def frobenius_branch(p: QCurvParams, mu: float) -> FrobeniusBranch:
    """Branch for validated parameters; mu must be one of the indicial roots.

    The series is summed until its last term is below machine epsilon
    relative to the sum at r(TAU_BRANCH) = 0.25/sqrt(k), beyond every radius
    at which the branches are evaluated.  mu, s and the coefficients are
    np.longdouble, with s = n/2 + gamma exact, for the connection.
    """
    if not (math.isclose(mu, p.s) or math.isclose(mu, p.n - p.s)):
        raise ValueError(f"mu={mu} is not an indicial root (s={p.s}, n-s={p.n - p.s})")
    s = _s_ext(p.n, p.gamma)
    mu = s if math.isclose(mu, p.s) else p.n - s
    r2 = (2.0 / math.sqrt(p.k) * math.exp(-TAU_BRANCH)) ** 2
    coeffs, total = [], 0.0
    for M, a in enumerate(_frobenius_terms(p.n, s, _LD(p.k), mu)):
        coeffs.append(a)
        term = abs(a) * r2 ** M
        total += term
        if M >= 1 and term <= _EPS * total:
            break
        if M == _BRANCH_MAX_ORDER:
            raise MatchingError(
                f"Frobenius series (mu={mu}) not converged after {M} terms at r(ln 8)")
    return FrobeniusBranch(n=p.n, s=s, k=p.k, mu=mu, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Interior solution
# ---------------------------------------------------------------------------

def _powers(x_ext: np.ndarray, j: np.ndarray, dtype) -> np.ndarray:
    """x^j in dtype, one row per point, from an extended-precision x.

    A rounded x = x_ext (1 - d) would carry its rounding j-fold into x^j
    (1e-14 in u near tau = 3), so the powers of the rounded x are scaled
    by 1 + j d.
    """
    x = x_ext.astype(dtype)
    d = np.divide(x_ext - x, x_ext, out=np.zeros_like(x_ext), where=x_ext > 0)
    return np.power.outer(x, j) * (1 + np.multiply.outer(d.astype(dtype), j))


def _terms_estimate(eps: float, x: float) -> int:
    """About log(eps)/log(x) terms of the centre series, with a margin: t_j
    decays like j^{gamma - 1}."""
    return int(1.25 * math.log(eps) / math.log(x)) + 64


class CentreSeries:
    """u and u' of the regular interior solution from its series in x = tanh^2 tau.

    The coefficients t_j and t_j (s+2j)/(n+1+2j) are computed in
    np.longdouble and kept in long double and in double, each up to the
    order that sums the series to that precision at tau_max; `drop_extended`
    frees the long-double ones once no more long-double sums are needed.
    A call sums, in the dtype of its argument, its
    points in groups of similar x, each with the terms the group's upper
    bound of x needs (near tau = 3 that is ~3500, below x = 0.5 about 50),
    as a blocked product: with j = B q + r,
    sum_j c_j x^j = sum_q x^{Bq} (sum_r c_{Bq+r} x^r), so the temporaries
    are (points x sqrt(terms)) rather than (points x terms).
    """

    def __init__(self, n: int, s: float, tau_max: float):
        self.n, self.s = n, s
        bounds = _X_GROUPS + (float(np.tanh(_LD(tau_max)) ** 2),)
        eps = (float(np.finfo(_LD).eps), _EPS)
        size = _terms_estimate(eps[0], bounds[-1])
        while True:
            j = np.arange(size, dtype=_LD)
            ratio = (_LD(s) / 2 + j) * ((_LD(s) + 1) / 2 + j) / ((_LD(n + 1) / 2 + j) * (1 + j))
            ratio_float = ratio.astype(float)
            counts = [self._terms_needed(ratio_float, x, eps) for x in bounds]
            if None not in counts:
                break
            size *= 2
        terms_ext, terms = (list(c) for c in zip(*counts))
        t = np.concatenate(([_LD(1)], np.cumprod(ratio[:terms_ext[-1] - 1])))
        dt = t * (_LD(s) + 2 * j[:len(t)]) / (n + 1 + 2 * j[:len(t)])
        used = max(terms)
        self._series = {
            np.dtype(_LD): (t, dt, terms_ext),
            np.dtype(float): (t[:used].astype(float), dt[:used].astype(float), terms),
        }

    @staticmethod
    def _terms_needed(ratio: np.ndarray, x: float, eps: tuple) -> tuple | None:
        """For each eps, the fewest terms whose tail is below eps times the
        partial sum at x; None if ratio is too short for one of them.

        With T_j = t_j x^j, the tail after term j is at most
        T_j rho/(1-rho), rho = max(r_j, 1) x: the ratios r_j = t_{j+1}/t_j
        decrease while above 1 and stay below 1 once they drop under it.
        One cumulative product and sum serve every eps; they run first over
        the terms the smallest eps is estimated to need.
        """
        for part in (ratio[:_terms_estimate(min(eps), x)], ratio):
            T = np.concatenate(([1.0], np.cumprod(part[:-1] * x)))      # t_j x^j
            rho = np.maximum(part, 1.0) * x
            tail, partial, below = T * rho, np.cumsum(T), rho < 1.0
            counts = []
            for e in eps:
                hits = np.flatnonzero(below & (tail <= e * partial * (1.0 - rho)))
                if not hits.size:
                    break
                counts.append(int(hits[0]) + 1)
            else:
                return tuple(counts)
        return None

    def drop_extended(self):
        """Forget the np.longdouble coefficients: later calls sum in double only."""
        self._series = {np.dtype(float): self._series[np.dtype(float)]}

    def __call__(self, tau):
        tau = np.asarray(tau)
        if tau.dtype != _LD:
            tau = tau.astype(float)
        t, dt, terms = self._series[tau.dtype]
        x_ext = np.tanh(tau.astype(_LD)) ** 2
        sums = np.empty((2, len(tau)), dtype=tau.dtype)
        group = np.searchsorted(_X_GROUPS, x_ext.astype(float))
        for g in np.unique(group):
            at = group == g
            J = int(terms[g])
            B = math.isqrt(J - 1) + 1
            Q = -(-J // B)
            coef = np.zeros((2, Q * B), dtype=tau.dtype)
            coef[0, :J] = t[:J]
            coef[1, :J] = dt[:J]
            low = _powers(x_ext[at], np.arange(B), tau.dtype)            # x^r
            high = _powers(x_ext[at] ** B, np.arange(Q), tau.dtype)      # x^{Bq}
            blocks = (low @ coef.reshape(2 * Q, B).T).reshape(len(low), 2, Q)
            sums[:, at] = np.einsum("pkq,pq->kp", blocks, high)
        s = tau.dtype.type(self.s)
        sech_s = np.cosh(tau) ** -s
        return sech_s * sums[0], -(self.n - s) * np.tanh(tau) * sech_s * sums[1]


@dataclass(frozen=True, eq=False)      # arrays and a callable: compared by identity
class RadialProfile:
    """Regular radial solution in closed form: u and u' at any tau.

    tau, u and du tabulate the profile at the interior nodes of the
    quadrature lattice, the `de_lattice` nodes with tau <= tau_max, in
    ascending order: they are reversed read-only views of arrays summed in
    the lattice's own descending order, so that `evaluate` hands the
    integrator exactly what it would have summed.  `evaluate` returns those
    arrays when asked for exactly those nodes (compared element by element)
    and sums the series at any other tau in [0, tau_max]; `build_adapted`
    checks the table for positivity.  `connection` holds u and u' in
    np.longdouble at TAU_MATCH and TAU_CHECK, summed once with the profile.
    The second derivative is never finite-differenced; the geometry takes it
    from the ODE closure u'' = -n coth(tau) u' - s(n-s) u.
    """

    tau: np.ndarray
    u: np.ndarray
    du: np.ndarray
    tau_max: float
    values: Callable = field(repr=False)     # tau array -> (u, u')
    connection: Mapping = field(repr=False)  # tau -> (u, u') in np.longdouble

    def evaluate(self, tau):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        if np.array_equal(tau, self.tau[::-1]):
            return self.u[::-1], self.du[::-1]
        if np.any(tau > self.tau_max * (1 + 1e-12)):
            raise ValueError(f"tau beyond profile horizon {self.tau_max}")
        return self.values(tau)


@functools.lru_cache(maxsize=1)
def _interior(n: int, gamma: float) -> RadialProfile:
    values = CentreSeries(n, _s_ext(n, gamma), TAU_MATCH)
    tau = de_lattice(TAU_MATCH)[3]
    tau = tau[tau <= TAU_MATCH]              # descending, as the integrator asks
    u, du = values(tau)
    u_c, du_c = values(np.array([TAU_MATCH, TAU_CHECK], dtype=_LD))
    values.drop_extended()
    connection = {TAU_MATCH: (u_c[0], du_c[0]), TAU_CHECK: (u_c[1], du_c[1])}
    return RadialProfile(tau=_read_only(tau)[::-1], u=_read_only(u)[::-1],
                         du=_read_only(du)[::-1], tau_max=TAU_MATCH, values=values,
                         connection=MappingProxyType(connection))


def solve_interior(p: QCurvParams) -> RadialProfile:
    """The regular interior solution (u(0) = 1) as its centre series on [0, TAU_MATCH].

    The solution does not depend on k, so the profile (the series, its
    values at the quadrature's interior nodes and its connection values) is
    built from (n, gamma) alone.  Only the last interior is kept: a sweep
    with k fastest, as the CLI's sorted grid runs, sums each series once,
    and memory stays flat.
    """
    return _interior(p.n, p.gamma)


# ---------------------------------------------------------------------------
# Matching and Q extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    branch_low: FrobeniusBranch = field(repr=False)   # mu = n-s
    branch_high: FrobeniusBranch = field(repr=False)  # mu = s


def _connect(profile: RadialProfile, p: QCurvParams, b1: FrobeniusBranch,
             b2: FrobeniusBranch, tau: float):
    """Solve the value/derivative system at tau; returns (c1, c2, cond).

    tau is TAU_MATCH or TAU_CHECK, where the profile stores u and u'.

    c1 and c2 are np.longdouble: the centre series, both branches and the
    2x2 solve (Cramer's rule) are evaluated in extended precision.  The
    columns are equilibrated before the condition number is taken, so the
    guard measures the conditioning of the connection, not the r^{n-s} and
    r^s scales of the branches.
    """
    r = (2.0 / math.sqrt(p.k)) * math.exp(-tau)
    trunc = max(b1.truncation_estimate(r), b2.truncation_estimate(r))
    if not trunc <= 1e-8:
        raise MatchingError(f"Frobenius truncation {trunc:.2e} too large at r={r:.2e}")
    u, du = profile.connection[tau]
    # a subnormal r^mu or u keeps only a few digits, which no condition
    # number sees: at n ~ 550 it gave Q off by 80% at condition 6e2
    if not (r ** max(b1.mu, b2.mu) >= _TINY and min(abs(u), abs(du)) >= _TINY):
        raise MatchingError(f"branch or interior values underflow at tau={tau}")
    r_ld = 2 / np.sqrt(_LD(p.k)) * np.exp(-_LD(tau))
    m = np.array([b1.extended_value_and_derivative(r_ld),
                  b2.extended_value_and_derivative(r_ld)]).T
    scale = np.max(np.abs(m), axis=0)
    if not (np.all(np.isfinite(m)) and np.all(scale > 0.0)):
        raise MatchingError(f"branch values not representable at r={r:.2e}")
    m = m / scale
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(np.linalg.cond(m.astype(float)))
    if not cond <= _COND_MAX:
        raise MatchingError(f"matching system condition {cond:.2e} above {_COND_MAX:.0e}")
    (a, b), (c, d) = m
    det = a * d - b * c
    c1 = (u * d - b * du) / det / scale[0]
    c2 = (a * du - c * u) / det / scale[1]
    if not (c1 != 0.0 and np.isfinite(c1) and np.isfinite(c2)):
        raise MatchingError(f"degenerate connection: c1={c1}, c2={c2}")
    return c1, c2, cond


def _q_of(p: QCurvParams, c1, c2) -> float:
    return float(2 / (p.n - 2 * _LD(p.gamma)) * d_gamma_ext(p.gamma) * (c2 / c1))


def match_and_q(profile: RadialProfile, p: QCurvParams) -> ScatteringResult:
    """Extract c1, c2 and Q by two-branch matching at tau = TAU_MATCH."""
    b1 = frobenius_branch(p, p.n - p.s)
    b2 = frobenius_branch(p, p.s)
    c1, c2, cond = _connect(profile, p, b1, b2, TAU_MATCH)
    q = _q_of(p, c1, c2)
    # the check connection is a diagnostic only: where it cannot be made,
    # the gap is reported as nan and the tau_m = 3 result stands
    try:
        q_check = _q_of(p, *_connect(profile, p, b1, b2, TAU_CHECK)[:2])
    except MatchingError:
        q_check = math.nan
    return ScatteringResult(
        params=p, c1=float(c1), c2=float(c2), scattering_value=float(c2 / c1), q_value=q,
        condition_estimate=cond,
        consistency_gap=abs(q - q_check) / max(abs(q), 1e-300),
        T_match=TAU_MATCH, branch_low=b1, branch_high=b2,
    )


@functools.lru_cache(maxsize=1)
def solve_case(p: QCurvParams):
    """Full pipeline: centre series plus the branch connection at TAU_MATCH.

    Memoised on the parameters, for the last case only: the sweep asks for
    a case's Q row and then its hk-adapted report, so the second request
    returns the same (profile, result) pair.  Both are frozen.
    """
    profile = solve_interior(p)
    return profile, match_and_q(profile, p)

