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
tau derivative at the one point tau_m = 3, where the column-equilibrated
2x2 system stays well conditioned (below 5e4 for n <= 40).  A branch is its
root and one np.longdouble coefficient array, evaluated once, at tau_m: one
term vector there gives its value, its derivative and the truncation the
connection checks (`FrobeniusBranch.at`).  The series coefficients, u and
u' there, both branch values and derivatives, the 2x2 solve and d_gamma are
carried in np.longdouble, so that Q is rounded to double only once.
Derivatives are always transported analytically (dr/dtau = -r); second
derivatives come from the ODE closure, never from finite differences.

The centre series does not depend on k: in tau all of k sits in the
branches, through r = (2/sqrt(k)) e^{-tau}.  Nor do the quadrature nodes it
is summed at: the radial integrals use one nested double-exponential
lattice (`de_lattice`) whose step and upper end are fixed, and the boundary
decay rate only moves its lower end, far beyond TAU_MATCH.  So the series is
built once per (n, gamma) and summed twice: in np.longdouble at the
connection point when it is built (`CentreSeries.connection`, the one
extended-precision sum of the interior, after which only double
coefficients are kept), and in double at the lattice's 155 nodes with
tau <= TAU_MATCH, which become the series' table; every k and every
integral shares them.  `solve_interior` keeps the last interior,
`solve_case` the last case and `de_lattice` the last lattice, one entry
each.  Those points are the same for every (n, gamma), and so are the
powers of x the sums read there: they are tabulated once per process
(`_node_powers`), one read-only table per node group and block size.

A `ScatteringResult` carries the series it was matched to (`interior`),
so a geometry is built from the result alone and cannot pair one case's
interior with another case's c1 and Q.

The Lee eigenfunction of the eigenvalue instance s = n+1 needs no solve: it
is V = f' = sqrt(k) cosh(tau) (`ModelSpace.df_tau`), and its boundary
branch r V = 1 + k r^2/4 terminates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .special_fn import QCurvParams, d_gamma_ext

# The branch series are summed to convergence in double at r(ln 8) =
# 0.25/sqrt(k) but evaluated only at tau >= TAU_MATCH, where each term is
# smaller by a further (r(3)/r(ln 8))^2 = 0.16 per order.  That margin leaves
# the tau = 3 sum at long-double accuracy: its last term is at most 2.3e-24
# of the sum over n 3..200, gamma in [0.05, 0.95] and k 0.5, 1, 2.
TAU_BRANCH = math.log(8.0)
TAU_MATCH = 3.0               # connection point of the centre series and the branches
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


@functools.lru_cache(maxsize=1)
def de_lattice(tau_max: float):
    """The package's one quadrature rule: nested double-exponential on (0, inf).

    tau = log(1 + e^z), z = -pi sinh t maps t in R onto (0, inf)
    (Takahasi & Mori, Publ. RIMS 9 (1974) 721-741).  The nodes are
    t = i h/2 for the integers i from the first one whose tau exceeds tau_max
    up to t = DE_T_MAX, in ascending t and so in descending tau.  tau_max moves
    only the lower end: the nodes with tau <= tau_max are the same for every
    larger tau_max.  Returns (tau, weights, coarse): the nodes, their weights
    h/2 dtau/dt at step h/2, and the mask of the nodes of step h (even i).
    Summing G w over all nodes gives the rule at step h/2, and twice the
    sum over the coarse nodes gives it at step h.

    Memoised on tau_max, for the last lattice only, with read-only arrays:
    the geometries of a k-run share one tau_max, and so do every Lee
    geometry and `asymptotic_ratio` (tau_max = 40).
    """
    half = 0.5 * DE_STEP
    t_min = -math.asinh(tau_max / math.pi)
    i = np.arange(math.floor(t_min / half), round(DE_T_MAX / half) + 1)
    t = i * half
    z = -math.pi * np.sinh(t)
    weights = half * math.pi * np.cosh(t) / (1.0 + np.exp(-z))
    return tuple(_read_only(a) for a in (np.logaddexp(0.0, z), weights, i % 2 == 0))


def _fixed_nodes():
    """The points the centre series is summed at for every interior: the
    lattice nodes with tau <= TAU_MATCH in the lattice's descending order,
    in double, and the connection point TAU_MATCH in np.longdouble."""
    tau = de_lattice(TAU_MATCH)[0]
    return (_read_only(tau[tau <= TAU_MATCH]),
            _read_only(np.array([TAU_MATCH], dtype=_LD)))


_FIXED_NODES = _TABLE_TAU, _CONNECTION_TAU = _fixed_nodes()


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


@dataclass(frozen=True, eq=False)
class FrobeniusBranch:
    """One branch r^mu (1 + a2 r^2 + ...): its exact root mu and its
    coefficients a_{2j}, one read-only np.longdouble array."""

    mu: float
    coeffs: np.ndarray

    def at(self, r):
        """Value, tau derivative (-r d/dr) and truncation at one radius, all
        in np.longdouble and read from one term vector a_{2j} r^{2j}; the
        truncation is its last term relative to its sum."""
        r, mu = _LD(r), _LD(self.mu)
        j = np.arange(len(self.coeffs))
        terms = self.coeffs * (r * r) ** j
        r_mu, series = r ** mu, terms.sum()
        return (r_mu * series, -r_mu * ((mu + 2 * j) * terms).sum(),
                abs(terms[-1]) / abs(series))


def frobenius_branch(p: QCurvParams, mu: float) -> FrobeniusBranch:
    """Branch for validated parameters; mu must be one of the indicial roots.

    The series is summed until its last term is below machine epsilon
    relative to the sum at r(TAU_BRANCH) = 0.25/sqrt(k), beyond every radius
    at which the branches are evaluated.  mu and the coefficients are
    np.longdouble, from s = n/2 + gamma exact, for the connection.
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
    return FrobeniusBranch(mu=mu, coeffs=_read_only(np.array(coeffs, dtype=_LD)))


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


def _block_powers(x_ext: np.ndarray, B: int, dtype):
    """x^r and x^{Bq} for r, q < B, in dtype, one row per point.

    A group of J terms is summed as Q blocks of B terms, B = ceil(sqrt J)
    and Q = ceil(J / B), which is B - 1 or B, so tables for Q = B serve both.
    """
    j = np.arange(B)
    return _powers(x_ext, j, dtype), _powers(x_ext ** B, j, dtype)


@functools.lru_cache(maxsize=128)
def _node_powers(which: int, g: int, B: int) -> tuple:
    """`_block_powers` at group g of the fixed node set `which`, once per
    process and read-only: 0 is the table's nodes, in double, and 1 is the
    connection point, in long double; every `CentreSeries` construction
    reads both.

    The node sets are fixed, so (which, g, B) is an exact key.  The
    interiors over n 3..200 and 37 gammas in [0.05, 0.95] read 41 tables,
    0.24 MB in all.
    """
    nodes = _FIXED_NODES[which]
    x_ext = np.tanh(nodes.astype(_LD)) ** 2
    x = x_ext[np.searchsorted(_X_GROUPS, x_ext.astype(float)) == g]
    return tuple(_read_only(a) for a in _block_powers(x, B, nodes.dtype))


def _blocked_sums(t: np.ndarray, dt: np.ndarray, powers: tuple) -> np.ndarray:
    """sum_j t_j x^j and sum_j dt_j x^j, shape (2, points), in the dtype of
    `powers`, the tables (x^r, x^{Bq}) of `_block_powers` at the points,
    B = ceil(sqrt J) for J terms.  With j = B q + r, sum_j c_j x^j = sum_q x^{Bq} (sum_r c_{Bq+r} x^r), so
    the temporaries are (points x sqrt(terms)) rather than (points x terms).
    """
    low, high = powers
    J, B = len(t), low.shape[1]
    Q = -(-J // B)
    coef = np.zeros((2, Q * B), dtype=low.dtype)
    coef[0, :J], coef[1, :J] = t, dt
    blocks = (low @ coef.reshape(2 * Q, B).T).reshape(len(low), 2, Q)
    return np.einsum("pkq,pq->kp", blocks, high[:, :Q])


def _terms_estimate(eps: float, x: float) -> int:
    """About log(eps)/log(x) terms of the centre series, with a margin: t_j
    decays like j^{gamma - 1}."""
    return int(1.25 * math.log(eps) / math.log(x)) + 64


class CentreSeries:
    """u and u' of the regular interior solution from its series in x = tanh^2 tau.

    The term counts come from the coefficient ratios in double, one per
    group of x, each the count that sums the series to double precision at
    the group's upper bound of x (near tau = 3 that is ~3500, below
    x = 0.5 about 50), and one more that sums it to long-double precision
    at TAU_MATCH.  Construction computes the coefficients t_j and
    t_j (s+2j)/(n+1+2j) in np.longdouble up to that long-double count, sums
    them once at TAU_MATCH into `connection`, the pair (u, u') there in
    np.longdouble, and keeps them in double only, up to the largest double
    count.  This is the interior's one extended-precision sum.  It then sums
    them in double at the 155 lattice nodes with tau <= TAU_MATCH into the
    table tau, u, du: ascending, read-only views of arrays summed in the
    lattice's own descending order, so that a call at those nodes hands the
    integrator exactly what it would have summed; `build_adapted` checks
    the table for positivity.  No method changes a built series.

    A call takes tau in [0, TAU_MATCH] in double and returns u and u' in
    double.  It sums its points in groups of similar x, each with its
    group's terms, as a blocked product (`_blocked_sums`).  The tables of
    x^r and x^{Bq} are built from x in long double per call, and read from
    `_node_powers` for the table and the connection.  The second derivative
    is never summed; the geometry takes it from the ODE closure
    u'' = -n coth(tau) u' - s(n-s) u.
    """

    def __init__(self, n: int, s):
        s = _LD(s)
        bounds = _X_GROUPS + (float(np.tanh(_LD(TAU_MATCH)) ** 2),)
        eps_ext = float(np.finfo(_LD).eps)
        eps = ((_EPS,),) * (len(bounds) - 1) + ((eps_ext, _EPS),)
        size = _terms_estimate(eps_ext, bounds[-1])
        while True:
            ratio = self._ratio(n, s, size, float)
            counts = [self._terms_needed(ratio, x, e) for x, e in zip(bounds, eps)]
            if None not in counts:
                break
            size *= 2
        terms_ext = counts[-1][0]
        two_j = 2.0 * np.arange(terms_ext)          # exact in double, cast once
        t = np.concatenate(([_LD(1)], np.cumprod(self._ratio(n, s, len(two_j) - 1, _LD))))
        dt = t * (s + two_j.astype(_LD)) / (n + 1 + two_j).astype(_LD)
        B = math.isqrt(terms_ext - 1) + 1        # the connection lies in the last group
        u, du = _blocked_sums(t, dt, _node_powers(1, len(_X_GROUPS), B))
        tau = _CONNECTION_TAU
        sech_s = np.cosh(tau) ** -s
        self.connection = ((sech_s * u)[0], (-(n - s) * np.tanh(tau) * sech_s * du)[0])
        self.n, self.s = n, float(s)
        self._terms = [c[-1] for c in counts]     # double terms of each group of x
        self._terms_ext = terms_ext               # long-double terms of the connection
        used = max(self._terms)
        self._t, self._dt = (_read_only(c[:used].astype(float)) for c in (t, dt))
        u, du = self._sums(_TABLE_TAU, fixed=True)
        self.tau, self.u, self.du = _TABLE_TAU[::-1], _read_only(u)[::-1], _read_only(du)[::-1]

    @staticmethod
    def _ratio(n: int, s, size: int, dtype) -> np.ndarray:
        """t_{j+1}/t_j for j < size, in dtype.

        The denominator ((n+1)/2 + j)(1 + j) is a half-integer far below
        2^53, so it is formed exactly in double and cast once.
        """
        s = dtype(s)
        j = np.arange(size, dtype=float)
        den = ((n + 1) / 2 + j) * (1 + j)
        j = j.astype(dtype, copy=False)
        return (s / 2 + j) * ((s + 1) / 2 + j) / den.astype(dtype, copy=False)

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

    def __call__(self, tau):
        """u and u' at tau in [0, TAU_MATCH], in double.

        At exactly the table's nodes in the lattice's descending order
        (compared element by element) the table is returned, as read-only
        views; anywhere else the series is summed.  Beyond the horizon the
        term counts no longer reach double precision, so it raises
        ValueError there.
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        if np.array_equal(tau, _TABLE_TAU):
            return self.u[::-1], self.du[::-1]
        if np.any(tau > TAU_MATCH * (1 + 1e-12)):
            raise ValueError(f"tau beyond the centre series' horizon {TAU_MATCH}")
        return self._sums(tau, fixed=False)

    def _sums(self, tau: np.ndarray, fixed: bool):
        """u and u' at tau, in double; with fixed, tau is the table's nodes
        and the power tables are read from `_node_powers`."""
        x_ext = np.tanh(tau.astype(_LD)) ** 2
        group = np.searchsorted(_X_GROUPS, x_ext.astype(float))
        sums = np.empty((2, len(tau)))
        for g in np.unique(group):
            at = group == g
            J = self._terms[g]
            B = math.isqrt(J - 1) + 1
            powers = _node_powers(0, int(g), B) if fixed else _block_powers(x_ext[at], B, float)
            sums[:, at] = _blocked_sums(self._t[:J], self._dt[:J], powers)
        sech_s = np.cosh(tau) ** -self.s
        return sech_s * sums[0], -(self.n - self.s) * np.tanh(tau) * sech_s * sums[1]


@functools.lru_cache(maxsize=1)
def _interior(n: int, gamma: float) -> CentreSeries:
    return CentreSeries(n, _s_ext(n, gamma))


def solve_interior(p: QCurvParams) -> CentreSeries:
    """The regular interior solution (u(0) = 1) as its centre series on [0, TAU_MATCH].

    The solution does not depend on k, so the series (with its table at the
    quadrature's interior nodes and its connection values) is built from
    (n, gamma) alone.  Only the last interior is kept: a sweep with k
    fastest, as the CLI's sorted grid runs, sums each series once, and
    memory stays flat.
    """
    return _interior(p.n, p.gamma)


# ---------------------------------------------------------------------------
# Matching and Q extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringResult:
    """Matched branch data, the extracted Q-curvature and the interior
    solution they were matched to: the one object a geometry is built from."""

    params: QCurvParams
    c1: float
    c2: float
    scattering_value: float          # c2/c1 = S(s) 1
    q_value: float                   # (2/(n-2 gamma)) d_gamma c2/c1
    condition_estimate: float        # of the column-equilibrated system
    branch_low: FrobeniusBranch = field(repr=False, compare=False)   # mu = n-s
    branch_high: FrobeniusBranch = field(repr=False, compare=False)  # mu = s
    interior: CentreSeries = field(repr=False, compare=False)   # the (n, gamma) series


def _connect(interior: CentreSeries, p: QCurvParams, b1: FrobeniusBranch,
             b2: FrobeniusBranch):
    """Solve the value/derivative system at TAU_MATCH; returns (c1, c2, cond).

    c1 and c2 are np.longdouble: the centre series, both branches and the
    2x2 solve (Cramer's rule) are evaluated in extended precision.  The
    columns are equilibrated before the condition number is taken, so the
    guard measures the conditioning of the connection, not the r^{n-s} and
    r^s scales of the branches.
    """
    r = (2.0 / math.sqrt(p.k)) * math.exp(-TAU_MATCH)
    r_ld = 2 / np.sqrt(_LD(p.k)) * np.exp(-_LD(TAU_MATCH))
    (v1, d1, t1), (v2, d2, t2) = b1.at(r_ld), b2.at(r_ld)
    trunc = max(t1, t2)
    if not trunc <= 1e-8:
        raise MatchingError(f"Frobenius truncation {trunc:.2e} too large at r={r:.2e}")
    u, du = interior.connection
    # a subnormal r^mu or u keeps only a few digits, which no condition
    # number sees: at n ~ 550 it gave Q off by 80% at condition 6e2
    if not (r ** max(b1.mu, b2.mu) >= _TINY and min(abs(u), abs(du)) >= _TINY):
        raise MatchingError(f"branch or interior values underflow at tau={TAU_MATCH}")
    m = np.array([[v1, v2], [d1, d2]])
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


def match_and_q(interior: CentreSeries, p: QCurvParams) -> ScatteringResult:
    """Extract c1, c2 and Q by two-branch matching at tau = TAU_MATCH."""
    b1 = frobenius_branch(p, p.n - p.s)
    b2 = frobenius_branch(p, p.s)
    c1, c2, cond = _connect(interior, p, b1, b2)
    q = 2 / (p.n - 2 * _LD(p.gamma)) * d_gamma_ext(p.gamma) * (c2 / c1)
    return ScatteringResult(
        params=p, c1=float(c1), c2=float(c2), scattering_value=float(c2 / c1),
        q_value=float(q), condition_estimate=cond, branch_low=b1, branch_high=b2,
        interior=interior,
    )


@functools.lru_cache(maxsize=1)
def solve_case(p: QCurvParams) -> ScatteringResult:
    """Full pipeline: centre series plus the branch connection at TAU_MATCH.

    Memoised on the parameters, for the last case only: the sweep asks for
    a case's Q row and then its hk-adapted report, so the second request
    returns the same result, which is frozen and carries its interior.
    """
    return match_and_q(solve_interior(p), p)

