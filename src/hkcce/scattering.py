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
regular solution is u = 2F1(s/2, (n-s)/2; (n+1)/2; -sinh^2 tau).  Its
parameters satisfy c = a + b + 1/2, so the quadratic transformation of
Gauss's function (DLMF 15.8) sums it as the centre series

    u  = cosh(tau/2)^{-2s} sum_j f_j w^j,                   w = tanh^2(tau/2),
    u' = -2(n-s) tanh(tau/2) cosh(tau/2)^{-2s} sum_j f_j (s+j)/(n+1+2j) w^j,

    f_0 = 1,  f_{j+1}/f_j = (s+j)(gamma+1/2+j) / (((n+1)/2+j)(1+j)).

Every term is positive, so neither sum cancels at any n, and both converge on
the whole interior; w <= tanh^2(1.5) = 0.8193 up to tau = 3, so about 180
terms reach double precision there and about 220 long double, at every n.
The geometry reads y = 1 + u'/((n-s) u), 0.04-0.1 at tau = 3, which a third
positive sum H = sum_j f_j/(n+1+2j) w^j gives without subtracting u' from u:
y = ((1 - 2 gamma) H + 2 (1 - tanh(tau/2)) G)/F, F and G the sums of u and
u', whose terms cancel only for gamma > 1/2, by at most a factor 4.6.
The two Frobenius branches, summed until their last term is below machine
epsilon on r <= r(ln 8), are connected to u in value and tau derivative at
the one point tau_m = 3, where the column-equilibrated 2x2 system stays
well conditioned (below 5e4 for n <= 40).  A branch is its root and one
np.longdouble coefficient array, evaluated once, at tau_m: one term vector
there gives its value, its derivative and the truncation the connection
checks (`FrobeniusBranch.at`).  The series coefficients, u and u' there,
both branch values and derivatives, the 2x2 solve and d_gamma are carried
in np.longdouble, so that Q is rounded to double only once; the solve's
2-norm condition is a closed form from the same long-double entries.
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
tau <= TAU_MATCH, which become the series' table of u, u' and y; every k
and every integral shares them.  `solve_interior` keeps the last interior,
`solve_case` the last case and `de_lattice` the last lattice, one entry
each.  Those points are the same for every (n, gamma), and so is what the
sums read of them alone: the powers of w (`_node_powers`, one read-only
table per node set and block size), cosh and tanh of tau/2 at the
connection point, log cosh and tanh of tau/2 and 4/(1 + e^tau) at the
table's nodes, all tabulated once per process.  The table's prefactor
cosh(tau/2)^{-2s} is exp(-2s log cosh), the connection's a long-double
power.  `de_lattice` slices one lattice, evaluated once per process.

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
# the widest tau_max the package asks for: 40 e-folds of the slowest boundary
# decay, e^{-0.1 tau} at gamma = 0.05 and 0.95
DE_TAU_WIDEST = 400.0


def _de_first(tau_max: float) -> int:
    """The index i of the lattice's first node, the first one whose tau exceeds tau_max."""
    return math.floor(-math.asinh(tau_max / math.pi) / (0.5 * DE_STEP))


def _de_rule(tau_max: float):
    """`de_lattice` evaluated afresh."""
    half = 0.5 * DE_STEP
    i = np.arange(_de_first(tau_max), round(DE_T_MAX / half) + 1)
    t = i * half
    z = -math.pi * np.sinh(t)
    weights = half * math.pi * np.cosh(t) / (1.0 + np.exp(-z))
    return tuple(_read_only(a) for a in (np.logaddexp(0.0, z), weights, i % 2 == 0))


_DE_WIDEST = _de_rule(DE_TAU_WIDEST)


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

    The rule is evaluated once per process, at DE_TAU_WIDEST, and a lattice
    is its suffix of read-only views (built afresh only beyond it).
    Memoised on tau_max, for the last lattice only: the geometries of a
    k-run share one tau_max, and so do every Lee geometry and
    `asymptotic_ratio` (tau_max = 40).
    """
    start = _de_first(tau_max) - _de_first(DE_TAU_WIDEST)
    if start < 0:
        return _de_rule(tau_max)
    return tuple(a[start:] for a in _DE_WIDEST)


def _half_angle(tau: np.ndarray):
    """cosh(tau/2) and tanh(tau/2) in np.longdouble."""
    half = tau.astype(_LD) / 2          # exact
    return np.cosh(half), np.tanh(half)


def _fixed_nodes():
    """The points the centre series is summed at for every interior: the
    lattice nodes with tau <= TAU_MATCH in the lattice's descending order,
    in double, and the connection point TAU_MATCH in np.longdouble."""
    tau = de_lattice(TAU_MATCH)[0]
    return (_read_only(tau[tau <= TAU_MATCH]),
            _read_only(np.array([TAU_MATCH], dtype=_LD)))


_FIXED_NODES = _TABLE_TAU, _CONNECTION_TAU = _fixed_nodes()
# What the sums read of the fixed nodes alone, once per process: in
# np.longdouble, cosh and tanh of tau/2 at the connection point, and log
# cosh and tanh at the table's nodes, whose prefactor cosh^{-2s} is formed as
# exp(-2 s log cosh); in double, 4/(1 + e^tau) = 2 (1 - tanh(tau/2)) there.
_CONNECTION_COSH, _CONNECTION_TANH = map(_read_only, _half_angle(_CONNECTION_TAU))
_TABLE_LOGCOSH = _read_only(np.log(np.cosh(_TABLE_TAU.astype(_LD) / 2)))
_TABLE_TANH = _read_only(np.tanh(_TABLE_TAU.astype(_LD) / 2))
_TABLE_EDGE = _read_only(4.0 / (1.0 + np.exp(_TABLE_TAU)))
# and the constants of `CentreSeries`: w(TAU_MATCH) = tanh^2(TAU_MATCH/2),
# the long-double epsilon, and a first guess of the term counts' search
# length, 1.25 log(eps_ext)/log(w) with a margin (f_j grows or decays like
# j^{2 gamma - 1})
_W_CONNECTION = float(_CONNECTION_TANH[0] ** 2)
_EPS_EXT = float(np.finfo(_LD).eps)
_TERMS_GUESS = int(1.25 * math.log(_EPS_EXT) / math.log(_W_CONNECTION)) + 64


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
    nk_2, k_4, n_s = n * k / 2, k / 4, n - s
    acc = a * mu
    M = 1
    while True:
        x = mu + 2 * M
        P = (x - s) * (x - n_s)
        if P == 0:
            raise ResonanceError(
                f"indicial factor vanishes at step 2M={2 * M} (mu={mu}, s={s}, n={n})"
            )
        a = nk_2 * acc / P
        yield a
        acc = acc * k_4
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

def _powers(w_ext: np.ndarray, j: np.ndarray, dtype) -> np.ndarray:
    """w^j in dtype, one row per point, from an extended-precision w.

    A rounded w = w_ext (1 - d) would carry its rounding j-fold into w^j,
    so the powers of the rounded w are scaled by 1 + j d.
    """
    w = w_ext.astype(dtype)
    d = np.divide(w_ext - w, w_ext, out=np.zeros_like(w_ext), where=w_ext > 0)
    return np.power.outer(w, j) * (1 + np.multiply.outer(d.astype(dtype), j))


def _block_powers(w_ext: np.ndarray, B: int, dtype):
    """w^r and w^{Bq} for r, q < B, in dtype, one row per point.

    J terms are summed as Q blocks of B terms, B = ceil(sqrt J) and
    Q = ceil(J / B), which is B - 1 or B, so tables for Q = B serve both.
    """
    j = np.arange(B)
    return _powers(w_ext, j, dtype), _powers(w_ext ** B, j, dtype)


@functools.lru_cache(maxsize=128)
def _node_powers(which: int, B: int) -> tuple:
    """`_block_powers` at the fixed node set `which`, once per process and
    read-only: 0 is the table's nodes, in double, and 1 is the connection
    point, in long double; every `CentreSeries` construction reads both.

    The node sets are fixed, so (which, B) is an exact key.  The interiors
    over n 3..1000 and 37 gammas in [0.05, 0.95] read 5 tables: B = 13, 14
    and 15 at the table's nodes and 15 and 16 at the connection point.
    """
    w_ext = (_TABLE_TANH, _CONNECTION_TANH)[which] ** 2
    return tuple(_read_only(a) for a in _block_powers(w_ext, B, _FIXED_NODES[which].dtype))


def _blocked_sums(coef: np.ndarray, powers: tuple) -> np.ndarray:
    """sum_j c_j w^j for each row c of coef, shape (rows, points), in the
    dtype of `powers`, the tables (w^r, w^{Bq}) of `_block_powers` at the
    points, B = ceil(sqrt J) for J terms.  With j = B q + r,
    sum_j c_j w^j = sum_q w^{Bq} (sum_r c_{Bq+r} w^r), so the temporaries
    are (points x sqrt(terms)) rather than (points x terms).
    """
    low, high = powers
    (rows, J), B = coef.shape, low.shape[1]
    Q = -(-J // B)
    padded = np.zeros((rows, Q * B), dtype=low.dtype)
    padded[:, :J] = coef
    blocks = (low @ padded.reshape(rows * Q, B).T).reshape(len(low), rows, Q)
    return np.einsum("pkq,pq->kp", blocks, high[:, :Q])


class CentreSeries:
    """u, u' and y of the regular interior solution from its series in w = tanh^2(tau/2).

    The term counts come from the coefficient ratios in double: the count
    that sums the series to double precision at w(TAU_MATCH) = 0.8193, and
    the one that sums it to long-double precision there (about 180 and 220
    at every n).  Construction computes the coefficients f_j and
    f_j (s+j)/(n+1+2j) in np.longdouble up to the long-double count, sums
    them once at TAU_MATCH into `connection`, the pair (u, u') there in
    np.longdouble, and keeps them in double only, up to the double count,
    with a third row f_j/(n+1+2j) for y (`_rows`).  This is the interior's
    one extended-precision sum.  It then sums the rows in double at the 155
    lattice nodes with tau <= TAU_MATCH into the table tau, u, du, y:
    ascending, read-only views of arrays summed in the lattice's own
    descending order, so that a call at those nodes hands the integrator
    exactly what it would have summed; `build_adapted` checks the table for
    positivity.  No method changes a built series.

    A call takes tau in [0, TAU_MATCH] in double and returns u, u' and
    y = 1 + u'/((n-s) u) in double.  Its sums are one blocked product
    (`_blocked_sums`) over tables of w^r and w^{Bq} that are built from w
    in long double per call, and read from `_node_powers` for the table and
    the connection.  The prefactors cosh(tau/2)^{-2s} and tanh(tau/2) are
    formed in long double and rounded once: in double their error would
    grow like s eps.  At the table's nodes the power is exp(-2s log cosh)
    from tabulated log cosh, elsewhere a long-double power; the two agree
    within 0.06 double eps (n 3..200).  No derivative of y is summed; the geometry takes y'
    and y'' from the ODE closure, written for y.
    """

    def __init__(self, n: int, s):
        self.n, self.s = n, _LD(s)
        size = _TERMS_GUESS
        while (counts := self._terms_needed(self._ratio(n, self.s, size, float),
                                            _W_CONNECTION, (_EPS, _EPS_EXT))) is None:
            size *= 2
        self._terms, self._terms_ext = counts
        j = np.arange(self._terms_ext)          # integer factors, cast once
        f = np.concatenate(([_LD(1)], np.cumprod(self._ratio(n, self.s, len(j) - 1, _LD))))
        den = (n + 1 + 2 * j).astype(_LD)
        rows = np.stack((f, f * (self.s + j.astype(_LD)) / den, f / den))
        B = math.isqrt(len(j) - 1) + 1
        u, du = (self._prefactors(_CONNECTION_COSH ** (-2 * self.s), _CONNECTION_TANH)
                 * _blocked_sums(rows[:2], _node_powers(1, B)))
        self.connection = (u[0], du[0])
        self._rows = _read_only(rows[:, :self._terms].astype(float))
        u, du, y = self._sums(_TABLE_TAU, fixed=True)
        self.tau = _TABLE_TAU[::-1]
        self.u, self.du, self.y = (_read_only(a)[::-1] for a in (u, du, y))

    @staticmethod
    def _ratio(n: int, s, size: int, dtype) -> np.ndarray:
        """f_{j+1}/f_j = (s+j)(gamma+1/2+j) / (((n+1)/2+j)(1+j)) for j < size, in dtype.

        gamma + 1/2 = s - (n-1)/2 is taken in np.longdouble.  The
        denominator is a half-integer far below 2^53, so it is formed
        exactly in double and cast once.
        """
        a, b = dtype(s), dtype(_LD(s) - _LD(n - 1) / 2)
        j = np.arange(size, dtype=float)
        den = ((n + 1) / 2 + j) * (1 + j)
        j = j.astype(dtype, copy=False)
        return (a + j) * (b + j) / den.astype(dtype, copy=False)

    @staticmethod
    def _terms_needed(ratio: np.ndarray, w: float, eps: tuple) -> tuple | None:
        """For each eps, the fewest terms whose tail is below eps times the
        partial sum at w; None if ratio is too short for one of them.

        With T_j = f_j w^j, the tail after term j is at most
        T_j rho/(1-rho), rho = max(r_j, 1) w: the ratios r_j = f_{j+1}/f_j
        are all above 1 and decrease (gamma > 1/2), or are all at most 1.
        One cumulative product and sum serve every eps.
        """
        T = np.concatenate(([1.0], np.cumprod(ratio[:-1] * w)))      # f_j w^j
        rho = np.maximum(ratio, 1.0) * w
        tail, partial, below = T * rho, np.cumsum(T), rho < 1.0
        counts = []
        for e in eps:
            hits = np.flatnonzero(below & (tail <= e * partial * (1.0 - rho)))
            if not hits.size:
                return None
            counts.append(int(hits[0]) + 1)
        return tuple(counts)

    def _prefactors(self, pre: np.ndarray, tanh: np.ndarray) -> np.ndarray:
        """pre = cosh(tau/2)^{-2s} and -2(n-s) tanh(tau/2) pre, the factors
        of the two sums, shape (2, points), in np.longdouble."""
        return np.stack((pre, -2 * (self.n - self.s) * tanh * pre))

    def __call__(self, tau):
        """u, u' and y = 1 + u'/((n-s) u) at tau in [0, TAU_MATCH], in double.

        At exactly the table's nodes in the lattice's descending order
        (compared element by element) the table is returned, as read-only
        views; anywhere else the series is summed.  Beyond the horizon the
        term counts no longer reach double precision, so it raises
        ValueError there.
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        if np.array_equal(tau, _TABLE_TAU):
            return self.u[::-1], self.du[::-1], self.y[::-1]
        if np.any(tau > TAU_MATCH * (1 + 1e-12)):
            raise ValueError(f"tau beyond the centre series' horizon {TAU_MATCH}")
        return self._sums(tau, fixed=False)

    def _sums(self, tau: np.ndarray, fixed: bool):
        """u, u' and y at tau, in double; with fixed, tau is the table's
        nodes and the power tables are read from `_node_powers`."""
        B = math.isqrt(self._terms - 1) + 1
        if fixed:
            powers, tanh, edge = _node_powers(0, B), _TABLE_TANH, _TABLE_EDGE
            pre = np.exp(-2 * self.s * _TABLE_LOGCOSH)
        else:
            cosh, tanh = _half_angle(tau)
            powers, edge = _block_powers(tanh ** 2, B, float), 4.0 / (1.0 + np.exp(tau))
            pre = cosh ** (-2 * self.s)
        F, G, H = _blocked_sums(self._rows, powers)
        u, du = self._prefactors(pre, tanh).astype(float) * np.stack((F, G))
        # edge = 2 (1 - tanh(tau/2)) = 4/(1 + e^tau)
        y = (float(self.n + 1 - 2 * self.s) * H + edge * G) / F
        return u, du, y


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
    r^s scales of the branches.  That 2-norm condition, sigma_max/sigma_min,
    is (|m|_F^2 + sqrt(|m|_F^4 - 4 det^2))/(2 |det|), from the long-double
    entries and the det of Cramer's rule.
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
    (a, b), (c, d) = m / scale
    det = a * d - b * c
    frob = a * a + b * b + c * c + d * d
    # the radicand is ((a-d)^2 + (b+c)^2)((a+d)^2 + (b-c)^2) >= 0, clamped
    # only against its rounding at condition ~ 1
    cond = (float((frob + np.sqrt(max(frob * frob - 4 * det * det, 0)))
                  / (2 * abs(det))) if det else math.inf)
    if not cond <= _COND_MAX:
        raise MatchingError(f"matching system condition {cond:.2e} above {_COND_MAX:.0e}")
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

