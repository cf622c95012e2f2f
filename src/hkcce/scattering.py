"""Radial scattering problem on the model spaces and Q-curvature extraction.

The generalised eigenvalue problem  -Lap_+ u - s(n-s) u = 0  reduces on a
rotationally symmetric model to the singular ODE

    u'' + n coth(tau) u' + s(n-s) u = 0        (interior, tau = t - t0)

with the regular (even) solution normalised by u(0) = 1, and to

    r^2 u'' + (1-n) r u' + n r^2 (phi'/phi) u' + s(n-s) u = 0   (boundary)

in the normal-form coordinate r, which has a regular singular point at r = 0
with indicial roots n-s and s.  Both Frobenius branches are even power series
in r converging on r < 2/sqrt(k): the branch of root mu is

    r^mu 2F1(n/2, mu; 1 + mu - n/2; k r^2/4),

summed from its coefficient recursion.  The interior solution is a
combination u = c1 U1 + c2 U2 and the scattering value is S(s)1 = c2/c1
once both branches carry unit leading coefficient.  The Q-curvature follows
from the d_gamma normalisation:  Q = (2/(n-2 gamma)) d_gamma c2/c1.

Extraction scheme (validated against the closed-form sphere oracle): the
regular solution is u = 2F1(s/2, (n-s)/2; (n+1)/2; -sinh^2 tau).  Its
parameters satisfy c = a + b + 1/2, so the quadratic transformation of
Gauss's function (DLMF 15.8) sums it as the centre series

    u  = cosh(tau/2)^{-2s} sum_j f_j w^j,                   w = tanh^2(tau/2),
    u' = -2(n-s) tanh(tau/2) cosh(tau/2)^{-2s} sum_j f_j (s+j)/(n+1+2j) w^j,

    f_0 = 1,  f_{j+1}/f_j = (s+j)(gamma+1/2+j) / (((n+1)/2+j)(1+j)).

Every term is positive, so neither sum cancels at any n, and both converge on
the whole interior; w <= tanh^2(1.5) = 0.8193 up to tau = 3, so at most 198
terms reach double precision there and at most 237 long double, at every n.
The geometry reads y = 1 + u'/((n-s) u), 0.04-0.1 at tau = 3, which a third
positive sum H = sum_j f_j/(n+1+2j) w^j gives without subtracting u' from u:
y = ((1 - 2 gamma) H + 2 (1 - tanh(tau/2)) G)/F, F and G the sums of u and
u', whose terms cancel only for gamma > 1/2, by at most a factor 4.6.
The two Frobenius branches are connected to u in value and tau derivative
at the one point tau_m = 3, and only read at tau >= tau_m.  Their
coefficients follow from the same 2F1 term ratio as the f_j
(`_term_ratio`), and each branch is summed until its last term at tau_m,
where k r^2/4 = e^{-6} for every k, is at most long-double epsilon of the
sum there: its term count depends on (n, gamma) alone.  A branch is its
root and one np.longdouble coefficient array, evaluated once, at tau_m: one
term vector there gives its value and its derivative
(`FrobeniusBranch.at`).  The series coefficients, u and u' there, both
branch values and derivatives, the 2x2 solve and d_gamma are carried in
np.longdouble, so that Q is rounded to double only once.  The solve
divides two cross products of the entries by the branches' Wronskian in
closed form, -2 gamma (sqrt(k) sinh tau_m)^{-n}, so no determinant of the
entries loses digits at large n.  Its condition is the cancellation of
u = c1 U1 + c2 U2 at tau_m, (|c1 U1| + |c2 U2|)/|u|, at most 55 at n = 20
and 1.3e5 at n = 100: the digits the geometry's branch half loses beyond
tau_m.
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
and every integral shares them.  `solve_interior` keeps the last interior
and `solve_case`, the memo of `match_and_q`, the last case, one entry
each.  Those points are the same for every (n, gamma), and so is what the
sums read of them alone: the first 256 powers of w, cosh and tanh of
tau/2 at the connection point, and log cosh and tanh of tau/2 and
4/(1 + e^tau) at the table's nodes, all tabulated once, on import.  A sum is then one product of the coefficients
with a power table, which a call off the table builds for its own points
the same way; both set the powers below the smallest normal float to
exact 0, which no sum's bits can see and which spares the products their
subnormal operands.  The lattice is evaluated on import too, with what a
geometry's state reads of its nodes alone (`node_functions`), and
`de_lattice` is the one record of it: nodes, weights, the coarse nodes as
a slice, and read-only slices of those node functions.

Every case object is built from the one value that determines it:
`CentreSeries(n, gamma)` forms s itself, `frobenius_branches(p)` builds both
branches from the exact roots, and `match_and_q(p)` reads its interior
through `solve_interior(p)`.  A `ScatteringResult` carries the series it was
matched to (`interior`), so a geometry is built from the result alone and
cannot pair one case's interior with another case's c1 and Q.

The Lee eigenfunction of the eigenvalue instance s = n+1 needs no solve: it
is V = f' = sqrt(k) cosh(tau) (`ModelSpace.df_tau`), and its boundary
branch r V = 1 + k r^2/4 terminates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .special_fn import GAMMA_MAX, GAMMA_MIN, QCurvParams, d_gamma_ext

TAU_MATCH = 3.0               # connection point of the centre series and the branches
_EPS = float(np.finfo(float).eps)
_LD = np.longdouble           # 80-bit extended on x86; plain double elsewhere
_EPS_EXT = float(np.finfo(_LD).eps)
_TINY = float(np.finfo(float).tiny)      # smallest normal float
# the bound on the connection's cancellation at TAU_MATCH, the digits the
# geometry's branch half loses; at k = 1 it is first exceeded at n = 196
# (gamma = 0.05) to 215 (gamma = 0.5)
_COND_MAX = 1.7e9
_BRANCH_MAX_ORDER = 400


def _s_ext(n: int, gamma: float):
    """s = n/2 + gamma in np.longdouble, where it is exact.

    The double QCurvParams.s is rounded, so a connection made with it solves
    for gamma' = s - n/2, while Q pairs c2/c1 with d_gamma(gamma): the slope
    of d_gamma near gamma = 1 turns the rounding into 4e-15 relative at 0.95.
    """
    return _LD(n) / 2 + _LD(gamma)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, no longer writable: the tables and memoised results are shared between callers."""
    a.setflags(write=False)
    return a


class MatchingError(RuntimeError):
    """Branch matching failed (conditioning, underflow, a series that does not
    converge or a degenerate solution)."""


# ---------------------------------------------------------------------------
# Quadrature lattice
# ---------------------------------------------------------------------------

DE_STEP = 1.0 / 16.0        # coarse step h; the nodes of h/2 nest those of h
DE_T_MAX = 4.0              # tau(4) = 6e-38: the integrands vanish like tau^n below it
TAIL_E_FOLDS = 40.0         # the boundary-side rest is below e^{-40} of an integral
# the widest tau_max the package asks for: TAIL_E_FOLDS over the slowest
# boundary decay, e^{-min(2 gamma, 2 - 2 gamma) tau} at the ends of the gamma
# box (400 for [0.05, 0.95])
DE_TAU_WIDEST = TAIL_E_FOLDS / min(2 * GAMMA_MIN, 2 - 2 * GAMMA_MAX)


def _de_first(tau_max: float) -> int:
    """The index i of the lattice's first node, the first one whose tau exceeds tau_max."""
    return math.floor(-math.asinh(tau_max / math.pi) / (0.5 * DE_STEP))


def node_functions(tau):
    """e^{-tau}, -expm1(-2 tau) and 1/tanh(tau): what a geometry's state
    reads of its points alone, r = (2/sqrt(k)) e^{-tau}, phi = r f =
    1 - k r^2/4 and coth.  All three are finite on (0, inf], where tau =
    inf, the boundary r = 0, gives 0, 1 and 1."""
    return np.exp(-tau), -np.expm1(-2.0 * tau), 1.0 / np.tanh(tau)


def _de_rule(tau_max: float):
    """The nodes, weights and `node_functions` of `de_lattice`, evaluated afresh."""
    half = 0.5 * DE_STEP
    i = np.arange(_de_first(tau_max), round(DE_T_MAX / half) + 1)
    t = i * half
    z = -math.pi * np.sinh(t)
    tau = np.logaddexp(0.0, z)
    weights = half * math.pi * np.cosh(t) / (1.0 + np.exp(-z))
    return tuple(map(_read_only, (tau, weights, *node_functions(tau))))


_DE_WIDEST = _de_rule(DE_TAU_WIDEST)


def de_lattice(tau_max: float):
    """The package's one quadrature rule: nested double-exponential on (0, inf).

    tau = log(1 + e^z), z = -pi sinh t maps t in R onto (0, inf)
    (Takahasi & Mori, Publ. RIMS 9 (1974) 721-741).  The nodes are
    t = i h/2 for the integers i from the first one whose tau exceeds tau_max
    up to t = DE_T_MAX, in ascending t and so in descending tau.  tau_max moves
    only the lower end: the nodes with tau <= tau_max are the same for every
    larger tau_max.  Returns (tau, weights, coarse, nodes): the nodes, their
    weights h/2 dtau/dt at step h/2, the slice of the nodes of step h (even
    i, every other node) and `node_functions` at the nodes.  Summing G w over
    all nodes gives the rule at step h/2, and twice the sum over the coarse
    nodes gives it at step h.

    The rule and its node functions are evaluated once on import, at
    DE_TAU_WIDEST, and a lattice hands out read-only slices of them; a
    tau_max beyond DE_TAU_WIDEST, which the package never asks for, raises
    ValueError.
    """
    first = _de_first(tau_max)
    start = first - _de_first(DE_TAU_WIDEST)
    if start < 0:
        raise ValueError(f"tau_max={tau_max} beyond the widest lattice, {DE_TAU_WIDEST}")
    tau, weights, *nodes = (a[start:] for a in _DE_WIDEST)
    return tau, weights, slice(first % 2, None, 2), tuple(nodes)


# ---------------------------------------------------------------------------
# Frobenius branches at the boundary
# ---------------------------------------------------------------------------

def _term_ratio(a, b, c, j):
    """(a + j)(b + j)/((c + j)(1 + j)): the ratio of the terms j + 1 and j of
    2F1(a, b; c; x) before the power of x, in the number type of its
    arguments.  Both series of the package are built from it."""
    return (a + j) * (b + j) / ((c + j) * (1 + j))


# k r^2/4 at TAU_MATCH, e^{-2 TAU_MATCH} for every k, in np.longdouble
_Z_MATCH = np.exp(-2 * _LD(TAU_MATCH))


@dataclass(frozen=True, eq=False)
class FrobeniusBranch:
    """One branch r^mu (1 + a2 r^2 + ...): its exact root mu and its
    coefficients a_{2j}, one read-only np.longdouble array."""

    mu: float
    coeffs: np.ndarray

    def at(self, r):
        """Value and tau derivative (-r d/dr) at one radius, in np.longdouble,
        read from one term vector a_{2j} r^{2j}."""
        r, mu = _LD(r), _LD(self.mu)
        j = np.arange(len(self.coeffs))
        terms = self.coeffs * (r * r) ** j
        r_mu = r ** mu
        return r_mu * terms.sum(), -r_mu * ((mu + 2 * j) * terms).sum()


def frobenius_branches(p: QCurvParams) -> tuple[FrobeniusBranch, FrobeniusBranch]:
    """The low and high branches of validated parameters, roots n - s and s.

    The branch of root mu is r^mu 2F1(n/2, mu; 1 + mu - n/2; k r^2/4), so
    a_{2j+2} = a_{2j} (k/4) `_term_ratio`(n/2, mu, 1 + mu - n/2, j), formed
    in np.longdouble from the exact roots n - s and s (`_s_ext`).  On the
    gamma box every factor is positive (c + j >= 1 - gamma), so no term
    cancels or divides by zero.  Each series stops at its first term at
    TAU_MATCH, where k r^2/4 = e^{-6}, that is at most long-double epsilon
    of the sum there, and raises MatchingError if _BRANCH_MAX_ORDER terms do
    not reach it.
    """
    s = _s_ext(p.n, p.gamma)
    half_n, k_4 = _LD(p.n) / 2, _LD(p.k) / 4
    branches = []
    for mu in (p.n - s, s):
        c = 1 + (mu - half_n)               # mu - n/2 = +-gamma is exact
        coeffs, term, total = [_LD(1)], _LD(1), _LD(1)
        for j in range(_BRANCH_MAX_ORDER):
            ratio = _term_ratio(half_n, mu, c, j)
            coeffs.append(coeffs[-1] * k_4 * ratio)
            term *= _Z_MATCH * ratio
            total += term
            if term <= _EPS_EXT * total:
                break
        else:
            raise MatchingError(f"Frobenius series (mu={mu}) not converged after "
                                f"{_BRANCH_MAX_ORDER} terms at tau={TAU_MATCH}")
        branches.append(FrobeniusBranch(mu=mu, coeffs=_read_only(np.array(coeffs, dtype=_LD))))
    return tuple(branches)


# ---------------------------------------------------------------------------
# Interior solution
# ---------------------------------------------------------------------------

_ROOT = 16
# the terms a centre series can sum, the width of its power tables; the
# counts are at most 198 in double and 237 in long double at every n
_WIDTH = _ROOT * _ROOT


def _powers(w_ext: np.ndarray, dtype) -> np.ndarray:
    """w^j for j < _WIDTH in dtype, one row per point, from an extended-precision w.

    w^j = w^r w^{16q} for j = 16q + r, r and q < 16.  A rounded factor
    x = x_ext (1 - d) would carry its rounding j-fold into x^j, so the
    powers of each rounded factor are scaled by 1 + j d.
    """
    j = np.arange(_ROOT)

    def factor(x_ext):
        x = x_ext.astype(dtype)
        d = np.divide(x_ext - x, x_ext, out=np.zeros_like(x_ext), where=x_ext > 0)
        return np.power.outer(x, j) * (1 + np.multiply.outer(d.astype(dtype), j))

    low, high = factor(w_ext), factor(w_ext ** _ROOT)
    return (high[:, :, None] * low[:, None, :]).reshape(len(w_ext), _WIDTH)


def _summed_at(tau: np.ndarray) -> tuple:
    """What a double sum of the centre series reads of its points alone:
    the powers of w = tanh^2(tau/2) in double, log cosh(tau/2) and
    tanh(tau/2) in np.longdouble, and 4/(1 + e^tau) = 2 (1 - tanh(tau/2))
    in double."""
    half = tau.astype(_LD) / 2          # exact
    tanh = np.tanh(half)
    powers = _powers(tanh ** 2, float)
    # A power below the smallest normal float costs a microcode assist in
    # every product that reads it, and adds nothing a sum can hold: each
    # row's leading term is at least 1/(n+1), and the f_j < 1.5^256 keep
    # all such addends together below 1e-260, so zeroing them leaves every
    # sum's bits as they are, in any order of summation.
    powers[powers < _TINY] = 0.0
    return powers, np.log(np.cosh(half)), tanh, 4.0 / (1.0 + np.exp(tau))


# The points every interior is summed at, and what its sums read of them
# alone, tabulated once on import, read-only: the table's nodes, the
# lattice's nodes with tau <= TAU_MATCH in its descending order, in double,
# and at the connection point TAU_MATCH cosh(tau/2), tanh(tau/2) and the
# powers of w in np.longdouble; then w(TAU_MATCH)
_TABLE_TAU = _read_only(_DE_WIDEST[0][_DE_WIDEST[0] <= TAU_MATCH])
_TABLE_AT = tuple(map(_read_only, _summed_at(_TABLE_TAU)))
_CONNECTION_COSH, _CONNECTION_TANH = np.cosh(_LD(TAU_MATCH) / 2), np.tanh(_LD(TAU_MATCH) / 2)
_CONNECTION_POWERS = _read_only(_powers(np.array([_CONNECTION_TANH ** 2]), _LD))
_W_CONNECTION = float(_CONNECTION_TANH ** 2)


class CentreSeries:
    """u, u' and y of the regular interior solution from its series in w = tanh^2(tau/2).

    The term counts come from the coefficient ratios in double: the count
    that sums the series to double precision at w(TAU_MATCH) = 0.8193, and
    the one that sums it to long-double precision there (at most 198 and
    237 at every n), searched among the first _WIDTH terms; a series that
    needs more raises MatchingError.  Construction computes the
    coefficients f_j and f_j (s+j)/(n+1+2j) in np.longdouble up to the
    long-double count and sums them once at TAU_MATCH into `connection`,
    the pair (u, u') there in np.longdouble: a pairwise sum of their
    products with the tabulated powers of w, and the prefactor
    cosh(tau/2)^{-2s} a long-double power (exp(-2s log cosh) is up to 64
    long-double eps off there at n <= 190).  This is the interior's one
    extended-precision sum.  It keeps the coefficients in double only, up
    to the double count, with a third row f_j/(n+1+2j) for y (`_rows`), and
    sums them at the 155 lattice nodes with tau <= TAU_MATCH into the table
    tau, u, du, y: ascending, read-only views of arrays summed in the
    lattice's own descending order, so that a call at those nodes hands the
    integrator exactly what it would have summed; `build_adapted` checks
    the table for positivity.  No method changes a built series.

    A call takes tau in [0, TAU_MATCH] in double and returns u, u' and
    y = 1 + u'/((n-s) u) in double.  Every double sum, the table's and a
    call's, is one product of the rows with the powers of w at the points
    (`_summed_at`, tabulated in `_TABLE_AT` for the table), and its
    prefactors cosh(tau/2)^{-2s} = exp(-2s log cosh(tau/2)) and
    tanh(tau/2) are formed in long double and rounded once: in double their
    error would grow like s eps.  So a call at some of the table's nodes
    gives the table's values there.  No derivative of y is summed; the
    geometry takes y' and y'' from the ODE closure, written for y.
    """

    def __init__(self, n: int, gamma: float):
        self.n, self.s = n, _s_ext(n, gamma)
        counts = self._terms_needed(self._ratio(n, self.s, _WIDTH, float), _W_CONNECTION,
                                    (_EPS, _EPS_EXT))
        if counts is None:
            raise MatchingError(f"centre series (n={n}, gamma={gamma}) needs more than "
                                f"{_WIDTH} terms")
        self._terms, self._terms_ext = counts
        j = np.arange(self._terms_ext)          # integer factors, cast once
        f = np.concatenate(([_LD(1)], np.cumprod(self._ratio(n, self.s, len(j) - 1, _LD))))
        den = (n + 1 + 2 * j).astype(_LD)
        rows = np.stack((f, f * (self.s + j.astype(_LD)) / den, f / den))
        self.connection = tuple(
            self._prefactors(_CONNECTION_COSH ** (-2 * self.s), _CONNECTION_TANH)
            * (rows[:2] * _CONNECTION_POWERS[:, :len(j)]).sum(axis=-1))
        self._rows = _read_only(rows[:, :self._terms].astype(float))
        u, du, y = self._sums(_TABLE_AT)
        self.tau = _TABLE_TAU[::-1]
        self.u, self.du, self.y = (_read_only(a)[::-1] for a in (u, du, y))

    @staticmethod
    def _ratio(n: int, s, size: int, dtype) -> np.ndarray:
        """f_{j+1}/f_j = `_term_ratio`(s, gamma + 1/2, (n+1)/2, j) for j < size, in dtype.

        gamma + 1/2 = s - (n-1)/2 is taken in np.longdouble.  j stays in
        double, so the denominator, a half-integer far below 2^53, is formed
        exactly in double and cast once, by the division.
        """
        a, b = dtype(s), dtype(_LD(s) - _LD(n - 1) / 2)
        return _term_ratio(a, b, (n + 1) / 2, np.arange(size, dtype=float))

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
        tail, partial, margin = T * rho, np.cumsum(T), 1.0 - rho
        hits = (rho < 1.0) & (tail <= np.array(eps)[:, None] * partial * margin)
        first = hits.argmax(axis=1)
        if not hits[np.arange(len(eps)), first].all():
            return None
        return tuple(int(j) + 1 for j in first)

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
        return self._sums(_summed_at(tau))

    def _sums(self, at: tuple):
        """u, u' and y in double at the points `at` describes (`_summed_at`)."""
        powers, log_cosh, tanh, edge = at
        F, G, H = sums = self._rows @ powers[:, :self._terms].T
        u, du = (self._prefactors(np.exp(-2 * self.s * log_cosh), tanh).astype(float)
                 * sums[:2])
        # edge = 2 (1 - tanh(tau/2)) = 4/(1 + e^tau)
        y = (float(self.n + 1 - 2 * self.s) * H + edge * G) / F
        return u, du, y


@functools.lru_cache(maxsize=1)
def _interior(n: int, gamma: float) -> CentreSeries:
    return CentreSeries(n, gamma)


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
    """What `match_and_q`(p) returns: the matched branch data, the extracted
    Q-curvature and the interior solution they were matched to, all of the
    one case p; the one object an adapted geometry is built from
    (`CompactifiedGeometry`(result))."""

    params: QCurvParams
    c1: float
    c2: float
    scattering_value: float          # c2/c1 = S(s) 1
    q_value: float                   # (2/(n-2 gamma)) d_gamma c2/c1
    condition_estimate: float        # cancellation of c1 U1 + c2 U2 at TAU_MATCH
    branch_low: FrobeniusBranch = field(repr=False, compare=False)   # mu = n-s
    branch_high: FrobeniusBranch = field(repr=False, compare=False)  # mu = s
    interior: CentreSeries = field(repr=False, compare=False)   # the (n, gamma) series


def match_and_q(p: QCurvParams) -> ScatteringResult:
    """Extract c1, c2 and Q by connecting `solve_interior`(p) to
    `frobenius_branches`(p) in value and tau derivative at TAU_MATCH.

    c1 and c2 are np.longdouble: the centre series, both branches and the
    2x2 solve are evaluated in extended precision.  The system's determinant
    is the branches' Wronskian, in closed form, W = v1 d2 - v2 d1 =
    -2 gamma (r/phi)^n = -2 gamma (sqrt(k) sinh tau)^{-n}, so c1 and c2 are
    two cross products of the entries over W.  The condition estimate is
    the factor by which u = c1 U1 + c2 U2 cancels there,
    (|c1 v1| + |c2 v2|)/|u|: the loss of the branch sum every geometry
    evaluates beyond TAU_MATCH.
    """
    interior = solve_interior(p)
    b1, b2 = frobenius_branches(p)
    r = 2 / np.sqrt(_LD(p.k)) * np.exp(-_LD(TAU_MATCH))
    (v1, d1), (v2, d2) = b1.at(r), b2.at(r)
    u, du = interior.connection
    # the long-double r^mu, u and u' must reach the smallest normal double:
    # below it the solve runs on a few digits or none, and at n = 5000 and
    # 8000 the Wronskian below underflows to 0 and c1, c2 divide by zero
    if not (r ** max(b1.mu, b2.mu) >= _TINY and min(abs(u), abs(du)) >= _TINY):
        raise MatchingError(f"branch or interior values underflow at tau={TAU_MATCH}")
    wronskian = -2 * _LD(p.gamma) * (np.sqrt(_LD(p.k)) * np.sinh(_LD(TAU_MATCH))) ** -p.n
    c1 = (u * d2 - v2 * du) / wronskian
    c2 = (v1 * du - d1 * u) / wronskian
    if not (c1 != 0.0 and np.isfinite(c1) and np.isfinite(c2)):
        raise MatchingError(f"degenerate connection: c1={c1}, c2={c2}")
    cond = float((abs(c1 * v1) + abs(c2 * v2)) / abs(u))
    if not cond <= _COND_MAX:
        raise MatchingError(f"matching system condition {cond:.2e} above {_COND_MAX:.1e}")
    q = 2 / (p.n - 2 * _LD(p.gamma)) * d_gamma_ext(p.gamma) * (c2 / c1)
    return ScatteringResult(
        params=p, c1=float(c1), c2=float(c2), scattering_value=float(c2 / c1),
        q_value=float(q), condition_estimate=cond, branch_low=b1, branch_high=b2,
        interior=interior,
    )


@functools.lru_cache(maxsize=1)
def solve_case(p: QCurvParams) -> ScatteringResult:
    """`match_and_q`(p), memoised on the parameters, for the last case only:
    the sweep asks for a case's Q row and then its hk-adapted report, so
    the second request returns the same result, which is frozen and carries
    its interior.
    """
    return match_and_q(p)

