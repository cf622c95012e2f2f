"""Adapted and Lee compactifications of the model spaces, with pointwise
verification of their elliptic identities.

For the compactified metric gbar = rho^2 g_+ built from a radial solution u
(rho = u^{1/(n-s)}, with s = n/2 + gamma for the adapted case and s = n+1 for
the Lee case) everything reduces to scalar profiles of tau.  Writing
v = u'/u, m = n - s, w = v/m and c = coth(tau) = f'/f:

    rho'/rho = w,      |grad rho|^2_gbar = w^2,
    unit-frame Hessian eigenvalues of rho:
        lam_rad = w'/rho,   lam_sph = w (w + c)/rho,
    Lap_gbar h = [h'' + (n (w + c) - w) h'] / rho^2  for radial h,
    <grad rho, grad h>_gbar = w h' / rho.

The scalar curvature quantity Jbar = ((2s-n-1)/2)(1 - w^2)/rho^2 and (for the
adapted case) T = (1 - w^2) rho^{-2 gamma} then satisfy, whenever u solves
the scattering ODE, the Laplacian and Bochner-type identities checked by
`residual_suite`; all derivatives are produced by analytic chain rules,
never by finite differences.

Profiles are evaluated piecewise.  Up to the connection point tau_m = 3 the
adapted profile is the centre series that the scattering result carries
(`ScatteringResult.interior`), with (1 + w)' and (1 + w)'' from the closure.
An adapted geometry is built from that one result, `CompactifiedGeometry(sr)`,
which fixes its model (n, k), s, gamma, c1 and Q as well, and a Lee
geometry from its model alone, `CompactifiedGeometry(model)`.  Beyond
tau_m, and on the whole line for the Lee case (whose eigenfunction
r V = 1 + k r^2/4 is a terminating branch), the state is built from the
branch coefficients, rounded to double: with
D = r d/dr - m, each term of D^k u is (mu - m + 2j)^k a_j r^{mu+2j}, and
U_k = r^{-m} D^k u gives

    1 + w = -U1/(m U0),     w' = (U2 U0 - U1^2)/(m U0^2),
    w'' = -(U3 U0^2 - U2 U1 U0 - 2 (U2 U0 - U1^2) U1)/(m U0^3).

U_1..U_3 carry the factor x = r^e at which 1 + w vanishes (e = 2 gamma for
the adapted case, 2 for Lee).  With x kept factored out of 1 + w, w', w'',
S = 1 - w^2 and their combinations, nothing underflows, overflows or cancels
down to r = 0, where the same state gives the boundary values of T and Jbar.

Every assembled state is checked where it is made: T (adapted) and S = 1 - w^2,
the sign of Jbar (Lee), must be positive at each point evaluated, which
covers every quadrature node, the residual window and the boundary r = 0.

Each geometry assembles each state it reads once, on first use, never at
build time.  Every state reads r, phi = -expm1(-2 tau) and coth of its
points from `node_functions`: `lattice`, read by the integrator, is the
`de_lattice` nodes for the geometry's boundary decay rate, with the node
functions tabulated there, and the other states evaluate them at their own
points.  The centre series' closure alone reads coth - 1 = 2/expm1(2 tau),
at its own points; every assembly takes r^{2-e} once, for the branch
sums and (coth - 1)/x alike.  `boundary` assembles the one point
r = 0 (tau = inf) on its own, so `hkcce residuals`, which reads `boundary`
but no integral, assembles no lattice.  Both are first order: every
integrand and `boundary` read only w, w', S, S', T, T' and their companions,
so they leave out w'', S'' and T'' (None in the state), and their branch
sums skip the D^3 rows.  `window` (the residual window, read by
`residual_suite`), `state` and `state_of_r` give the full state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model_geometry import ModelSpace
from .scattering import TAIL_E_FOLDS, TAU_MATCH, ScatteringResult, de_lattice, node_functions
from .special_fn import d_gamma

_WINDOW_POINTS = 200       # log-spaced radii of the residual window


class GeometryError(RuntimeError):
    """A compactified geometry violates one of its structural requirements."""


@dataclass
class GeometryState:
    """Pointwise radial data of a compactified geometry (numpy arrays).

    The *_hat fields are divided by x = r^e: dw_hat = w'/x, S_hat = S/x,
    dS_hat = S'/x, ddS_hat = S''/x for S = 1 - w^2, and tf_hat = tf/x for
    tf = w' - w (w + coth), rho times the trace-free radial Hessian
    eigenvalue of rho.  These, T and its derivatives and
    dens = (rho phi / r)^n, where dV_gbar = rho dens dtau dS_ghat, are finite
    for every r in [0, 2/sqrt(k)).  The warp f and the Jbar and |TF|^2
    properties grow like negative powers of r and are computed on first
    access only.
    """

    n: int
    e: float                # boundary exponent: 1 + w = O(r^e)
    kj: float               # (2s - n - 1)/2, the factor of Jbar
    tau: np.ndarray
    r: np.ndarray
    x: np.ndarray           # r^e
    w: np.ndarray           # rho'/rho
    dw_hat: np.ndarray
    S_hat: np.ndarray
    dS_hat: np.ndarray
    ddS_hat: np.ndarray | None      # None in a first-order (lattice, boundary) state
    tf_hat: np.ndarray
    rho_over_r: np.ndarray
    rho: np.ndarray
    coth: np.ndarray
    phi: np.ndarray         # 1 - k r^2/4 = r f
    dens: np.ndarray
    T: np.ndarray | None
    dT: np.ndarray | None
    ddT: np.ndarray | None  # None for Lee and in the first-order state

    @property
    def dw(self):
        return self.x * self.dw_hat

    @property
    def grad_sq(self):
        return self.w * self.w

    @cached_property
    def f(self):
        return self.phi / self.r

    @cached_property
    def df(self):
        return (2.0 - self.phi) / self.r

    @cached_property
    def _j_scale(self):
        # kj x / rho^2, exact at r = 0 when e = 2
        return self.kj * np.power(self.r, self.e - 2.0) / self.rho_over_r ** 2

    @cached_property
    def Jbar(self):
        return self.S_hat * self._j_scale

    @cached_property
    def dJbar(self):
        return (self.dS_hat - 2.0 * self.w * self.S_hat) * self._j_scale

    @cached_property
    def ddJbar(self):
        w = self.w
        return (self.ddS_hat - 2.0 * self.dw * self.S_hat - 4.0 * w * self.dS_hat
                + 4.0 * w * w * self.S_hat) * self._j_scale

    @cached_property
    def tracefree_sq(self):
        """|TF Hess_gbar rho|^2 = n/(n+1) tf^2/rho^2."""
        tf_over_rho = self.tf_hat * np.power(self.r, self.e - 1.0) / self.rho_over_r
        return self.n / (self.n + 1.0) * tf_over_rho * tf_over_rho


def _power_sums(coeffs: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Each row of coeffs summed as a polynomial in r2; shape (rows, points)."""
    acc = np.zeros((coeffs.shape[0], r2.size))
    for col in coeffs.T[::-1, :, None]:
        acc *= r2
        acc += col
    return acc


def _d_rows(c: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Rows lam_j^k c_j, k = 0..3: the coefficients of r^{-m} D^k u."""
    return c * exponents ** np.arange(4.0)[:, None]


class Lattice(NamedTuple):
    """The quadrature state of one geometry, from one assembly."""

    state: GeometryState     # first order, at the `de_lattice` nodes, in their order
    weights: np.ndarray      # h/2 dtau/dt at step h/2
    coarse: slice            # the nodes of step h, every other node


class CompactifiedGeometry:
    """One compactified model geometry with dense pointwise evaluation.

    Built from the one value that determines it: a scattering result gives
    the adapted geometry of its model ModelSpace(n, k), reading its s,
    gamma, c1, Q, branches and interior series; a ModelSpace gives its Lee
    geometry (s = n + 1, gamma None).
    """

    def __init__(self, source: ScatteringResult | ModelSpace):
        if isinstance(source, ScatteringResult):
            self.base = base = ModelSpace(source.params.n, source.params.k)
            self.kind = "adapted"
            self.s, self.gamma = source.params.s, source.params.gamma
            # 2 gamma from gamma itself: 2s - n would carry the rounding of s,
            # 4e-15 relative at gamma = 0.05, into every boundary coefficient
            self.e = 2.0 * self.gamma
            self.kj = (self.e - 1.0) / 2.0          # (2s - n - 1)/2, the factor of Jbar
            self.interior, self.c1 = source.interior, source.c1
            self.q_value, self.q = source.q_value, source.scattering_value
            # the branches are summed to read tau >= TAU_MATCH only, where
            # their sum still cancels at large n (by `condition_estimate`),
            # while the centre series is accurate up to its horizon, there
            self.tau_branch = TAU_MATCH
            low = source.branch_low.coeffs.astype(float)
            high = source.branch_high.coeffs.astype(float)
        else:
            self.base = base = source
            self.kind = "lee"
            self.s, self.gamma = float(base.n + 1), None
            self.kj = (base.n + 1.0) / 2.0
            self.interior, self.c1 = None, 1.0
            self.q_value, self.q = None, 0.0
            # Lee: r V = 1 + (k/4) r^2 exactly, a branch on the whole line
            self.e = 2.0
            self.tau_branch = 0.0
            low = np.array([1.0, base.k / 4.0])
            high = np.zeros(1)
        self.m_exp = base.n - self.s        # n - s
        # rows k of D^k on the low branch, j >= 1 (its j = 0 term is 1 and
        # is annihilated by D), as polynomials in r^2 divided by r^2, and
        # the same rows of the high branch; zero-padded to one length, which
        # leaves every Horner sum exact (0 r^2 + 0 = 0).  Row order: low
        # k = 0..2, high k = 0..2, then the two D^3 rows, which a first-order
        # state does not sum
        rows = (_d_rows(low, 2.0 * np.arange(len(low)))[:, 1:],
                _d_rows(high, self.e + 2.0 * np.arange(len(high))))
        self._rows = np.zeros((8, max(a.shape[1] for a in rows)))
        for a, at in zip(rows, ([0, 1, 2, 6], [3, 4, 5, 7])):
            self._rows[at, :a.shape[1]] = a

    # -- quadrature state and boundary values ---------------------------------
    @cached_property
    def lattice(self) -> Lattice:
        """The `de_lattice` nodes, assembled once, on first use.

        The integrands decay towards the boundary at least like e^{-a tau},
        a = min(2 gamma, 2 - 2 gamma, 1) (a = 1 for Lee), so the nodes run
        out to tau = TAIL_E_FOLDS/a.  Up to the connection point the adapted
        state reads u, u' and 1 + w off the interior's table, which holds
        exactly these nodes, and everywhere r, phi and coth off the
        `node_functions` the lattice tabulates.  The state is first order: no
        integrand reads w'', ddS_hat or ddT, so they are not assembled.
        """
        rate = min(self.e, 2.0 - self.e, 1.0) if self.kind == "adapted" else 1.0
        tau, weights, coarse, (exp_neg, *nodes) = de_lattice(TAIL_E_FOLDS / rate)
        # r = (2/sqrt(k)) e^{-tau}, from the tabulated e^{-tau}
        r = (2.0 / math.sqrt(self.base.k)) * exp_neg
        return Lattice(self._assemble(tau, r, nodes, second_order=False), weights, coarse)

    @cached_property
    def boundary(self) -> dict:
        """T (adapted) or Jbar (Lee) at r = 0 (tau = inf), from a first-order
        state of that one point, against its target: -(4 gamma/d_gamma) Q,
        or (n+1)/n Jhat."""
        tau = np.array([np.inf])
        st = self._assemble(tau, np.zeros(1), node_functions(tau)[1:], second_order=False)
        if self.kind == "adapted":
            t_b = float(st.T[0])
            target = -(4.0 * self.gamma / d_gamma(self.gamma)) * self.q_value
            return {
                "q": self.q_value,
                "T_boundary": t_b,
                "T_boundary_target": target,
                "T_boundary_rel_gap": abs(t_b - target) / max(abs(target), 1e-300),
            }
        n = self.base.n
        jhat = n * self.base.k / 2.0
        j_b = float(st.Jbar[0])
        target = (n + 1.0) / n * jhat
        return {
            "J_hat": jhat,
            "J_boundary": j_b,
            "J_boundary_target": target,
            "J_boundary_rel_gap": abs(j_b - target) / max(abs(target), 1e-300),
        }

    @cached_property
    def window(self) -> GeometryState:
        """The full state on the residual window, r in [0.05, 0.9 r_center]
        at log-spaced radii, in ascending tau; assembled once, on first use."""
        rs = np.geomspace(0.05, 0.9 * self.base.r_center, _WINDOW_POINTS)
        return self.state(np.sort(np.asarray(self.base.tau_of_r(rs))))

    # -- state assembly -------------------------------------------------------
    def state(self, tau) -> GeometryState:
        """State at tau in (0, inf]; tau = inf is the boundary r = 0.  The
        centre tau = 0, where the radial frame is singular, a negative tau
        and NaN raise ValueError."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        off = ~(tau > 0.0)
        if off.any():
            raise ValueError(f"tau={tau[off][0]} outside (0, inf]")
        exp_neg, *nodes = node_functions(tau)
        # r = (2/sqrt(k)) e^{-tau}, the lattice's product
        return self._assemble(tau, (2.0 / math.sqrt(self.base.k)) * exp_neg, nodes)

    def state_of_r(self, r) -> GeometryState:
        """State at radii r in [0, r_center); r = 0 is the boundary
        (tau = inf).  Any other r, NaN included, raises ValueError."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        off = ~((0.0 <= r) & (r < self.base.r_center))
        if off.any():
            raise ValueError(f"r={r[off][0]} outside [0, {self.base.r_center})")
        with np.errstate(divide="ignore"):
            tau = np.asarray(self.base.tau_of_r(r))
        return self._assemble(tau, r, node_functions(tau)[1:])

    def _centre(self, tau, r, x, coth, second_order):
        """(1 + w)/x, w'/x, rho/r and, if second_order, w''/x from the
        centre series (u, u', y = 1 + w) and the closure written for y,
        y' = -n (coth - 1) w - 2 gamma y - m y^2, whose terms are of the
        size of y' where y is small.  The closure for v cancels terms of
        size n m there: 1e-14 in w' at tau = 2.7, n = 10, gamma = 0.84.
        coth - 1 is 2/expm1(2 tau), formed here, its one reader."""
        n, m, e = self.base.n, self.m_exp, self.e
        u, du, y = self.interior(tau)
        w = du / (m * u)
        u = u / self.c1
        if np.any(u <= 0.0):
            raise GeometryError("scattering solution is not positive")
        coth_m1 = 2.0 / np.expm1(2.0 * tau)
        dy = -n * coth_m1 * w - e * y - m * y * y
        out = (y / x, dy / x, np.power(u / np.power(r, m), 1.0 / m))
        if not second_order:
            return out
        ddy = n * coth_m1 * (coth + 1.0) * w - (n * coth_m1 + e + 2.0 * m * y) * dy
        return out + (ddy / x,)

    def _branch(self, r, x, low_scale, second_order):
        """(1 + w)/x, w'/x, rho/r and, if second_order, w''/x from the
        branch coefficient lists; low_scale is r^{2-e}."""
        m = self.m_exp
        r2 = r * r
        sums = _power_sums(self._rows if second_order else self._rows[:6], r2)
        U0 = 1.0 + r2 * sums[0] + self.q * x * sums[3]
        if np.any(U0 <= 0.0):
            raise GeometryError("scattering solution is not positive")
        V1, V2 = low_scale * sums[1:3] + self.q * sums[4:6]        # U_k/x
        c = V2 * U0 - x * V1 * V1
        mU0 = m * U0
        out = (-V1 / mU0, c / (mU0 * U0), np.power(U0, 1.0 / m))
        if not second_order:
            return out
        V3 = low_scale * sums[6] + self.q * sums[7]
        return out + (-(V3 * U0 * U0 - x * V2 * V1 * U0 - 2.0 * x * c * V1)
                      / (mU0 * U0 * U0),)

    def _assemble(self, tau, r, nodes, second_order=True) -> GeometryState:
        """The state at (tau, r), where nodes are phi = -expm1(-2 tau) and
        coth = 1/tanh(tau) as `node_functions` gives them; with
        second_order=False (the lattice's and the boundary's state) w'',
        ddS_hat and ddT are left out and set to None."""
        n = self.base.n
        e = self.e
        x = np.power(r, e)
        r_2e = np.power(r, 2.0 - e)
        phi, coth = nodes
        cols = np.empty((4 if second_order else 3, len(tau)))
        outer = tau > self.tau_branch
        split = int(np.count_nonzero(outer))
        if outer[:split].all():
            # the branch points are a prefix (the lattice runs in descending
            # tau): slices take views where masks would copy
            outer, inner = slice(None, split), slice(split, None)
        else:
            inner = ~outer
        if tau[outer].size:
            cols[:, outer] = self._branch(r[outer], x[outer], r_2e[outer], second_order)
        if tau[inner].size:
            cols[:, inner] = self._centre(tau[inner], r[inner], x[inner], coth[inner],
                                          second_order)
        p, dp, ror = cols[:3]
        ddp = cols[3] if second_order else None

        w = x * p - 1.0
        coth_m1_hat = 0.5 * self.base.k * r_2e / phi    # (coth - 1)/x
        S_hat = p * (1.0 - w)
        dS_hat = -2.0 * w * dp
        ddS_hat = -2.0 * x * dp * dp - 2.0 * w * ddp if second_order else None
        T = dT = ddT = None
        if self.kind == "adapted":
            rf = np.power(ror, -e)           # x rho^{-2 gamma}
            T = S_hat * rf
            dT = (dS_hat - e * w * S_hat) * rf
            if second_order:
                ddT = (ddS_hat - 2.0 * e * w * dS_hat - e * x * dp * S_hat
                       + e * e * w * w * S_hat) * rf
            positive, name = T, "T"
        else:
            positive, name = S_hat, "Jbar"   # Jbar = S_hat (n+1)/(2 (rho/r)^2)
        bad = ~(positive > 0.0)
        if np.any(bad):
            raise GeometryError(
                f"{name} is not positive at tau = {tau[np.argmax(bad)]:.6g} ({self.kind})")
        return GeometryState(
            n=n, e=e, kj=self.kj,
            tau=tau, r=r, x=x, w=w, dw_hat=dp,
            S_hat=S_hat, dS_hat=dS_hat, ddS_hat=ddS_hat,
            tf_hat=dp - w * (p + coth_m1_hat),
            rho_over_r=ror, rho=r * ror, coth=coth, phi=phi,
            dens=np.power(ror * phi, n), T=T, dT=dT, ddT=ddT,
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_adapted(sr: ScatteringResult) -> CompactifiedGeometry:
    """Adapted compactification rho_s^2 g_+ from a matched scattering solution.

    `CompactifiedGeometry`(sr), whose model is the result's (n, k) and
    whose interior is its series, after checking that c1 and the tabulated
    u are positive (the table is u at the quadrature's interior nodes,
    which every radial integral reads); the geometry applies the c1
    normalisation (so r^{s-n} u -> 1).  u > 0 and T > 0 are checked again by
    every state evaluation, the r = 0 point (`boundary`) included.
    """
    if np.any(sr.interior.u <= 0.0):
        raise GeometryError("u_s must be positive; got a non-positive value in the interior table")
    if sr.c1 <= 0.0:
        raise GeometryError(f"c1 = {sr.c1} is not positive; normalisation undefined")
    return CompactifiedGeometry(sr)


def build_lee(m: ModelSpace) -> CompactifiedGeometry:
    """Lee compactification (1/V)^2 g_+ with the exact eigenfunction V = f':
    `CompactifiedGeometry`(m).

    Nothing is evaluated here: `boundary` assembles Jbar at r = 0, against
    (n+1)/n Jhat, when it is first asked for.
    """
    return CompactifiedGeometry(m)


# ---------------------------------------------------------------------------
# Residual suite
# ---------------------------------------------------------------------------

@dataclass
class ResidualProfile:
    """One named identity residual sampled over the interior window."""

    name: str
    tau: np.ndarray
    r: np.ndarray
    values: np.ndarray       # raw lhs - rhs
    weighted: np.ndarray     # |lhs - rhs| / (1 + |lhs| + |rhs|)
    sup_weighted: float = field(init=False)

    def __post_init__(self):
        self.sup_weighted = float(np.max(self.weighted)) if len(self.weighted) else 0.0


def _warped_laplacian(st: GeometryState, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Lap_gbar of a radial scalar from its first/second tau derivatives."""
    return (h2 + (st.n * (st.w + st.coth) - st.w) * h1) / st.rho ** 2


def residual_suite(g: CompactifiedGeometry) -> dict:
    """Pointwise defects of the compactification identities on `g.window`.

    adapted:  res_rho   Lap rho + s rho^{2g-1} T
              res_T     Lap T + (2g-1) w T'/rho^2 + 2 rho^{-2g}|TF|^2
                        - c(g,n) T^2 rho^{2g-2}
    lee:      res_rho   Lap rho + 2 rho Jbar
              res_J     Lap J - (n-1) w J'/rho^2 + (n+1) rho^{-2} |TF|^2
    both:     jbar_crosscheck   Jbar formula vs the doubly-warped scalar
                                curvature of alpha^2 dt^2 + b^2 ghat
    """
    st = g.window
    n = g.base.n
    out: dict[str, ResidualProfile] = {}

    def record(name, *terms):
        """out[name]: the terms summed in the order given, and weighted by
        1 + the sum of their moduli."""
        vals, weight = terms[0], 1.0 + np.abs(terms[0])
        for term in terms[1:]:
            vals = vals + term
            weight = weight + np.abs(term)
        out[name] = ResidualProfile(name, st.tau, st.r, vals, np.abs(vals) / weight)

    drho = st.rho * st.w
    ddrho = st.rho * (st.dw + st.w * st.w)
    lap_rho = _warped_laplacian(st, drho, ddrho)
    if g.kind == "adapted":
        tg = g.e
        record("res_rho", lap_rho, g.s * np.power(st.rho, tg - 1.0) * st.T)
        c_coef = n * (n + tg) * (tg - 1.0) / (2.0 * (n + 1.0))
        # rho^{-1} <grad rho, grad T> with <grad rho, grad T> = w T'/rho
        record("res_T", _warped_laplacian(st, st.dT, st.ddT),
               (tg - 1.0) * st.w * st.dT / st.rho ** 2,
               2.0 * np.power(st.rho, -tg) * st.tracefree_sq,
               -c_coef * st.T ** 2 * np.power(st.rho, tg - 2.0))
    else:
        record("res_rho", lap_rho, 2.0 * st.rho * st.Jbar)
        record("res_J", _warped_laplacian(st, st.dJbar, st.ddJbar),
               -(n - 1.0) * st.w * st.dJbar / st.rho ** 2,
               (n + 1.0) * st.tracefree_sq / st.rho ** 2)

    # Jbar against the scalar curvature of the doubly warped product
    alpha = st.rho
    b = st.rho * st.f
    db = st.rho * (st.w * st.f + st.df)
    ddb = st.rho * ((st.dw + st.w * st.w) * st.f + 2.0 * st.w * st.df + st.f)
    dalpha = st.rho * st.w
    term1 = -(ddb / alpha ** 2 - db * dalpha / alpha ** 3) / b
    term2 = (n - 1.0) / 2.0 * (g.base.k - (db / alpha) ** 2) / b ** 2
    record("jbar_crosscheck", st.Jbar, -(term1 + term2))
    return out
