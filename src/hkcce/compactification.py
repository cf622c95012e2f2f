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
adapted profile is the centre series of the interior solution, with v' and
v'' from the ODE closure.  Beyond it, and on the whole line for the Lee case
(whose eigenfunction r V = 1 + k r^2/4 is a terminating branch), the state
is built from the branch coefficient lists: with D = r d/dr - m, each term of
D^k u is (mu - m + 2j)^k a_j r^{mu+2j}, and U_k = r^{-m} D^k u gives

    1 + w = -U1/(m U0),     w' = (U2 U0 - U1^2)/(m U0^2),
    w'' = -(U3 U0^2 - U2 U1 U0 - 2 (U2 U0 - U1^2) U1)/(m U0^3).

U_1..U_3 carry the factor x = r^e at which 1 + w vanishes (e = 2 gamma for
the adapted case, 2 for Lee).  With x kept factored out of 1 + w, w', w'',
S = 1 - w^2 and their combinations, nothing underflows, overflows or cancels
down to r = 0, where the same state gives the boundary values of T and Jbar.

Every assembled state is checked where it is made: T (adapted) and S = 1 - w^2,
the sign of Jbar (Lee), must be positive at each point evaluated, which
covers every quadrature node, the residual window and the boundary r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model_geometry import ModelSpace
from .scattering import RadialProfile, ScatteringResult
from .special_fn import d_gamma


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
    ddS_hat: np.ndarray
    tf_hat: np.ndarray
    rho_over_r: np.ndarray
    rho: np.ndarray
    coth: np.ndarray
    phi: np.ndarray         # 1 - k r^2/4 = r f
    dens: np.ndarray
    T: np.ndarray | None
    dT: np.ndarray | None
    ddT: np.ndarray | None

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
    for col in coeffs.T[::-1]:
        acc = acc * r2 + col[:, None]
    return acc


def _d_rows(c: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Rows lam_j^k c_j, k = 0..3: the coefficients of r^{-m} D^k u."""
    return c * exponents ** np.arange(4.0)[:, None]


class CompactifiedGeometry:
    """One compactified model geometry with dense pointwise evaluation."""

    def __init__(self, kind: str, base: ModelSpace, s: float,
                 profile: RadialProfile | None,
                 sr: ScatteringResult | None,
                 gamma: float | None):
        self.kind = kind                    # "adapted" or "lee"
        self.base = base
        self.s = float(s)
        self.m_exp = base.n - self.s        # n - s
        # 2 gamma from gamma itself: 2s - n would carry the rounding of s,
        # 4e-15 relative at gamma = 0.05, into every boundary coefficient
        self.two_gamma = 2.0 * gamma if gamma is not None else 2.0 * self.s - base.n
        self.profile = profile
        self.c1 = sr.c1 if sr is not None else 1.0
        self.boundary: dict = {}
        if sr is not None:
            self.e = self.two_gamma
            # the branch sums cancel at large n away from the boundary (1e-9
            # at tau = ln 8 for n = 60), while the centre series is accurate
            # up to its horizon, the connection point
            self.tau_branch = profile.tau_max
            low = np.asarray(sr.branch_low.coeffs, dtype=float)
            high = np.asarray(sr.branch_high.coeffs, dtype=float)
            self.q = sr.scattering_value
            self._high = _d_rows(high, self.e + 2.0 * np.arange(len(high)))
        else:
            # Lee: r V = 1 + (k/4) r^2 exactly, a branch on the whole line
            self.e = 2.0
            self.tau_branch = 0.0
            low = np.array([1.0, base.k / 4.0])
            self.q = 0.0
            self._high = np.zeros((4, 1))
        # rows k of D^k on the low branch, j >= 1 (its j = 0 term is 1 and
        # is annihilated by D), as polynomials in r^2 divided by r^2
        self._low = _d_rows(low, 2.0 * np.arange(len(low)))[:, 1:]

    # -- state assembly -------------------------------------------------------
    def state(self, tau) -> GeometryState:
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        return self._assemble(tau, np.asarray(self.base.r_of_tau(tau)))

    def state_of_r(self, r) -> GeometryState:
        """State at radii r; r = 0 is the boundary (tau = inf)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        with np.errstate(divide="ignore"):
            tau = np.asarray(self.base.tau_of_r(r))
        return self._assemble(tau, r)

    def _centre(self, tau, r, x, coth):
        """(1 + w)/x, w'/x, w''/x and rho/r from the centre series and the closure."""
        n, m = self.base.n, self.m_exp
        u, du = self.profile.evaluate(tau)
        u, du = u / self.c1, du / self.c1
        if np.any(u <= 0.0):
            raise GeometryError("scattering solution is not positive")
        v = du / u
        dv = -n * coth * v - self.s * m - v * v
        ddv = -n * (1.0 - coth * coth) * v - n * coth * dv - 2.0 * v * dv
        mx = m * x
        return (1.0 + v / m) / x, dv / mx, ddv / mx, np.power(u / np.power(r, m), 1.0 / m)

    def _branch(self, r, x):
        """(1 + w)/x, w'/x, w''/x and rho/r from the branch coefficient lists."""
        m = self.m_exp
        r2 = r * r
        low = _power_sums(self._low, r2)
        high = _power_sums(self._high, r2)
        U0 = 1.0 + r2 * low[0] + self.q * x * high[0]
        if np.any(U0 <= 0.0):
            raise GeometryError("scattering solution is not positive")
        V1, V2, V3 = np.power(r, 2.0 - self.e) * low[1:] + self.q * high[1:]   # U_k/x
        c = V2 * U0 - x * V1 * V1
        mU0 = m * U0
        return (-V1 / mU0, c / (mU0 * U0),
                -(V3 * U0 * U0 - x * V2 * V1 * U0 - 2.0 * x * c * V1) / (mU0 * U0 * U0),
                np.power(U0, 1.0 / m))

    def _assemble(self, tau, r) -> GeometryState:
        n = self.base.n
        e = self.e
        x = np.power(r, e)
        coth = 1.0 / np.tanh(tau)
        p, dp, ddp, ror = (np.empty_like(tau) for _ in range(4))
        outer = tau > self.tau_branch
        inner = ~outer
        if np.any(outer):
            p[outer], dp[outer], ddp[outer], ror[outer] = self._branch(r[outer], x[outer])
        if np.any(inner):
            p[inner], dp[inner], ddp[inner], ror[inner] = \
                self._centre(tau[inner], r[inner], x[inner], coth[inner])

        w = x * p - 1.0
        phi = -np.expm1(-2.0 * tau)
        coth_m1_hat = 0.5 * self.base.k * np.power(r, 2.0 - e) / phi    # (coth - 1)/x
        S_hat = p * (1.0 - w)
        dS_hat = -2.0 * w * dp
        ddS_hat = -2.0 * x * dp * dp - 2.0 * w * ddp
        if self.kind == "adapted":
            rf = np.power(ror, -e)           # x rho^{-2 gamma}
            T = S_hat * rf
            dT = (dS_hat - e * w * S_hat) * rf
            ddT = (ddS_hat - 2.0 * e * w * dS_hat - e * x * dp * S_hat
                   + e * e * w * w * S_hat) * rf
            positive, name = T, "T"
        else:
            T = dT = ddT = None
            positive, name = S_hat, "Jbar"   # Jbar = S_hat (n+1)/(2 (rho/r)^2)
        bad = ~(positive > 0.0)
        if np.any(bad):
            raise GeometryError(
                f"{name} is not positive at tau = {tau[np.argmax(bad)]:.6g} ({self.kind})")
        return GeometryState(
            n=n, e=e, kj=(self.two_gamma - 1.0) / 2.0,
            tau=tau, r=r, x=x, w=w, dw_hat=dp,
            S_hat=S_hat, dS_hat=dS_hat, ddS_hat=ddS_hat,
            tf_hat=dp - w * (p + coth_m1_hat),
            rho_over_r=ror, rho=r * ror, coth=coth, phi=phi,
            dens=np.power(ror * phi, n), T=T, dT=dT, ddT=ddT,
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_adapted(m: ModelSpace, sr: ScatteringResult,
                  profile: RadialProfile) -> CompactifiedGeometry:
    """Adapted compactification rho_s^2 g_+ from a matched scattering solution.

    Applies the c1 normalisation (so r^{s-n} u -> 1), checks that c1 and
    the tabulated u are positive (the table is u at the quadrature's
    interior nodes, which every radial integral reads), and reads the
    boundary value of T off the state at r = 0, against its target
    -(4 gamma/d_gamma) Q.  u > 0 and T > 0 are checked again by every state
    evaluation, this one included.
    """
    p = sr.params
    if np.any(profile.u <= 0.0):
        raise GeometryError("u_s must be positive; got a non-positive value in the profile table")
    if sr.c1 <= 0.0:
        raise GeometryError(f"c1 = {sr.c1} is not positive; normalisation undefined")
    g = CompactifiedGeometry("adapted", m, p.s, profile, sr, p.gamma)
    t_b = float(g.state_of_r(0.0).T[0])
    target = -(4.0 * p.gamma / d_gamma(p.gamma)) * sr.q_value
    g.boundary = {
        "q": sr.q_value,
        "T_boundary": t_b,
        "T_boundary_target": target,
        "T_boundary_rel_gap": abs(t_b - target) / max(abs(target), 1e-300),
    }
    return g


def build_lee(m: ModelSpace) -> CompactifiedGeometry:
    """Lee compactification (1/V)^2 g_+ with the exact eigenfunction V = f'."""
    g = CompactifiedGeometry("lee", m, float(m.n + 1), None, None, None)
    jhat = m.n * m.k / 2.0
    j_b = float(g.state_of_r(0.0).Jbar[0])
    target = (m.n + 1.0) / m.n * jhat
    g.boundary = {
        "J_hat": jhat,
        "J_boundary": j_b,
        "J_boundary_target": target,
        "J_boundary_rel_gap": abs(j_b - target) / max(abs(target), 1e-300),
    }
    return g


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


def _window_taus(g: CompactifiedGeometry, points: int = 200) -> np.ndarray:
    """Interior window r in [0.05, 0.9 r_center], log spaced, as tau values."""
    r_hi = 0.9 * g.base.r_center
    r_lo = 0.05
    rs = np.geomspace(r_lo, r_hi, points)
    return np.sort(np.asarray(g.base.tau_of_r(rs)))


def _warped_laplacian(st: GeometryState, n: int, h1: np.ndarray,
                      h2: np.ndarray) -> np.ndarray:
    """Lap_gbar of a radial scalar from its first/second tau derivatives."""
    return (h2 + (n * (st.w + st.coth) - st.w) * h1) / st.rho ** 2


def residual_suite(g: CompactifiedGeometry, points: int = 200) -> dict:
    """Pointwise defects of the compactification identities on the window.

    adapted:  res_rho   Lap rho + s rho^{2g-1} T
              res_T     Lap T + (2g-1) w T'/rho^2 + 2 rho^{-2g}|TF|^2
                        - c(g,n) T^2 rho^{2g-2}
    lee:      res_rho   Lap rho + 2 rho Jbar
              res_J     Lap J - (n-1) w J'/rho^2 + (n+1) rho^{-2} |TF|^2
    both:     jbar_crosscheck   Jbar formula vs the doubly-warped scalar
                                curvature of alpha^2 dt^2 + b^2 ghat
    """
    taus = _window_taus(g, points)
    st = g.state(taus)
    n = g.base.n
    out: dict[str, ResidualProfile] = {}

    drho = st.rho * st.w
    ddrho = st.rho * (st.dw + st.w * st.w)
    lap_rho = _warped_laplacian(st, n, drho, ddrho)
    if g.kind == "adapted":
        tg = g.two_gamma
        rhs = -g.s * np.power(st.rho, tg - 1.0) * st.T
        vals = lap_rho - rhs
        out["res_rho"] = ResidualProfile(
            "res_rho", taus, st.r, vals,
            np.abs(vals) / (1.0 + np.abs(lap_rho) + np.abs(rhs)))

        c_coef = n * (n + tg) * (tg - 1.0) / (2.0 * (n + 1.0))
        lap_T = _warped_laplacian(st, n, st.dT, st.ddT)
        # rho^{-1} <grad rho, grad T> with <grad rho, grad T> = w T'/rho
        t2 = (tg - 1.0) * st.w * st.dT / st.rho ** 2
        t3 = 2.0 * np.power(st.rho, -tg) * st.tracefree_sq
        t4 = c_coef * st.T ** 2 * np.power(st.rho, tg - 2.0)
        vals = lap_T + t2 + t3 - t4
        weight = 1.0 + np.abs(lap_T) + np.abs(t2) + np.abs(t3) + np.abs(t4)
        out["res_T"] = ResidualProfile("res_T", taus, st.r, vals, np.abs(vals) / weight)
    else:
        rhs = -2.0 * st.rho * st.Jbar
        vals = lap_rho - rhs
        out["res_rho"] = ResidualProfile(
            "res_rho", taus, st.r, vals,
            np.abs(vals) / (1.0 + np.abs(lap_rho) + np.abs(rhs)))

        lap_J = _warped_laplacian(st, n, st.dJbar, st.ddJbar)
        t2 = -(n - 1.0) * st.w * st.dJbar / st.rho ** 2
        t3 = (n + 1.0) * st.tracefree_sq / st.rho ** 2
        vals = lap_J + t2 + t3
        weight = 1.0 + np.abs(lap_J) + np.abs(t2) + np.abs(t3)
        out["res_J"] = ResidualProfile("res_J", taus, st.r, vals, np.abs(vals) / weight)

    # Jbar against the scalar curvature of the doubly warped product
    alpha = st.rho
    b = st.rho * st.f
    db = st.rho * (st.w * st.f + st.df)
    ddb = st.rho * ((st.dw + st.w * st.w) * st.f + 2.0 * st.w * st.df + st.f)
    dalpha = st.rho * st.w
    term1 = -(ddb / alpha ** 2 - db * dalpha / alpha ** 3) / b
    term2 = (n - 1.0) / 2.0 * (g.base.k - (db / alpha) ** 2) / b ** 2
    j_direct = term1 + term2
    vals = st.Jbar - j_direct
    out["jbar_crosscheck"] = ResidualProfile(
        "jbar_crosscheck", taus, st.r, vals,
        np.abs(vals) / (1.0 + np.abs(st.Jbar) + np.abs(j_direct)))
    return out
