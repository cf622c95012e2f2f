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
`residual_suite`; all derivatives are produced by analytic chain rules (v'
and v'' come from the ODE closure, never from finite differences).

Profiles are evaluated piecewise: the centre series of the interior solution
up to tau_b = ln 8 (r = 0.25/sqrt(k)), and the matched Frobenius branch
superposition beyond, which stays machine-accurate down to arbitrarily small
r and supplies the boundary layer of every radial integral.  Near the
boundary 1 + w and c - 1 are computed by cancellation-free formulas so that
smallness of order r^{2 gamma} survives in floating point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model_geometry import ModelSpace
from .scattering import TAU_BRANCH, RadialProfile, ScatteringResult
from .special_fn import d_gamma

_GRID_CENTRE = 140
_GRID_BRANCH = 120
_R_HAT_MIN = 1e-6              # innermost grid radius, as a fraction of 2/sqrt(k)


class GeometryError(RuntimeError):
    """A compactified geometry violates one of its structural requirements."""


@dataclass
class GeometryState:
    """Pointwise radial data of a compactified geometry (all numpy arrays)."""

    tau: np.ndarray
    r: np.ndarray
    u: np.ndarray          # normalised solution (r^{s-n} u -> 1)
    du: np.ndarray
    w: np.ndarray          # rho'/rho
    dw: np.ndarray
    ddw: np.ndarray
    w_plus_1: np.ndarray   # cancellation-free 1 + w (vanishes at the boundary)
    rho: np.ndarray
    rho_over_r: np.ndarray
    grad_sq: np.ndarray    # |grad rho|^2 = w^2
    S: np.ndarray          # 1 - w^2
    dS: np.ndarray
    ddS: np.ndarray
    Jbar: np.ndarray
    dJbar: np.ndarray
    ddJbar: np.ndarray
    T: np.ndarray | None
    dT: np.ndarray | None
    ddT: np.ndarray | None
    lam_rad: np.ndarray
    lam_sph: np.ndarray
    lap_rho: np.ndarray
    tracefree_sq: np.ndarray
    coth: np.ndarray
    f: np.ndarray
    df: np.ndarray
    voldens: np.ndarray    # rho^{n+1} f^n, the radial density of dV_gbar


@dataclass
class HessianSplit:
    """Unit-frame Hessian eigenvalues of rho and derived norms on the grid."""

    tau: np.ndarray
    lam_rad: np.ndarray
    lam_sph: np.ndarray
    laplacian: np.ndarray
    tracefree_sq: np.ndarray


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
        self.two_gamma = 2.0 * self.s - base.n
        self.gamma = gamma
        self.profile = profile
        self.sr = sr
        self.c1 = sr.c1 if sr is not None else 1.0
        self.c2_over_c1 = (sr.c2 / sr.c1) if sr is not None else 0.0
        self.q_value = sr.q_value if sr is not None else None
        self.boundary: dict = {}
        rc = base.r_center
        tau_hi = float(base.tau_of_r(rc * _R_HAT_MIN))
        self.grid_tau = np.unique(np.concatenate([
            np.linspace(self.profile.tau0 if profile else 1e-3, TAU_BRANCH, _GRID_CENTRE),
            np.linspace(TAU_BRANCH, tau_hi, _GRID_BRANCH),
        ]))
        self._grid_state: GeometryState | None = None

    # -- raw solution access ------------------------------------------------
    def _u_centre(self, tau):
        u, du = self.profile.evaluate(tau)
        return u / self.c1, du / self.c1

    def _u_branch(self, r):
        """Normalised u and tau-derivative from the branch superposition."""
        q = self.c2_over_c1
        b1, b2 = self.sr.branch_low, self.sr.branch_high
        u = b1.value(r) + q * b2.value(r)
        du = -r * (b1.derivative(r) + q * b2.derivative(r))
        return u, du

    # -- state assembly -------------------------------------------------------
    def state(self, tau) -> GeometryState:
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        r = np.asarray(self.base.r_of_tau(tau))
        return self._assemble(tau, r, use_branch=tau > TAU_BRANCH + 1e-12)

    def state_of_r(self, r) -> GeometryState:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        tau = np.asarray(self.base.tau_of_r(r))
        return self._assemble(tau, r, use_branch=tau > TAU_BRANCH + 1e-12)

    def _assemble(self, tau, r, use_branch) -> GeometryState:
        n, k = self.base.n, self.base.k
        m = self.m_exp
        u = np.empty_like(tau)
        du = np.empty_like(tau)
        inner = ~use_branch
        if self.kind == "lee":
            # closed form V = f' everywhere; stable in either variable
            u[:] = self.base.df_of_r(r)
            du[:] = self.base.f_of_r(r)
        else:
            if np.any(inner):
                u[inner], du[inner] = self._u_centre(tau[inner])
            if np.any(use_branch):
                u[use_branch], du[use_branch] = self._u_branch(r[use_branch])
        if np.any(u <= 0.0):
            raise GeometryError("scattering solution is not positive on the grid")

        coth = np.empty_like(tau)
        coth[inner] = 1.0 / np.tanh(tau[inner])
        coth[use_branch] = self.base.coth_tau_of_r(r[use_branch])
        f = self.base.f_of_r(r)
        df = self.base.df_of_r(r)

        lam = self.s * (n - self.s)
        v = du / u
        if self.kind == "lee":
            # closure collapses exactly: v' = (f'^2 - f^2)/f'^2 = k/f'^2,
            # v'' = -2 k f/f'^3; avoids the O(eps n) cancellation of the
            # generic form near the boundary
            dv = k / (df * df)
            ddv = -2.0 * k * f / (df * df * df)
        else:
            dv = -n * coth * v - lam - v * v
            dcoth = 1.0 - coth * coth
            ddv = -n * dcoth * v - n * coth * dv - 2.0 * v * dv
        w = v / m
        dw = dv / m
        ddw = ddv / m

        # cancellation-free 1 + w near the boundary: with N = r u_r - m u,
        # v = -(N + m u)/u so 1 + w = -N/(m u); N is built from the branch
        # series without the O(1) cancellation of v + m.
        w_plus_1 = 1.0 + w
        if self.kind == "lee":
            # w = -f/f': 1 + w = (f' - f)/f' = k e^{-t}/f' = (k r^2/2)/(1 + k r^2/4)
            w_plus_1 = (k * r * r / 2.0) / (1.0 + k * r * r / 4.0)
        elif np.any(use_branch):
            wb = self._w_plus_1_branch(r[use_branch])
            w_plus_1 = np.array(w_plus_1)
            w_plus_1[use_branch] = wb

        base = (u / np.power(r, m)) if self.kind != "lee" else u * r
        rho_over_r = np.power(base, 1.0 / m)
        rho = r * rho_over_r

        S = w_plus_1 * (1.0 - w)          # 1 - w^2 without boundary cancellation
        dS = -2.0 * w * dw
        ddS = -2.0 * dw * dw - 2.0 * w * ddw

        kj = (2.0 * self.s - n - 1.0) / 2.0
        rho2 = rho * rho
        Jbar = kj * S / rho2
        dJbar = kj * (dS - 2.0 * w * S) / rho2
        ddJbar = kj * (ddS - 2.0 * dw * S - 4.0 * w * dS + 4.0 * w * w * S) / rho2

        if self.kind == "adapted":
            tg = self.two_gamma
            rf = np.power(rho, -tg)
            T = S * rf
            dT = (dS - tg * w * S) * rf
            ddT = (ddS - 2.0 * tg * w * dS - tg * dw * S + tg * tg * w * w * S) * rf
        else:
            T = dT = ddT = None

        lam_rad = dw / rho
        lam_sph = w * (w + coth) / rho
        lap_rho = (dw + n * w * (w + coth)) / rho
        tf = dw - w * (w + coth)
        tracefree_sq = (n / (n + 1.0)) * tf * tf / rho2
        voldens = np.power(rho_over_r, n + 1) * r * np.power(self.base.phi(r), n)

        return GeometryState(
            tau=tau, r=r, u=u, du=du, w=w, dw=dw, ddw=ddw, w_plus_1=w_plus_1,
            rho=rho, rho_over_r=rho_over_r, grad_sq=w * w, S=S, dS=dS, ddS=ddS,
            Jbar=Jbar, dJbar=dJbar, ddJbar=ddJbar, T=T, dT=dT, ddT=ddT,
            lam_rad=lam_rad, lam_sph=lam_sph, lap_rho=lap_rho,
            tracefree_sq=tracefree_sq, coth=coth, f=f, df=df, voldens=voldens,
        )

    def _w_plus_1_branch(self, r):
        """1 + w = -N/(m u) with N = r u_r - m u from the branch series.

        N = c1hat r^m (r F') + c2hat r^s ((s-m) G + r G'): every term is small
        near the boundary, so no O(1) cancellation occurs.
        """
        q = self.c2_over_c1
        m, s = self.m_exp, self.s
        b1, b2 = self.sr.branch_low, self.sr.branch_high
        rFp = b1.r_series_derivative(r)
        rGp = b2.r_series_derivative(r)
        G = b2.series(r)
        rm = np.power(r, m)
        rs = np.power(r, s)
        u = rm * b1.series(r) + q * rs * G
        N = rm * rFp + q * rs * ((s - m) * G + rGp)
        return -N / (m * u)

    # -- cached grid state and CSV dump ---------------------------------------
    def grid_state(self) -> GeometryState:
        if self._grid_state is None:
            self._grid_state = self.state(self.grid_tau)
        return self._grid_state

    def dump_csv(self, path, residuals: dict | None = None):
        """Profile dump: t, r, rho, drho, grad_sq, T_or_J, res_rho, res_T_or_J."""
        if residuals is None:
            residuals = residual_suite(self)
        res_rho = residuals["res_rho"]
        res_other = residuals["res_T" if self.kind == "adapted" else "res_J"]
        st = self.state(res_rho.tau)
        tq = st.T if self.kind == "adapted" else st.Jbar
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "r", "rho", "drho", "grad_sq", "T_or_J",
                         "res_rho", "res_T_or_J"])
            for i in range(len(res_rho.tau)):
                wr.writerow([
                    f"{res_rho.tau[i] + self.base.t0:.15g}", f"{st.r[i]:.15g}",
                    f"{st.rho[i]:.15g}", f"{st.w[i] * st.rho[i]:.15g}",
                    f"{st.grad_sq[i]:.15g}", f"{tq[i]:.15g}",
                    f"{res_rho.values[i]:.15g}", f"{res_other.values[i]:.15g}",
                ])


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _ladder_exponents(gamma: float, count: int = 5) -> list[float]:
    """Correction exponents of boundary quantities: {2a g + 2b (1-g) + 2c}."""
    cands = set()
    for a in range(0, 5):
        for b in range(0, 5):
            for c in range(0, 3):
                e = 2.0 * a * gamma + 2.0 * b * (1.0 - gamma) + 2.0 * c
                if 1e-9 < e <= 3.5:
                    cands.add(round(e, 9))
    out: list[float] = []
    for e in sorted(cands):
        if not out or e - out[-1] > 1e-6:
            out.append(e)
    return out[:count]


def _ladder_extrapolate(values: np.ndarray, radii: np.ndarray,
                        exponents: list[float]) -> float:
    """Fit  value(r) = v0 + sum c_i r^{e_i}  and return v0."""
    cols = [np.ones_like(radii)] + [radii ** e for e in exponents]
    A = np.vstack(cols).T
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    return float(coef[0])


def build_adapted(m: ModelSpace, sr: ScatteringResult,
                  profile: RadialProfile) -> CompactifiedGeometry:
    """Adapted compactification rho_s^2 g_+ from a matched scattering solution.

    Applies the c1 normalisation (so r^{s-n} u -> 1), enforces positivity of
    u, and extrapolates the boundary value of T by a generalised Richardson
    ladder at r0 = 0.05/sqrt(k) against its target -(4 gamma/d_gamma) Q.
    """
    p = sr.params
    if np.any(profile.u <= 0.0):
        raise GeometryError("u_s must be positive; got a non-positive value on the grid")
    if sr.c1 <= 0.0:
        raise GeometryError(f"c1 = {sr.c1} is not positive; normalisation undefined")
    g = CompactifiedGeometry("adapted", m, p.s, profile, sr, p.gamma)
    st = g.grid_state()
    if np.any(st.T <= 0.0):
        raise GeometryError("T_s is not positive on the geometry grid")

    r0 = 0.05 / math.sqrt(m.k)
    radii = r0 / 2.0 ** np.arange(6, dtype=float)
    t_vals = g.state_of_r(radii).T
    exps = _ladder_exponents(p.gamma)
    t_b = _ladder_extrapolate(t_vals, radii, exps)
    target = -(4.0 * p.gamma / d_gamma(p.gamma)) * sr.q_value
    g.boundary = {
        "q": sr.q_value,
        "T_boundary": t_b,
        "T_boundary_target": target,
        "T_boundary_rel_gap": abs(t_b - target) / max(abs(target), 1e-300),
    }
    if abs(2.0 * p.gamma - 1.0) < 1e-12:
        g.boundary["Hbar"] = m.n * sr.q_value   # Hbar = n Q_1 at gamma = 1/2
    return g


def build_lee(m: ModelSpace) -> CompactifiedGeometry:
    """Lee compactification (1/V)^2 g_+ with the exact eigenfunction V = f'."""
    g = CompactifiedGeometry("lee", m, float(m.n + 1), None, None, None)
    st = g.grid_state()
    if np.any(st.Jbar <= 0.0):
        raise GeometryError("Jbar_L is not positive on the geometry grid")
    jhat = m.n * m.k / 2.0
    r0 = 0.05 / math.sqrt(m.k)
    radii = r0 / 2.0 ** np.arange(4, dtype=float)
    j_vals = g.state_of_r(radii).Jbar
    j_b = _ladder_extrapolate(j_vals, radii, [2.0, 4.0])
    target = (m.n + 1.0) / m.n * jhat
    g.boundary = {
        "J_hat": jhat,
        "J_boundary": j_b,
        "J_boundary_target": target,
        "J_boundary_rel_gap": abs(j_b - target) / max(abs(target), 1e-300),
    }
    return g


# ---------------------------------------------------------------------------
# Hessian split and residual suite
# ---------------------------------------------------------------------------

def hessian_split(g: CompactifiedGeometry) -> HessianSplit:
    """Unit-frame Hessian eigenvalues of rho, with the trace identity enforced.

    The trace lam_rad + n lam_sph must match the Laplacian computed by the
    direct product-rule formula (alpha b^n)^{-1} (b^n rho'/alpha)'; a relative
    mismatch above 1e-6 wherever |Lap rho| > 1e-6 raises GeometryError.
    """
    st = g.grid_state()
    n = g.base.n
    lap = st.lam_rad + n * st.lam_sph
    # direct route with the explicit warped-product factors
    alpha = st.rho
    dalpha = st.rho * st.w
    b = st.rho * st.f
    db = st.rho * (st.w * st.f + st.df)
    drho = st.rho * st.w
    ddrho = st.rho * (st.dw + st.w * st.w)
    direct = ddrho / alpha ** 2 + n * (db / b) * drho / alpha ** 2 \
        - (dalpha / alpha) * drho / alpha ** 2
    # The termwise sum loses significance where w^2/rho dwarfs the Laplacian
    # (boundary degeneration); check only where the direct route carries at
    # least ~8 digits, i.e. away from the last three decades of r.
    mask = (np.abs(direct) > 1e-6) & (st.r > 1e-3 * g.base.r_center)
    if np.any(mask):
        rel = np.max(np.abs(lap[mask] - direct[mask]) / np.abs(direct[mask]))
        if rel > 1e-6:
            raise GeometryError(f"Hessian trace identity violated: rel error {rel:.2e}")
    return HessianSplit(tau=st.tau, lam_rad=st.lam_rad, lam_sph=st.lam_sph,
                        laplacian=lap, tracefree_sq=st.tracefree_sq)


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
