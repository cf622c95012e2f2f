"""Quadrature engine and verdicts for the Heintze-Karcher type inequalities.

Every verification reduces to radial integrals of the form

    I = Vol(M, ghat) * int_0^inf G(tau) dtau,
    G = (integrand in rho, T or Jbar, their derivatives) * rho^{n+1} f^n,

computed by one nested double-exponential rule over the whole radial line
(Takahasi & Mori, Publ. RIMS 9 (1974) 721-741): tau = log(1 + e^{-pi sinh t})
maps t in R onto (0, inf), and the trapezoidal sums at steps h and h/2 give
the value and its error estimate.  The integrands are written in scale-safe
form (rho^{2 gamma} (rho phi/r)^n rather than rho^{2 gamma - 1} rho^{n+1} f^n),
so every node, out to tau = 400 (r ~ 1e-174 at k = 1), is finite.

Verdicts: `equality` when |lhs - rhs| <= 10 tol |lhs|, `strict` when the
gap of an inequality additionally exceeds 1e-3 |lhs| (the observed gaps for
gamma != 1/2 are order one), `fail` for a violated inequality or an identity
that does not balance, `inconclusive` when the quadrature error estimate
cannot support a call.  Every report documents the exact conformal weight of
its integrals under the boundary rescaling k, so that two runs at different
k can be compared against k^weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compactification import CompactifiedGeometry, build_adapted, build_lee
from .model_geometry import ModelSpace, mean_curvature_exact
from .scattering import lee_potential_exact, solve_case
from .special_fn import QCurvParams, d_gamma, hk_constant, sphere_volume

_EPS = 2.220446049250313e-16
_DE_STEP = 1.0 / 16.0       # coarse step h; the nodes of h/2 nest those of h
_DE_T_MAX = 4.0             # tau(4) = 6e-38: G vanishes like tau^n below it
_TAIL_E_FOLDS = 40.0        # the boundary-side rest is below e^{-40} of the integral


# ---------------------------------------------------------------------------
# Radial integration
# ---------------------------------------------------------------------------

def _gl_nodes(a: np.ndarray, b: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights for a batch of intervals [a_i, b_i]."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


class RadialIntegrator:
    """Nested double-exponential rule over one compactified geometry.

    The state is evaluated once, at the nodes of step h/2; every integral
    reuses it.  The integrands decay towards the boundary at least like
    e^{-a tau} with a = min(2 gamma, 2 - 2 gamma, 1) (a = 1 for Lee), so the
    nodes run out to tau_max = 40/a.
    """

    def __init__(self, geom: CompactifiedGeometry):
        self.geom = geom
        e = geom.e
        rate = min(e, 2.0 - e, 1.0) if geom.kind == "adapted" else 1.0
        t_min = -math.asinh(_TAIL_E_FOLDS / rate / math.pi)
        half = 0.5 * _DE_STEP
        i = np.arange(math.floor(t_min / half), round(_DE_T_MAX / half) + 1)
        t = i * half
        z = -math.pi * np.sinh(t)
        self.coarse = i % 2 == 0
        self.weights = half * math.pi * np.cosh(t) / (1.0 + np.exp(-z))   # h/2 dtau/dt
        self.state = geom.state(np.logaddexp(0.0, z))

    def levels(self, g_fn):
        """Trapezoidal sums at steps h and h/2 of int_0^inf G dtau."""
        g = g_fn(self.state) * self.weights
        return 2.0 * float(np.sum(g[self.coarse])), float(np.sum(g))

    def integrate(self, g_fn):
        """(value, err_est) of Vol-normalised int_0^inf G dtau.

        g_fn maps a GeometryState to the integrand values G(tau).  The
        estimate is the change from step h to h/2 plus a roundoff floor.
        """
        coarse, fine = self.levels(g_fn)
        return fine, abs(fine - coarse) + 50.0 * _EPS * abs(fine)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

VERDICTS = ("equality", "strict", "fail", "inconclusive")


@dataclass
class VerificationReport:
    """Outcome of one inequality or identity check."""

    name: str
    params: dict
    lhs: float
    rhs: float
    gap: float
    remainders: list          # list of (name, value) pairs, each >= -tol
    verdict: str
    err_est: float
    k_weight: float           # exact conformal weight of lhs/rhs under k

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "remainders": [{"name": n, "value": v} for n, v in self.remainders],
            "verdict": self.verdict,
            "err_est": self.err_est,
            "k_weight": self.k_weight,
        }

    @property
    def passing(self) -> bool:
        return self.verdict in ("equality", "strict")


def _verdict(lhs: float, gap: float, err_est: float, tol: float,
             identity: bool = False) -> str:
    """One ladder for inequalities (gap >= 0) and identities (gap = 0)."""
    vtol = 10.0 * tol * abs(lhs)
    if err_est > vtol:
        return "inconclusive"
    if abs(gap) <= vtol:
        return "equality"
    if identity or gap < 0.0:
        return "fail"
    return "strict" if gap > 1e-3 * abs(lhs) else "inconclusive"


# ---------------------------------------------------------------------------
# Adapted-compactification integral data (shared by verify_adapted / defect)
# ---------------------------------------------------------------------------

def _adapted_case(n: int, gamma: float, k: float):
    p = QCurvParams(n, gamma, k)
    m = ModelSpace(n, k)
    profile, sr = solve_case(p)
    geom = build_adapted(m, sr, profile)
    return p, m, geom, sr


def _adapted_integrals(geom: CompactifiedGeometry, gamma: float):
    """Main integral and the two defect remainders of the adapted identity.

    main = int rho^{2g-1} T^{1-kap} dV
    R1   = int 2 kap rho^{1-2g} T^{-kap-1} |TF Hess rho|^2 dV
    R2   = int kap (kap+1) rho T^{-kap-2} |grad T|^2 dV,   kap = (1-g)/g

    With dV = rho dens dtau dS_ghat, |TF Hess rho|^2 = n/(n+1) tf^2/rho^2 and
    tf = r^{2g} tf_hat, the integrands become rho^{2g} T^{1-kap} dens,
    2 kap n/(n+1) r^{2g} (rho/r)^{-2g} tf_hat^2 T^{-kap-1} dens and
    kap (kap+1) T^{-kap-2} T'^2 dens.
    """
    kap = (1.0 - gamma) / gamma
    tg = 2.0 * gamma
    n = geom.base.n
    itg = RadialIntegrator(geom)

    def g_main(st):
        return np.power(st.rho, tg) * np.power(st.T, 1.0 - kap) * st.dens

    def g_r1(st):
        return 2.0 * kap * n / (n + 1.0) * st.x * np.power(st.rho_over_r, -tg) \
            * st.tf_hat ** 2 * np.power(st.T, -kap - 1.0) * st.dens

    def g_r2(st):
        return kap * (kap + 1.0) * np.power(st.T, -kap - 2.0) * st.dT ** 2 * st.dens

    return itg.integrate(g_main), itg.integrate(g_r1), itg.integrate(g_r2)


# ---------------------------------------------------------------------------
# Verifications
# ---------------------------------------------------------------------------

def verify_adapted(n: int, gamma: float, k: float, tol: float = 1e-6) -> VerificationReport:
    """Fractional Heintze-Karcher inequality on the adapted compactification.

    lhs = int_M Q^{-(1-g)/g} dS,  rhs = C(n,g) int_X rho^{2g-1} T^{1-kap} dV;
    equality exactly at gamma = 1/2 (the models are hyperbolic), strict
    otherwise.  The gap is cross-checked against the nonnegative defect
    remainders of the integrated identity.
    """
    p, m, geom, sr = _adapted_case(n, gamma, k)
    kap = (1.0 - gamma) / gamma
    vol_m = k ** (-n / 2.0) * sphere_volume(n)
    q = sr.q_value
    lhs = vol_m * q ** (-kap)
    (main, main_err), (r1, r1_err), (r2, r2_err) = _adapted_integrals(geom, gamma)
    rhs = hk_constant(n, gamma) * vol_m * main
    # the identity expresses the gap through the remainders, rescaled by the
    # boundary-term normalisation (2-2g) (-4g/d_g)^{-kap}
    fac = (-4.0 * gamma / d_gamma(gamma)) ** kap / (2.0 - 2.0 * gamma)
    remainders = [("tracefree_hessian", fac * vol_m * r1),
                  ("grad_T", fac * vol_m * r2)]
    gap = lhs - rhs
    err = hk_constant(n, gamma) * vol_m * main_err \
        + fac * vol_m * (r1_err + r2_err) + abs(lhs) * (kap + 1.0) * 1e-9
    verdict = _verdict(lhs, gap, err, tol)
    return VerificationReport(
        name="hk-adapted", lhs=lhs, rhs=rhs, gap=gap, remainders=remainders,
        verdict=verdict, err_est=err, k_weight=gamma - 1.0 - n / 2.0,
        params={"n": n, "gamma": gamma, "k": k, "tol": tol,
                "q_value": q, "T_match": sr.T_match,
                "defect_gap_consistency": abs(gap - (remainders[0][1] + remainders[1][1]))},
    )


def verify_cla(n: int, k: float, tol: float = 1e-6) -> VerificationReport:
    """Classical Heintze-Karcher form at gamma = 1/2.

    lhs = int_M dS/Hbar with Hbar = n Q_1, rhs = (n+1)/n Vol(X, gbar_s);
    equality on the models (they are hyperbolic space).
    """
    p, m, geom, sr = _adapted_case(n, 0.5, k)
    vol_m = k ** (-n / 2.0) * sphere_volume(n)
    hbar = n * sr.q_value
    lhs = vol_m / hbar
    vol_x, vol_err = RadialIntegrator(geom).integrate(lambda st: st.rho * st.dens)
    rhs = (n + 1.0) / n * vol_m * vol_x
    gap = lhs - rhs
    err = (n + 1.0) / n * vol_m * vol_err + abs(lhs) * 1e-9
    return VerificationReport(
        name="hk-cla", lhs=lhs, rhs=rhs, gap=gap, remainders=[],
        verdict=_verdict(lhs, gap, err, tol), err_est=err,
        k_weight=-(n + 1.0) / 2.0,
        params={"n": n, "k": k, "tol": tol, "Hbar": hbar, "q_value": sr.q_value},
    )


def verify_lee(n: int, k: float, tol: float = 1e-6) -> VerificationReport:
    """Scalar-curvature Heintze-Karcher form on the Lee compactification.

    lhs = int_M dS/Jhat, rhs = 2(n+1)/n int_X rho_L dV; equality on models.
    """
    m = ModelSpace(n, k)
    geom = build_lee(m)
    jhat = n * k / 2.0
    vol_m = k ** (-n / 2.0) * sphere_volume(n)
    lhs = vol_m / jhat
    val, ierr = RadialIntegrator(geom).integrate(lambda st: st.rho ** 2 * st.dens)
    rhs = 2.0 * (n + 1.0) / n * vol_m * val
    gap = lhs - rhs
    err = 2.0 * (n + 1.0) / n * vol_m * ierr + abs(lhs) * 1e-10
    return VerificationReport(
        name="hk-lee", lhs=lhs, rhs=rhs, gap=gap, remainders=[],
        verdict=_verdict(lhs, gap, err, tol), err_est=err,
        k_weight=-n / 2.0 - 1.0,
        params={"n": n, "k": k, "tol": tol, "J_hat": jhat},
    )


def defect_identity(kind: str, n: int, k: float, tol: float = 1e-6,
                    gamma: float | None = None) -> VerificationReport:
    """Exact integrated identity behind each inequality, remainders included.

    adapted:  (2-2g)(-4g/d_g)^{-kap} int_M Q^{-kap} dS
                 = [(1-g)(n+2g)^2/(2(n+1)g)] int rho^{2g-1} T^{1-kap} dV
                   + R1 + R2
    lee:      n^2/(n+1) int_M dS/Jhat
                 = 2n int rho dV + int 2 rho J^{-3}|grad J|^2 dV
                   + int (n+1) rho^{-1} J^{-2} |TF Hess rho|^2 dV

    All remainders are nonnegative; on the models they vanish for gamma=1/2
    and for the Lee case, and the identity balances to quadrature accuracy.
    """
    vol_m = k ** (-n / 2.0) * sphere_volume(n)
    if kind == "adapted":
        if gamma is None:
            raise ValueError("adapted defect identity needs gamma")
        p, m, geom, sr = _adapted_case(n, gamma, k)
        kap = (1.0 - gamma) / gamma
        lhs = (2.0 - 2.0 * gamma) * (-4.0 * gamma / d_gamma(gamma)) ** (-kap) \
            * sr.q_value ** (-kap) * vol_m
        (main, main_err), (r1, r1_err), (r2, r2_err) = _adapted_integrals(geom, gamma)
        coef = (1.0 - gamma) * (n + 2.0 * gamma) ** 2 / (2.0 * (n + 1.0) * gamma)
        rem1, rem2 = vol_m * r1, vol_m * r2
        rhs = coef * vol_m * main + rem1 + rem2
        err = vol_m * (coef * main_err + r1_err + r2_err) + abs(lhs) * (kap + 1.0) * 1e-9
        name = "defect-adapted"
        params = {"n": n, "gamma": gamma, "k": k, "tol": tol, "q_value": sr.q_value}
        k_weight = gamma - 1.0 - n / 2.0
    elif kind == "lee":
        m = ModelSpace(n, k)
        geom = build_lee(m)
        jhat = n * k / 2.0
        lhs = n ** 2 / (n + 1.0) * vol_m / jhat
        itg = RadialIntegrator(geom)
        main, main_err = itg.integrate(lambda st: st.rho ** 2 * st.dens)
        ra, ra_err = itg.integrate(
            lambda st: 2.0 * np.power(st.Jbar, -3.0) * st.dJbar ** 2 * st.dens)
        rb, rb_err = itg.integrate(
            lambda st: (n + 1.0) * np.power(st.Jbar, -2.0) * st.tracefree_sq * st.dens)
        rem1, rem2 = vol_m * ra, vol_m * rb
        rhs = 2.0 * n * vol_m * main + rem1 + rem2
        err = vol_m * (2.0 * n * main_err + ra_err + rb_err) + abs(lhs) * 1e-10
        name = "defect-lee"
        params = {"n": n, "k": k, "tol": tol, "J_hat": jhat}
        k_weight = -n / 2.0 - 1.0
    else:
        raise ValueError(f"unknown defect kind {kind!r}")
    gap = lhs - rhs
    return VerificationReport(
        name=name, lhs=lhs, rhs=rhs, gap=gap,
        remainders=[("remainder_1", rem1), ("remainder_2", rem2)],
        verdict=_verdict(lhs, gap, err, tol, identity=True), err_est=err,
        k_weight=k_weight, params=params,
    )


# ---------------------------------------------------------------------------
# Asymptotic surface/volume ratio
# ---------------------------------------------------------------------------

def asymptotic_ratio(n: int, k: float, r_values) -> list[dict]:
    """Surface integral of V/H_r against (n+1)/n times the weighted volume.

    ratio(r) = [int_{level r} (V/H_r) dS_{g_+}] /
               [(n+1)/n int_{interior} V dV_{g_+}]
    with V the exact eigenfunction; identically 1 on Einstein-boundary
    models (the r^4 defect coefficient is int |E|^2-proportional and E = 0).
    The numerator is evaluated pointwise, the denominator by quadrature.
    """
    m = ModelSpace(n, k)
    vp = lee_potential_exact(m)
    rows = []
    x_gl, w_gl = np.polynomial.legendre.leggauss(32)
    for r in np.atleast_1d(np.asarray(r_values, dtype=float)):
        tau_r = float(m.tau_of_r(r))
        f = m.f_tau(tau_r)
        V = float(vp.evaluate(tau_r)[0][0])
        H = mean_curvature_exact(m, r)
        surface = (V / H) * f ** n

        def vol_quad(panels):
            edges = np.linspace(0.0, tau_r, panels + 1)
            tn, tw = _gl_nodes(edges[:-1], edges[1:], 32)
            u, du = vp.evaluate(tn)
            return float(np.dot(tw, u * m.f_tau(tn) ** n))

        v1, v2 = vol_quad(12), vol_quad(18)
        ratio = surface / ((n + 1.0) / n * v2)
        rows.append({"n": n, "k": k, "r": float(r), "ratio": ratio,
                     "abs_err": abs(v1 - v2) / max(v2, 1e-300) + 1e-12})
    return rows
