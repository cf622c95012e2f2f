"""Quadrature engine and verdicts for the Heintze-Karcher type inequalities.

Every verification reduces to radial integrals of the form

    I = Vol(M, ghat) * int_0^inf G(tau) dtau,
    G = (integrand in rho, T or Jbar, their derivatives) * rho^{n+1} f^n,

computed by one nested double-exponential rule over the whole radial line
(Takahasi & Mori, Publ. RIMS 9 (1974) 721-741): tau = log(1 + e^{-pi sinh t})
maps t in R onto (0, inf), and the trapezoidal sums at steps h and h/2 give
the value and its error estimate.  The lattice is `scattering.de_lattice`,
whose nodes up to the connection point are also the interior profile's
table, so the centre series is never re-summed for an integral.  The
integrands are written in scale-safe form (rho^{2 gamma} (rho phi/r)^n
rather than rho^{2 gamma - 1} rho^{n+1} f^n), so every node, out to
tau = 400 (r ~ 1e-174 at k = 1), is finite.

Verdicts: `equality` when |lhs - rhs| <= 10 tol |lhs|, `strict` when the
gap of an inequality additionally exceeds 1e-3 |lhs| (the observed gaps for
gamma != 1/2 are order one), `fail` for a violated inequality or an identity
that does not balance, `inconclusive` when the quadrature error estimate
cannot support a call.  Every report documents the exact conformal weight of
its integrals under the boundary rescaling k, so that two runs at different
k can be compared against k^weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .compactification import CompactifiedGeometry, build_adapted, build_lee
from .model_geometry import ModelSpace, mean_curvature_exact
from .scattering import DE_STEP, de_lattice, solve_case
from .special_fn import QCurvParams, d_gamma, hk_constant, sphere_volume

_EPS = 2.220446049250313e-16
_TINY = float(np.finfo(float).tiny)      # smallest normal float
# relative error budget of Q per unit of its exponent: Q is checked to one
# ulp against a 30-digit reference, the rest covers the rounding of lhs
_Q_REL_ERR = 4.0 * _EPS
_TAIL_E_FOLDS = 40.0        # the boundary-side rest is below e^{-40} of the integral


# ---------------------------------------------------------------------------
# Radial integration
# ---------------------------------------------------------------------------

@functools.cache
def _gl_rule():
    """32-point Gauss-Legendre rule on [-1, 1], built on first use only."""
    return np.polynomial.legendre.leggauss(32)


def _gl_nodes(a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre nodes/weights for a batch of intervals [a_i, b_i]."""
    x, w = _gl_rule()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


class RadialIntegrator:
    """Nested double-exponential rule over one compactified geometry.

    The state is evaluated once, at the `de_lattice` nodes of step h/2;
    every integral reuses it.  The integrands decay towards the boundary at
    least like e^{-a tau} with a = min(2 gamma, 2 - 2 gamma, 1) (a = 1 for
    Lee), so the nodes run out to tau_max = 40/a.  Up to the connection
    point the adapted state reads u and u' off the profile's table, which
    holds exactly these nodes.
    """

    def __init__(self, geom: CompactifiedGeometry):
        self.geom = geom
        e = geom.e
        rate = min(e, 2.0 - e, 1.0) if geom.kind == "adapted" else 1.0
        i, t, z, tau = de_lattice(_TAIL_E_FOLDS / rate)
        self.coarse = i % 2 == 0
        self.weights = 0.5 * DE_STEP * math.pi * np.cosh(t) / (1.0 + np.exp(-z))  # h/2 dtau/dt
        self.state = geom.state(tau)

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
             identity: bool) -> str:
    """One ladder for inequalities (gap >= 0) and identities (gap = 0).

    An lhs that is not a finite normal float (the sphere volume underflows
    from n ~ 436) leaves no digits to compare, so the case is inconclusive.
    """
    if not _TINY <= abs(lhs) < math.inf:
        return "inconclusive"
    vtol = 10.0 * tol * abs(lhs)
    if err_est > vtol:
        return "inconclusive"
    if abs(gap) <= vtol:
        return "equality"
    if identity or gap < 0.0:
        return "fail"
    return "strict" if gap > 1e-3 * abs(lhs) else "inconclusive"


def _report(name: str, lhs: float, kap: float, main, remainders, tol: float,
            k_weight: float, params: dict, identity: bool = False) -> VerificationReport:
    """Report of lhs against coef * main, with the identity's remainders.

    main = (coef, (value, estimate)); remainders = [(label, coef, (value,
    estimate))], reported as coef * value.  An identity balances lhs against
    coef * main plus the remainders; an inequality compares lhs with
    coef * main alone, and the identity then says its gap is the sum of the
    remainders, which `defect_gap_consistency` records.  err_est is
    sum |coef| * estimate plus Q's error, 4 eps (kap + 1) |lhs| for an lhs
    proportional to Q^-kap (kap = 0: no Q in lhs).
    """
    coef, (value, est) = main
    rhs = coef * value
    err = abs(coef) * est
    rems = []
    for label, c, (v, e) in remainders:
        rems.append((label, c * v))
        err += abs(c) * e
    if identity:
        for _, v in rems:
            rhs += v
    gap = lhs - rhs
    err += (kap + 1.0) * _Q_REL_ERR * abs(lhs)
    if rems and not identity:
        params["defect_gap_consistency"] = abs(gap - sum(v for _, v in rems))
    return VerificationReport(
        name=name, lhs=lhs, rhs=rhs, gap=gap, remainders=rems,
        verdict=_verdict(lhs, gap, err, tol, identity), err_est=err,
        k_weight=k_weight, params=params)


# ---------------------------------------------------------------------------
# The two integrated identities
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _adapted_identity(n: int, gamma: float, k: float):
    """Solution and Vol-normalised integrals of the adapted identity.

    main = int rho^{2g-1} T^{1-kap} dV
    R1   = int 2 kap rho^{1-2g} T^{-kap-1} |TF Hess rho|^2 dV
    R2   = int kap (kap+1) rho T^{-kap-2} |grad T|^2 dV,   kap = (1-g)/g

    With dV = rho dens dtau dS_ghat, |TF Hess rho|^2 = n/(n+1) tf^2/rho^2 and
    tf = r^{2g} tf_hat, the integrands become rho^{2g} T^{1-kap} dens,
    2 kap n/(n+1) r^{2g} (rho/r)^{-2g} tf_hat^2 T^{-kap-1} dens and
    kap (kap+1) T^{-kap-2} T'^2 dens.  At gamma = 1/2 the first is
    rho dens, so main is Vol(X, gbar)/Vol(M).  Returns (sr, Vol(M, ghat),
    main, R1, R2), each integral as (value, err_est).

    Memoised on (n, gamma, k), for the last case only: `defect_identity`
    ("adapted") right after `verify_adapted` of the same case reuses the
    solve, the geometry and the three integrals.
    """
    profile, sr = solve_case(QCurvParams(n, gamma, k))
    itg = RadialIntegrator(build_adapted(ModelSpace(n, k), sr, profile))
    kap = (1.0 - gamma) / gamma
    tg = 2.0 * gamma

    def g_main(st):
        return np.power(st.rho, tg) * np.power(st.T, 1.0 - kap) * st.dens

    def g_r1(st):
        return 2.0 * kap * n / (n + 1.0) * st.x * np.power(st.rho_over_r, -tg) \
            * st.tf_hat ** 2 * np.power(st.T, -kap - 1.0) * st.dens

    def g_r2(st):
        return kap * (kap + 1.0) * np.power(st.T, -kap - 2.0) * st.dT ** 2 * st.dens

    return (sr, _boundary_volume(n, k), itg.integrate(g_main), itg.integrate(g_r1),
            itg.integrate(g_r2))


def _lee_identity(n: int, k: float):
    """Lee integrator, Vol(M, ghat) and the main integral int rho dV / Vol(M)."""
    itg = RadialIntegrator(build_lee(ModelSpace(n, k)))
    return itg, _boundary_volume(n, k), itg.integrate(lambda st: st.rho ** 2 * st.dens)


def _boundary_volume(n: int, k: float) -> float:
    """Vol(M, ghat) of the round sphere of radius k^{-1/2}."""
    return k ** (-n / 2.0) * sphere_volume(n)


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
    sr, vol_m, main, r1, r2 = _adapted_identity(n, gamma, k)
    kap = (1.0 - gamma) / gamma
    # the identity expresses the gap through the remainders, rescaled by the
    # boundary-term normalisation (2-2g) (-4g/d_g)^{-kap}
    fac = (-4.0 * gamma / d_gamma(gamma)) ** kap / (2.0 - 2.0 * gamma) * vol_m
    return _report(
        "hk-adapted", vol_m * sr.q_value ** (-kap), kap,
        (hk_constant(n, gamma) * vol_m, main),
        [("tracefree_hessian", fac, r1), ("grad_T", fac, r2)], tol,
        gamma - 1.0 - n / 2.0,
        {"n": n, "gamma": gamma, "k": k, "tol": tol,
         "q_value": sr.q_value, "T_match": sr.T_match})


def verify_cla(n: int, k: float, tol: float = 1e-6) -> VerificationReport:
    """Classical Heintze-Karcher form at gamma = 1/2.

    lhs = int_M dS/Hbar with Hbar = n Q_1, rhs = (n+1)/n Vol(X, gbar_s);
    equality on the models (they are hyperbolic space).  Vol(X, gbar_s) is
    the main integral of the adapted identity at gamma = 1/2.
    """
    sr, vol_m, main, _, _ = _adapted_identity(n, 0.5, k)
    hbar = n * sr.q_value
    return _report(
        "hk-cla", vol_m / hbar, 1.0, ((n + 1.0) / n * vol_m, main), [], tol,
        -(n + 1.0) / 2.0,
        {"n": n, "k": k, "tol": tol, "Hbar": hbar, "q_value": sr.q_value})


def verify_lee(n: int, k: float, tol: float = 1e-6) -> VerificationReport:
    """Scalar-curvature Heintze-Karcher form on the Lee compactification.

    lhs = int_M dS/Jhat, rhs = 2(n+1)/n int_X rho_L dV; equality on models.
    """
    _, vol_m, main = _lee_identity(n, k)
    jhat = n * k / 2.0
    return _report(
        "hk-lee", vol_m / jhat, 0.0, (2.0 * (n + 1.0) / n * vol_m, main), [], tol,
        -n / 2.0 - 1.0, {"n": n, "k": k, "tol": tol, "J_hat": jhat})


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
    if kind == "adapted":
        if gamma is None:
            raise ValueError("adapted defect identity needs gamma")
        sr, vol_m, main, r1, r2 = _adapted_identity(n, gamma, k)
        kap = (1.0 - gamma) / gamma
        lhs = (2.0 - 2.0 * gamma) * (-4.0 * gamma / d_gamma(gamma)) ** (-kap) \
            * sr.q_value ** (-kap) * vol_m
        coef = (1.0 - gamma) * (n + 2.0 * gamma) ** 2 / (2.0 * (n + 1.0) * gamma)
        params = {"n": n, "gamma": gamma, "k": k, "tol": tol, "q_value": sr.q_value}
        k_weight = gamma - 1.0 - n / 2.0
        name = "defect-adapted"
    elif kind == "lee":
        itg, vol_m, main = _lee_identity(n, k)
        r1 = itg.integrate(
            lambda st: 2.0 * np.power(st.Jbar, -3.0) * st.dJbar ** 2 * st.dens)
        r2 = itg.integrate(
            lambda st: (n + 1.0) * np.power(st.Jbar, -2.0) * st.tracefree_sq * st.dens)
        jhat = n * k / 2.0
        lhs = n ** 2 / (n + 1.0) * vol_m / jhat
        kap, coef = 0.0, 2.0 * n
        params = {"n": n, "k": k, "tol": tol, "J_hat": jhat}
        k_weight = -n / 2.0 - 1.0
        name = "defect-lee"
    else:
        raise ValueError(f"unknown defect kind {kind!r}")
    return _report(
        name, lhs, kap, (coef * vol_m, main),
        [("remainder_1", vol_m, r1), ("remainder_2", vol_m, r2)], tol,
        k_weight, params, identity=True)


# ---------------------------------------------------------------------------
# Asymptotic surface/volume ratio
# ---------------------------------------------------------------------------

def asymptotic_ratio(n: int, k: float, r_values) -> list[dict]:
    """Surface integral of V/H_r against (n+1)/n times the weighted volume.

    ratio(r) = [int_{level r} (V/H_r) dS_{g_+}] /
               [(n+1)/n int_{interior} V dV_{g_+}]
    with V = f' the exact eigenfunction; identically 1 on Einstein-boundary
    models (the r^4 defect coefficient is int |E|^2-proportional and E = 0).
    The numerator is evaluated pointwise, the denominator by quadrature.
    Both are divided by f(tau_r)^n, which overflows from n = 93 at
    r = 5e-4 (k = 1): the numerator is V/H_r, the volume integrand
    V (f/f_r)^n.  That integrand narrows like 1/n at tau_r, so the
    Gauss-Legendre panels are doubled from 18 (up to 18 * 2^8) until two
    successive levels agree to 1e-11; for n <= 20 the first pair does.
    """
    m = ModelSpace(n, k)
    rows = []
    for r in np.atleast_1d(np.asarray(r_values, dtype=float)):
        tau_r = float(m.tau_of_r(r))
        f_r = m.f_tau(tau_r)
        surface = m.df_tau(tau_r) / mean_curvature_exact(m, r)

        def vol_quad(panels):
            edges = np.linspace(0.0, tau_r, panels + 1)
            tn, tw = _gl_nodes(edges[:-1], edges[1:])
            return float(np.dot(tw, m.df_tau(tn) * (m.f_tau(tn) / f_r) ** n))

        panels = 18
        v1, v2 = vol_quad(12), vol_quad(panels)
        while abs(v1 - v2) > 1e-11 * v2 and panels < 18 * 2 ** 8:
            panels *= 2
            v1, v2 = v2, vol_quad(panels)
        ratio = surface / ((n + 1.0) / n * v2)
        rows.append({"n": n, "k": k, "r": float(r), "ratio": ratio,
                     "abs_err": abs(v1 - v2) / max(v2, 1e-300) + 1e-12})
    return rows
