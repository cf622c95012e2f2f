"""Quadrature engine and verdicts for the Heintze-Karcher type inequalities.

Every verification reduces to radial integrals of the form

    I = Vol(M, ghat) * int_0^inf G(tau) dtau,
    G = (integrand in rho, T or Jbar, their derivatives) * rho^{n+1} f^n,

computed as composite Gauss-Legendre on the interior [tau0, ln 8] (profile
side) plus a boundary layer in the r variable evaluated from the matched
Frobenius branch series on dyadic panels, closed by the analytic
leading-power stub  int_0^r0 A t^{p-1} dt = G(r0)/p.  Error estimates come
from node doubling plus the stub's first-correction heuristic; doubling the
quadrature nodes changes results by less than the reported estimate.

Verdicts: `equality` when |lhs - rhs| <= 10 tol max(|lhs|, 1), `strict` when
the gap additionally exceeds 1e-3 |lhs| (the observed gaps for gamma != 1/2
are order one), `fail` for a violated inequality, `inconclusive` when the
quadrature error estimate cannot support a call.  Every report documents the
exact conformal weight of its integrals under the boundary rescaling k, so
that two runs at different k can be compared against k^weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compactification import (TAU_BRANCH, CompactifiedGeometry, build_adapted,
                               build_lee)
from .model_geometry import ModelSpace, mean_curvature_exact
from .scattering import TAU0, lee_potential_exact, solve_case
from .special_fn import QCurvParams, d_gamma, hk_constant, sphere_volume

_EPS = 2.220446049250313e-16


# ---------------------------------------------------------------------------
# Radial integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailSpec:
    """Boundary-layer behaviour of one integrand G ~ A r^p (1 + B r^q + ...).

    beta is the exponent of the absolute roundoff noise eps^2 r^{-beta} in
    the integrand (from boundary cancellations); it sets how deep the dyadic
    panels may go before the stub takes over.
    """

    p: float
    q: float
    beta: float = 0.1

    def stub_radius_frac(self) -> float:
        # noise eps^2 r^{-beta} <= 1e-10  =>  r >= (eps^2 * 1e10)^{1/beta}
        return max(1e-10, (5.0e-22) ** (1.0 / max(self.beta, 0.1)))


def _gl_nodes(a: np.ndarray, b: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights for a batch of intervals [a_i, b_i]."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


class RadialIntegrator:
    """Shared-node quadrature over one compactified geometry."""

    def __init__(self, geom: CompactifiedGeometry, tau_panels: int = 10,
                 order: int = 16):
        self.geom = geom
        self.order = order
        rc = geom.base.r_center
        self.r_branch = rc / 8.0          # r at TAU_BRANCH
        self.r_floor = rc * 1e-10
        n_dyadic = int(math.ceil(math.log2(self.r_branch / self.r_floor)))
        self.r_edges = self.r_branch * 2.0 ** (-np.arange(n_dyadic + 1, dtype=float))
        tau_edges = np.linspace(TAU0, TAU_BRANCH, tau_panels + 1)
        self._sets = {}
        for ord_ in (order, int(order * 1.5)):
            tn, tw = _gl_nodes(tau_edges[:-1], tau_edges[1:], ord_)
            rn, rw = _gl_nodes(self.r_edges[1:], self.r_edges[:-1], max(8, ord_ - 4))
            st_tau = geom.state(tn)
            st_r = geom.state_of_r(rn)
            self._sets[ord_] = (st_tau, tw, st_r, rw, rn)
        edge_states = geom.state_of_r(self.r_edges)
        self._edge_states = edge_states

    def integrate(self, g_fn, tail: TailSpec):
        """(value, err_est) of Vol-normalised int_0^inf G dtau.

        g_fn maps a GeometryState to the integrand values G(tau); the r-side
        uses int G dtau = int (G/r) dr.
        """
        rc = self.geom.base.r_center
        r_stub = rc * tail.stub_radius_frac()
        j_stub = int(np.searchsorted(-self.r_edges, -r_stub))  # edges descending
        j_stub = min(max(j_stub, 1), len(self.r_edges) - 1)
        results = []
        for ord_, (st_tau, tw, st_r, rw, rn) in self._sets.items():
            per_panel = max(8, ord_ - 4)
            mask = rn < self.r_edges[j_stub]
            val = float(np.dot(tw, g_fn(st_tau)))
            gr = g_fn(st_r) / rn
            gr = np.where(mask, 0.0, gr)
            val += float(np.dot(rw, gr))
            results.append(val)
        edge_val = float(np.atleast_1d(g_fn(self._edge_states))[j_stub])
        stub = edge_val / tail.p
        value = results[1] + stub
        err = abs(results[1] - results[0]) \
            + abs(stub) * (self.r_edges[j_stub] / rc) ** tail.q \
            + 50.0 * _EPS * abs(value)
        return value, err


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


def _verdict(lhs: float, gap: float, err_est: float, tol: float) -> str:
    scale = max(abs(lhs), 1.0)
    vtol = 10.0 * tol * scale
    if err_est > vtol:
        return "inconclusive"
    if abs(gap) <= vtol:
        return "equality"
    if gap > max(vtol, 1e-3 * abs(lhs)):
        return "strict"
    if gap < -vtol:
        return "fail"
    return "inconclusive"


def _balance_verdict(lhs: float, gap: float, err_est: float, tol: float) -> str:
    scale = max(abs(lhs), 1.0)
    vtol = 10.0 * tol * scale
    if err_est > vtol:
        return "inconclusive"
    return "equality" if abs(gap) <= vtol else "fail"


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
    """
    kap = (1.0 - gamma) / gamma
    tg = 2.0 * gamma
    itg = RadialIntegrator(geom)

    def g_main(st):
        return np.power(st.rho, tg - 1.0) * np.power(st.T, 1.0 - kap) * st.voldens

    def g_r1(st):
        return 2.0 * kap * np.power(st.rho, 1.0 - tg) \
            * np.power(st.T, -kap - 1.0) * st.tracefree_sq * st.voldens

    def g_r2(st):
        grad_T_sq = (st.dT / st.rho) ** 2
        return kap * (kap + 1.0) * st.rho * np.power(st.T, -kap - 2.0) \
            * grad_T_sq * st.voldens

    q_first = min(tg, 2.0 - tg, 2.0)
    main = itg.integrate(g_main, TailSpec(p=tg, q=q_first, beta=0.1))
    r1 = itg.integrate(g_r1, TailSpec(p=tg, q=q_first, beta=tg))
    r2 = itg.integrate(g_r2, TailSpec(p=min(2.0 * tg, 2.0, 4.0 - 2.0 * tg),
                                      q=q_first, beta=2.0 * tg))
    return main, r1, r2


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
    itg = RadialIntegrator(geom)
    vol_x, vol_err = itg.integrate(lambda st: st.voldens, TailSpec(p=1.0, q=1.0))
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
    itg = RadialIntegrator(geom)
    val, ierr = itg.integrate(lambda st: st.rho * st.voldens, TailSpec(p=2.0, q=2.0))
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
        main, main_err = itg.integrate(lambda st: st.rho * st.voldens,
                                       TailSpec(p=2.0, q=2.0))

        def g_ra(st):
            return 2.0 * st.rho * np.power(st.Jbar, -3.0) * (st.dJbar / st.rho) ** 2 \
                * st.voldens

        def g_rb(st):
            return (n + 1.0) / st.rho * np.power(st.Jbar, -2.0) * st.tracefree_sq \
                * st.voldens

        ra, ra_err = itg.integrate(g_ra, TailSpec(p=2.0, q=2.0, beta=2.0))
        rb, rb_err = itg.integrate(g_rb, TailSpec(p=2.0, q=2.0, beta=2.0))
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
        verdict=_balance_verdict(lhs, gap, err, tol), err_est=err,
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
