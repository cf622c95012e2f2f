"""Quadrature engine and verdicts for the Heintze-Karcher type inequalities.

Every verification reduces to radial integrals of the form

    I = Vol(M, ghat) * int_0^inf G(tau) dtau,
    G = (integrand in rho, T or Jbar, their derivatives) * rho^{n+1} f^n,

computed by one nested double-exponential rule over the whole radial line
(Takahasi & Mori, Publ. RIMS 9 (1974) 721-741): tau = log(1 + e^{-pi sinh t})
maps t in R onto (0, inf), and the trapezoidal sums at steps h and h/2 give
the value and its error estimate.  The lattice is `scattering.de_lattice`,
whose nodes up to the connection point are also the interior series'
table, so the centre series is never re-summed for an integral.  The
integrands are written in scale-safe form (rho^{2 gamma} (rho phi/r)^n
rather than rho^{2 gamma - 1} rho^{n+1} f^n), so every node, out to
tau = 400 (r ~ 1e-174 at k = 1), is finite.  The volume integral of the
asymptotic surface/volume ratio is summed on the same rule, after a
substitution that maps (0, tau_r) onto (0, inf); it is the package's only
quadrature rule, and `_levels` its only level sum.

The five reports read two integrated identities, adapted and Lee, whose
integrands (main, r1, r2) are one table per family.  `_identity` holds one
case's identity and sums each integral when a report first reads it, so
`hk-cla` sums main alone.

Verdicts: `equality` when |lhs - rhs| <= 10 tol |lhs|, `strict` when the
gap of an inequality additionally exceeds 1e-3 |lhs| (the observed gaps for
gamma != 1/2 are order one), `fail` for a violated inequality or an identity
that does not balance, `inconclusive` when the quadrature error estimate
cannot support a call.  A tol that is not finite and positive is refused
before any solve.  Every report documents the exact conformal weight of
its integrals under the boundary rescaling k, so that two runs at different
k can be compared against k^weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .compactification import TAIL_E_FOLDS, CompactifiedGeometry, build_adapted, build_lee
from .model_geometry import ModelSpace, mean_curvature_exact
from .scattering import de_lattice, solve_case
from .special_fn import QCurvParams, d_gamma, hk_constant, sphere_volume

_EPS = 2.220446049250313e-16
_TINY = float(np.finfo(float).tiny)      # smallest normal float
# relative error budget of Q per unit of its exponent: Q is checked to one
# ulp against a 30-digit reference, the rest covers the rounding of lhs
_Q_REL_ERR = 4.0 * _EPS


# ---------------------------------------------------------------------------
# Radial integration
# ---------------------------------------------------------------------------

def _levels(g: np.ndarray, weights: np.ndarray, coarse: np.ndarray):
    """Trapezoidal sums at steps h and h/2 of `de_lattice` integrals, from
    the integrand values g at its nodes (last axis); one sum per row.

    The coarse nodes are copied to a contiguous array first, so that each
    row is summed exactly as it would be on its own.
    """
    g = g * weights
    return 2.0 * np.ascontiguousarray(g[..., coarse]).sum(axis=-1), g.sum(axis=-1)


class RadialIntegrator:
    """Nested double-exponential rule over one compactified geometry.

    The state, weights and coarse mask are the geometry's `lattice`: its
    `de_lattice` nodes of step h/2, out to where the integrands' boundary
    decay leaves e^{-40} of an integral, assembled once, when the first
    integrator of a geometry is made.  Every integral reuses that one state.
    """

    def __init__(self, geom: CompactifiedGeometry):
        self.geom = geom
        self.state, self.weights, self.coarse = geom.lattice

    def levels(self, g_fn):
        """Trapezoidal sums at steps h and h/2 of int_0^inf G dtau."""
        coarse, fine = _levels(g_fn(self.state), self.weights, self.coarse)
        return float(coarse), float(fine)

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


def _check_tol(tol: float):
    """Refuse a verdict tolerance that is not finite and positive: at NaN no
    comparison holds, so the ladder would read a false `fail` or `strict`."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


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

def _adapted_integrands(n: int, gamma: float) -> dict:
    """Integrands of the adapted identity, in dV/(Vol(M) dtau):

    main = int rho^{2g-1} T^{1-kap} dV
    r1   = int 2 kap rho^{1-2g} T^{-kap-1} |TF Hess rho|^2 dV
    r2   = int kap (kap+1) rho T^{-kap-2} |grad T|^2 dV,   kap = (1-g)/g

    With dV = rho dens dtau dS_ghat, |TF Hess rho|^2 = n/(n+1) tf^2/rho^2 and
    tf = r^{2g} tf_hat, the integrands become rho^{2g} T^{1-kap} dens,
    2 kap n/(n+1) r^{2g} (rho/r)^{-2g} tf_hat^2 T^{-kap-1} dens and
    kap (kap+1) T^{-kap-2} T'^2 dens.  At gamma = 1/2 the first is
    rho dens, so main is Vol(X, gbar)/Vol(M).
    """
    kap = (1.0 - gamma) / gamma
    tg = 2.0 * gamma
    return {
        "main": lambda st: np.power(st.rho, tg) * np.power(st.T, 1.0 - kap) * st.dens,
        "r1": lambda st: (2.0 * kap * n / (n + 1.0) * st.x * np.power(st.rho_over_r, -tg)
                          * st.tf_hat ** 2 * np.power(st.T, -kap - 1.0) * st.dens),
        "r2": lambda st: kap * (kap + 1.0) * np.power(st.T, -kap - 2.0) * st.dT ** 2 * st.dens,
    }


def _lee_integrands(n: int) -> dict:
    """Integrands of the Lee identity: main = int rho dV, r1 = int 2 rho
    J^{-3} |grad J|^2 dV and r2 = int (n+1) rho^{-1} J^{-2} |TF Hess rho|^2 dV."""
    return {
        "main": lambda st: st.rho ** 2 * st.dens,
        "r1": lambda st: 2.0 * np.power(st.Jbar, -3.0) * st.dJbar ** 2 * st.dens,
        "r2": lambda st: (n + 1.0) * np.power(st.Jbar, -2.0) * st.tracefree_sq * st.dens,
    }


class _Integrals(dict):
    """Vol-normalised integrals of one identity by name, each summed on its
    first read and kept, as (value, err_est)."""

    def __init__(self, geom: CompactifiedGeometry, integrands: dict):
        super().__init__()
        self._itg = RadialIntegrator(geom)
        self._integrands = integrands

    def __missing__(self, name: str):
        self[name] = self._itg.integrate(self._integrands[name])
        return self[name]


@functools.lru_cache(maxsize=1)
def _identity(n: int, gamma: float | None, k: float):
    """(sr, Vol(M, ghat), integrals) of one case's integrated identity:
    adapted, or Lee when gamma is None (sr is None); M is the round sphere
    of radius k^{-1/2}.  Memoised for the last case only, so a defect
    identity right after the inequality of its case reuses the solve, the
    geometry, its lattice state and the integrals that inequality read."""
    if gamma is None:
        sr, geom, integrands = None, build_lee(ModelSpace(n, k)), _lee_integrands(n)
    else:
        sr = solve_case(QCurvParams(n, gamma, k))
        geom, integrands = build_adapted(sr), _adapted_integrands(n, gamma)
    return sr, k ** (-n / 2.0) * sphere_volume(n), _Integrals(geom, integrands)


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
    _check_tol(tol)
    sr, vol_m, integrals = _identity(n, gamma, k)
    kap = (1.0 - gamma) / gamma
    # the identity expresses the gap through the remainders, rescaled by the
    # boundary-term normalisation (2-2g) (-4g/d_g)^{-kap}
    fac = (-4.0 * gamma / d_gamma(gamma)) ** kap / (2.0 - 2.0 * gamma) * vol_m
    return _report(
        "hk-adapted", vol_m * sr.q_value ** (-kap), kap,
        (hk_constant(n, gamma) * vol_m, integrals["main"]),
        [("tracefree_hessian", fac, integrals["r1"]), ("grad_T", fac, integrals["r2"])],
        tol, gamma - 1.0 - n / 2.0,
        {"n": n, "gamma": gamma, "k": k, "tol": tol, "q_value": sr.q_value})


def verify_cla(n: int, k: float, tol: float = 1e-6) -> VerificationReport:
    """Classical Heintze-Karcher form at gamma = 1/2.

    lhs = int_M dS/Hbar with Hbar = n Q_1, rhs = (n+1)/n Vol(X, gbar_s);
    equality on the models (they are hyperbolic space).  Vol(X, gbar_s) is
    the main integral of the adapted identity at gamma = 1/2.
    """
    _check_tol(tol)
    sr, vol_m, integrals = _identity(n, 0.5, k)
    hbar = n * sr.q_value
    return _report(
        "hk-cla", vol_m / hbar, 1.0, ((n + 1.0) / n * vol_m, integrals["main"]), [], tol,
        -(n + 1.0) / 2.0,
        {"n": n, "k": k, "tol": tol, "Hbar": hbar, "q_value": sr.q_value})


def verify_lee(n: int, k: float, tol: float = 1e-6) -> VerificationReport:
    """Scalar-curvature Heintze-Karcher form on the Lee compactification.

    lhs = int_M dS/Jhat, rhs = 2(n+1)/n int_X rho_L dV; equality on models.
    """
    _check_tol(tol)
    _, vol_m, integrals = _identity(n, None, k)
    jhat = n * k / 2.0
    return _report(
        "hk-lee", vol_m / jhat, 0.0, (2.0 * (n + 1.0) / n * vol_m, integrals["main"]), [],
        tol, -n / 2.0 - 1.0, {"n": n, "k": k, "tol": tol, "J_hat": jhat})


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
    _check_tol(tol)
    if kind == "adapted":
        if gamma is None:
            raise ValueError("adapted defect identity needs gamma")
        sr, vol_m, integrals = _identity(n, gamma, k)
        kap = (1.0 - gamma) / gamma
        lhs = (2.0 - 2.0 * gamma) * (-4.0 * gamma / d_gamma(gamma)) ** (-kap) \
            * sr.q_value ** (-kap) * vol_m
        coef = (1.0 - gamma) * (n + 2.0 * gamma) ** 2 / (2.0 * (n + 1.0) * gamma)
        params = {"n": n, "gamma": gamma, "k": k, "tol": tol, "q_value": sr.q_value}
        k_weight = gamma - 1.0 - n / 2.0
        name = "defect-adapted"
    elif kind == "lee":
        if gamma is not None:
            raise ValueError("lee defect identity takes no gamma")
        _, vol_m, integrals = _identity(n, None, k)
        jhat = n * k / 2.0
        lhs = n ** 2 / (n + 1.0) * vol_m / jhat
        kap, coef = 0.0, 2.0 * n
        params = {"n": n, "k": k, "tol": tol, "J_hat": jhat}
        k_weight = -n / 2.0 - 1.0
        name = "defect-lee"
    else:
        raise ValueError(f"unknown defect kind {kind!r}")
    return _report(
        name, lhs, kap, (coef * vol_m, integrals["main"]),
        [("remainder_1", vol_m, integrals["r1"]), ("remainder_2", vol_m, integrals["r2"])],
        tol, k_weight, params, identity=True)


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
    r = 5e-4 (k = 1): the numerator is V/H_r, the volume integral
    int_0^{tau_r} V (f/f_r)^n dtau.  That integrand narrows like 1/n at
    tau_r; tau = tau_r e^{-s/(n+1)} turns it into
    tau V (f/f_r)^n / (n+1) ds on (0, inf), whose peak at s = 0 has O(1)
    width for every n and which decays like e^{-s}.  So it is summed on the
    Lee integrator's lattice, `de_lattice(TAIL_E_FOLDS)`, and abs_err is
    the relative change from step h to h/2 plus 1e-12.

    Every radius is checked before any quadrature (a radius outside
    (0, 2/sqrt(k)) raises ValueError); each radius is then one sum of its
    own, so its row does not depend on which other radii share the call,
    and all rows are summed in one array pass.
    """
    m = ModelSpace(n, k)
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    h_r = mean_curvature_exact(m, r)
    tau_r = m.tau_of_r(r)
    f_r = m.f_tau(tau_r)
    surface = m.df_tau(tau_r) / h_r
    s, weights, coarse = de_lattice(TAIL_E_FOLDS)
    tau = tau_r[:, None] * np.exp(-s / (n + 1.0))
    g = tau * m.df_tau(tau) * (m.f_tau(tau) / f_r[:, None]) ** n / (n + 1.0)
    v1, v2 = _levels(g, weights, coarse)
    return [{"n": n, "k": k, "r": float(x),
             "ratio": float(surface_x / ((n + 1.0) / n * v2_x)),
             "abs_err": float(abs(v1_x - v2_x) / max(v2_x, 1e-300) + 1e-12)}
            for x, v1_x, v2_x, surface_x in zip(r, v1, v2, surface)]
