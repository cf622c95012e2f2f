"""Compactified geometries: closed-form cases, chain rules and residuals."""

import functools
import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

from hkcce.compactification import (TAIL_E_FOLDS, CompactifiedGeometry, GeometryError,
                                    GeometryState, build_adapted, build_lee,
                                    residual_suite)
from hkcce.hk_verifier import RadialIntegrator, verify_cla
from hkcce.model_geometry import ModelSpace
from hkcce.scattering import TAU_MATCH, de_lattice
from hkcce.special_fn import GAMMA_MAX, GAMMA_MIN, QCurvParams, d_gamma

import reference


def _hessian(st):
    """Unit-frame Hessian eigenvalues of rho: lam_rad = w'/rho, lam_sph = w (w + coth)/rho.

    w + coth is summed as (1 + w) + (coth - 1), with 1 + w = x S_hat/(1 - w)
    and coth - 1 = 2/(e^{2 tau} - 1), so that it keeps its digits near the
    boundary, where it is O(r^{2 gamma}).
    """
    w_plus_coth = st.x * st.S_hat / (1.0 - st.w) + 2.0 / np.expm1(2.0 * st.tau)
    return st.dw / st.rho, st.w * w_plus_coth / st.rho


class TestFlatBallCase:
    """gamma = 1/2, k = 1: the adapted metric is the flat unit ball."""

    def test_T_is_constant_two(self, adapted, taus):
        g = adapted(4, 0.5, 1.0)
        st = g.state(taus)
        assert np.max(np.abs(st.T - 2.0)) <= 1e-6

    def test_boundary_row(self, adapted):
        g = adapted(4, 0.5, 1.0)
        # T|_M = -(4 gamma / d_gamma) Q = 2 Q_1 = 2
        assert g.boundary["T_boundary_target"] == pytest.approx(2.0, abs=1e-9)
        assert g.boundary["T_boundary"] == pytest.approx(2.0, abs=1e-8)

    def test_mean_curvature_row(self):
        # Hbar = n Q_1 at gamma = 1/2, reported by the classical form
        assert verify_cla(4, 1.0).params["Hbar"] == pytest.approx(4.0, abs=1e-9)

    def test_umbilic(self, adapted, taus):
        st = adapted(4, 0.5, 1.0).state(taus)
        lam_rad, lam_sph = _hessian(st)
        assert np.max(st.tracefree_sq) <= 1e-9
        assert np.max(np.abs(lam_rad - lam_sph)) <= 1e-6

    def test_rho_at_center_is_half(self, adapted):
        # rho_s = (1 - |x|^2)/2 in the flat model
        st = adapted(4, 0.5, 1.0).state(1e-3)
        assert st.rho[0] == pytest.approx(0.5, abs=1e-6)


@functools.cache
def _flat_ball(k, tau):
    """`reference.half_state` at one point, rounded to double."""
    with mpmath.workdps(30):
        return tuple(map(float, reference.half_state(k, tau)))


class TestFlatBallState:
    """gamma = 1/2 at every k: the adapted metric is the flat ball of radius
    k^{-1/2}, and its state is elementary (`reference.half_state`)."""

    EPS = float(np.finfo(float).eps)

    @pytest.mark.parametrize("n", (3, 4, 5, 10, 20, 40, 60, 100, 150))
    def test_lattice_and_window_states_are_the_closed_forms(self, adapted, solved, n):
        """T = 2 sqrt(k), T' = 0, S_hat, rho/r and w'/x on the lattice state
        and on the residual window, over k 0.5, 1, 2: up to n = 20 on both
        sides of TAU_MATCH within a few eps.  Beyond, the centre series'
        side holds within some ten times that, and the branch side within a
        few times the connection's condition_estimate eps: its sum
        low + q x high cancels by that factor at TAU_MATCH, 1e5 at n = 100
        and 2e7 at n = 150 (ROADMAP item 2)."""
        for k in (0.5, 1.0, 2.0):
            g = adapted(n, 0.5, k)
            cond = solved(n, 0.5, k).condition_estimate
            for st in (g.lattice.state, g.window):
                centre = st.tau <= TAU_MATCH
                if n <= 20:
                    halves = ((slice(None), (8, 32, 128)),)
                else:
                    halves = ((centre, (64, 256, 1024)),
                              (~centre, (8 * cond, 64 * cond, 128 * cond)))
                for at, (value_eps, dT_eps, dw_eps) in halves:
                    T, S_hat, rho_over_r, dw_hat = np.array(
                        [_flat_ball(k, float(t)) for t in st.tau[at]]).T
                    for got, want, bound in ((st.T, T, value_eps), (st.S_hat, S_hat, value_eps),
                                             (st.rho_over_r, rho_over_r, value_eps),
                                             (st.dw_hat, dw_hat, dw_eps)):
                        assert np.all(np.abs(got[at] - want) <= bound * self.EPS * np.abs(want))
                    assert np.all(np.abs(st.dT[at]) <= dT_eps * self.EPS * 2.0 * math.sqrt(k))


class TestLeeHemisphere:
    def test_jbar_constant(self, lee, taus):
        g = lee(4, 1.0)
        st = g.state(taus)
        assert np.max(np.abs(st.Jbar - 2.5)) <= 1e-10

    def test_closed_forms_k1(self, lee):
        g = lee(4, 1.0)
        taus = np.linspace(0.2, 6.0, 40)
        st = g.state(taus)
        assert np.max(np.abs(st.rho - 1.0 / np.cosh(taus))) <= 1e-12
        assert np.max(np.abs(st.grad_sq - np.tanh(taus) ** 2)) <= 1e-12
        # (1 - grad_sq)/rho^2 = 1 so Jbar = (n+1)/2
        assert np.max(np.abs((1 - st.grad_sq) / st.rho ** 2 - 1.0)) <= 1e-10

    @pytest.mark.parametrize("n,k", [(4, 1.0), (5, 2.0), (6, 0.5)])
    def test_boundary_value(self, lee, n, k):
        g = lee(n, k)
        target = (n + 1.0) / n * (n * k / 2.0)
        assert g.boundary["J_boundary"] == pytest.approx(target, rel=1e-9)

    def test_umbilic(self, lee, taus):
        for n, k in ((4, 1.0), (5, 2.0)):
            assert np.max(lee(n, k).state(taus).tracefree_sq) <= 1e-9


class TestHessianSplit:
    def test_tracefree_norm_algebra(self):
        # diag(a, b I_n) trace-free squared norm is n (a-b)^2/(n+1)
        lam_rad, lam_sph, n = 3.0, 1.0, 4
        assert (n / (n + 1)) * (lam_rad - lam_sph) ** 2 == pytest.approx(3.2)

    def test_split_consistency_on_grid(self, adapted, taus):
        g = adapted(4, 0.25, 1.0)
        st = g.state(taus)
        lam_rad, lam_sph = _hessian(st)
        recon = (g.base.n / (g.base.n + 1.0)) * (lam_rad - lam_sph) ** 2
        assert np.max(np.abs(recon - st.tracefree_sq)) <= 1e-12 * (1 + np.max(recon))

    def test_trace_identity(self, adapted, taus):
        # lam_rad + n lam_sph vs the product-rule Laplacian, to 1e-8 where
        # both are well conditioned
        g = adapted(5, 0.6, 2.0)
        st = g.state(taus)
        n = g.base.n
        lam_rad, lam_sph = _hessian(st)
        lap = lam_rad + n * lam_sph
        alpha, b = st.rho, st.rho * st.f
        db = st.rho * (st.w * st.f + st.df)
        drho, ddrho = st.rho * st.w, st.rho * (st.dw + st.w ** 2)
        direct = ddrho / alpha ** 2 + n * (db / b) * drho / alpha ** 2 \
            - st.w * drho / alpha ** 2
        mask = (np.abs(direct) > 1e-6) & (st.r > 1e-3 * g.base.r_center)
        rel = np.abs(lap[mask] - direct[mask]) / np.abs(direct[mask])
        assert np.max(rel) <= 1e-8


class TestChainRules:
    """Richardson finite differences as an independent oracle for dT, ddT."""

    @staticmethod
    def _fd(fn, tau, h=1e-4):
        d1 = (fn(tau + h) - fn(tau - h)) / (2 * h)
        d2 = (fn(tau + h / 2) - fn(tau - h / 2)) / h
        return (4 * d2 - d1) / 3.0

    def test_dT_and_ddT(self, adapted):
        g = adapted(4, 0.25, 1.0)
        taus = np.linspace(0.4, 1.8, 7)
        st = g.state(taus)
        fd_dT = self._fd(lambda t: g.state(t).T, taus)
        assert np.max(np.abs(fd_dT - st.dT) / (1 + np.abs(st.dT))) <= 1e-7
        fd_ddT = self._fd(lambda t: g.state(t).dT, taus)
        assert np.max(np.abs(fd_ddT - st.ddT) / (1 + np.abs(st.ddT))) <= 1e-7

    def test_dJbar(self, lee):
        g = lee(5, 1.0)
        taus = np.linspace(0.4, 2.0, 7)
        st = g.state(taus)
        fd = self._fd(lambda t: g.state(t).Jbar, taus)
        assert np.max(np.abs(fd - st.dJbar)) <= 1e-7


class TestCentreClosure:
    """w' on the centre series' nodes against a 40-digit reference."""

    @pytest.mark.parametrize("n, gamma", [(3, 0.95), (10, 0.84), (20, 0.6), (60, 0.95)])
    def test_lattice_dw_near_the_connection_point(self, solved, n, gamma):
        """On the lattice's nodes in tau [2, 3], where 1 + w falls to about
        0.1, w'/x is within 32 double eps of v'/((n-s) x): v = u'/u from
        `reference`'s 2F1 and v' from its ODE closure, both at 40 digits, and
        x the state's own.  The closure for v, in double, is off by 63
        (n = 3), 89, 158 and 420 eps (n = 60) here."""
        st = build_adapted(solved(n, gamma, 1.0)).lattice[0]
        eps = float(np.finfo(float).eps)
        with mpmath.workdps(40):
            s = mpmath.mpf(n) / 2 + mpmath.mpf(gamma)
            for i in np.flatnonzero((st.tau >= 2.0) & (st.tau <= TAU_MATCH)):
                tau = mpmath.mpf(st.tau[i])
                _, dw = reference.closure(n, s, tau, *reference.u_and_du(n, s, tau))
                ref = dw / mpmath.mpf(st.x[i])
                assert abs(st.dw_hat[i] / ref - 1) <= 32 * eps, (n, gamma, st.tau[i])


class TestResiduals:
    def test_lee_closed_form_residuals(self, lee):
        for n, k in ((4, 1.0), (5, 2.0), (6, 0.5)):
            res = residual_suite(lee(n, k))
            for name, rp in res.items():
                assert rp.sup_weighted <= 1e-9, (n, k, name, rp.sup_weighted)

    def test_adapted_flat_ball_residuals(self, adapted):
        res = residual_suite(adapted(4, 0.5, 1.0))
        assert res["res_T"].sup_weighted <= 1e-6
        assert res["res_rho"].sup_weighted <= 1e-6

    def test_adapted_nontrivial_residuals(self, adapted):
        res = residual_suite(adapted(4, 0.25, 1.0))
        assert res["res_rho"].sup_weighted <= 1e-5
        assert res["res_T"].sup_weighted <= 1e-5

    def test_jbar_crosscheck(self, adapted, lee):
        assert residual_suite(adapted(5, 0.4, 2.0))["jbar_crosscheck"].sup_weighted <= 1e-5
        assert residual_suite(lee(6, 0.5))["jbar_crosscheck"].sup_weighted <= 1e-5


class TestStructure:
    def test_positivity(self, adapted, lee, taus):
        st = adapted(4, 0.75, 0.5).state(taus)
        assert np.all(st.T > 0)
        st = lee(6, 2.0).state(taus)
        assert np.all(st.Jbar > 0)

    def test_rho_normalisation_at_boundary(self, adapted):
        g = adapted(5, 0.6, 1.0)
        st = g.state_of_r(np.array([1e-4, 1e-7, 1e-9]))
        assert np.max(np.abs(st.rho_over_r - 1.0)) <= 1e-3
        assert abs(st.rho_over_r[-1] - 1.0) <= 1e-7
        assert np.all(st.rho > 0)

    @pytest.mark.parametrize("kind", ("adapted", "lee"))
    def test_points_off_the_radial_chart_are_refused(self, adapted, lee, kind, monkeypatch):
        """tau <= 0 or NaN, and r outside [0, r_center) = [0, 2) at k = 1,
        raise ValueError before any state is assembled; r = 0 and tau = inf
        are the boundary."""
        g = adapted(4, 0.5, 1.0) if kind == "adapted" else lee(4, 1.0)
        boundary = g.state_of_r(0.0)
        assert boundary.tau[0] == math.inf and g.state(math.inf).r[0] == 0.0

        def no_work(*args, **kwargs):
            raise AssertionError("assembled a state off the radial chart")

        monkeypatch.setattr(g, "_assemble", no_work)
        for tau in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match=r"outside \(0, inf\]"):
                g.state([1.0, tau])
        for r in (3.0, 2.0, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"outside \[0, 2.0\)"):
                g.state_of_r([0.5, r])

    def test_boundary_extrapolation_consistency(self, adapted):
        for case in ((4, 0.25, 1.0), (4, 0.75, 1.0), (6, 0.6, 2.0)):
            g = adapted(*case)
            assert g.boundary["T_boundary_rel_gap"] <= 1e-4

    def test_model_and_interior_are_the_results(self, solved):
        for n, gamma, k in ((4, 0.3, 1.0), (5, 0.6, 2.0), (10, 0.95, 0.5)):
            sr = solved(n, gamma, k)
            g = build_adapted(sr)
            assert g.base == ModelSpace(sr.params.n, sr.params.k)
            assert (g.s, g.gamma, g.c1, g.q_value) == (sr.params.s, gamma, sr.c1, sr.q_value)
            assert g.interior is sr.interior

    def test_nonpositive_u_rejected(self, solved):
        sr = solved(4, 0.5, 1.0)
        interior = sr.interior
        bad = StubInterior(interior.u - 2.0 * np.max(interior.u), interior)
        with pytest.raises(GeometryError):
            build_adapted(replace(sr, interior=bad))

    def test_nonpositive_T_rejected_where_evaluated(self, solved):
        # |u'/u| > n - s at tau = 1 alone gives 1 - w^2 < 0, so T < 0 there
        sr = solved(4, 0.5, 1.0)

        def values(tau):
            u, du, y = sr.interior(tau)
            at = tau == 1.0
            return u, np.where(at, 50.0 * du, du), np.where(at, 1.0 + 50.0 * (y - 1.0), y)

        g = build_adapted(replace(sr, interior=StubInterior(sr.interior.u, values)))
        assert np.all(g.state([0.5, 1.5]).T > 0.0)
        with pytest.raises(GeometryError, match="T is not positive at tau = 1 "):
            g.state([0.5, 1.0, 1.5])


class StubInterior:
    """A stand-in for an interior series: a table u and the values at any tau."""

    def __init__(self, u, values):
        self.u, self.values = u, values

    def __call__(self, tau):
        return self.values(tau)


_SECOND_ORDER = ("ddS_hat", "ddT")


def _same_bits(a: GeometryState, b: GeometryState):
    """Every field that a holds equals b's, array fields bit for bit.

    a is a first-order lattice state: its second-order fields are None,
    while b, a full state, carries them (ddT only in the adapted case,
    where there is a T).
    """
    for f in fields(GeometryState):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name in _SECOND_ORDER:
            assert x is None, f.name
            assert (y is not None) == (f.name == "ddS_hat" or b.T is not None), f.name
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


class TestLatticeState:
    """One assembly per state of a geometry: the quadrature nodes, and r = 0
    on its own.

    The suite turns RuntimeWarning into an error (pyproject.toml), so these
    cases also show that the r = 0 point assembles without a warning.
    """

    CASES = [("adapted", n, gamma, k) for n in (3, 6) for gamma in (0.05, 0.5, 0.95)
             for k in (0.5, 2.0)] + [("lee", n, None, k) for n in (3, 6, 10) for k in (0.5, 2.0)]

    @staticmethod
    def _geometry(solved, kind, n, gamma, k):
        # a fresh geometry, not the session fixture's, so no lattice is cached yet
        if kind == "lee":
            return build_lee(ModelSpace(n, k))
        return build_adapted(solved(n, gamma, k))

    @pytest.mark.parametrize("kind,n,gamma,k", CASES)
    def test_folded_state_equals_the_separate_evaluations(self, solved, kind, n, gamma, k):
        g = self._geometry(solved, kind, n, gamma, k)
        rate = min(2.0 * gamma, 2.0 - 2.0 * gamma, 1.0) if kind == "adapted" else 1.0
        tau, weights, coarse, _ = de_lattice(TAIL_E_FOLDS / rate)
        lat = g.lattice
        assert np.array_equal(lat.weights, weights) and lat.coarse == coarse
        _same_bits(lat.state, g.state(tau))
        # the boundary values are the full state's at r = 0, bit for bit
        full = g.state_of_r(0.0)
        if kind == "lee":
            assert g.boundary["J_boundary"] == float(full.Jbar[0])
        else:
            assert g.boundary["T_boundary"] == float(full.T[0])

    @pytest.mark.parametrize("gamma", (GAMMA_MIN, GAMMA_MAX))
    def test_an_adapted_lattice_builds_at_the_ends_of_the_gamma_box(self, solved, gamma):
        """The widest lattice is derived from the gamma box, so the slowest
        boundary decays it admits still reach TAIL_E_FOLDS."""
        lat = self._geometry(solved, "adapted", 4, gamma, 1.0).lattice
        assert lat.state.tau[0] > TAIL_E_FOLDS / min(2 * gamma, 2 - 2 * gamma)

    def test_one_assembly_per_geometry(self, solved, monkeypatch):
        calls = []
        assemble = CompactifiedGeometry._assemble

        def counted(self, tau, *args, **kwargs):
            calls.append(len(tau))
            return assemble(self, tau, *args, **kwargs)

        monkeypatch.setattr(CompactifiedGeometry, "_assemble", counted)
        for kind, n, gamma, k in (("adapted", 4, 0.3, 1.0), ("lee", 5, None, 2.0)):
            calls.clear()
            g = self._geometry(solved, kind, n, gamma, k)
            assert calls == []                     # building evaluates nothing
            residual_suite(g)
            assert len(calls) == 1 and "lattice" not in vars(g)
            itg = RadialIntegrator(g)
            g.boundary
            RadialIntegrator(g)
            g.boundary
            # the window, the lattice, then the one point r = 0
            assert calls == [200, len(itg.state.tau), 1]

    def test_nonpositive_boundary_T_raises_on_first_use(self, solved):
        # a scattering value of the wrong sign turns T negative towards r = 0,
        # T(0) = -(4 gamma/d_gamma) Q included; the build itself evaluates no
        # state, so the error comes where a state is first assembled
        sr = solved(4, 0.3, 1.0)
        bad = replace(sr, scattering_value=-sr.scattering_value)
        for use in (lambda g: g.boundary, RadialIntegrator):
            g = build_adapted(bad)
            with pytest.raises(GeometryError, match="is not positive"):
                use(g)
