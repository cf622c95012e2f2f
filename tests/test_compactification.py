"""Compactified geometries: closed-form cases, chain rules and residuals."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hkcce.compactification import (GeometryError, build_adapted, build_lee,
                                    residual_suite)
from hkcce.model_geometry import ModelSpace
from hkcce.special_fn import QCurvParams, d_gamma


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

    def test_mean_curvature_row(self, adapted):
        g = adapted(4, 0.5, 1.0)
        assert g.boundary["Hbar"] == pytest.approx(4.0, abs=1e-9)

    def test_umbilic(self, adapted, taus):
        st = adapted(4, 0.5, 1.0).state(taus)
        lam_rad, lam_sph = _hessian(st)
        assert np.max(st.tracefree_sq) <= 1e-9
        assert np.max(np.abs(lam_rad - lam_sph)) <= 1e-6

    def test_rho_at_center_is_half(self, adapted):
        # rho_s = (1 - |x|^2)/2 in the flat model
        st = adapted(4, 0.5, 1.0).state(1e-3)
        assert st.rho[0] == pytest.approx(0.5, abs=1e-6)


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

    def test_boundary_extrapolation_consistency(self, adapted):
        for case in ((4, 0.25, 1.0), (4, 0.75, 1.0), (6, 0.6, 2.0)):
            g = adapted(*case)
            assert g.boundary["T_boundary_rel_gap"] <= 1e-4

    def test_nonpositive_u_rejected(self, solved):
        profile, sr = solved(4, 0.5, 1.0)
        bad = replace(profile, u=profile.u - 2.0 * np.max(profile.u))
        with pytest.raises(GeometryError):
            build_adapted(ModelSpace(4, 1.0), sr, bad)

    def test_nonpositive_T_rejected_where_evaluated(self, solved):
        # |u'/u| > n - s at tau = 1 alone gives 1 - w^2 < 0, so T < 0 there
        profile, sr = solved(4, 0.5, 1.0)

        def values(tau):
            u, du = profile.values(tau)
            return u, np.where(tau == 1.0, 50.0 * du, du)

        g = build_adapted(ModelSpace(4, 1.0), sr, replace(profile, values=values))
        assert np.all(g.state([0.5, 1.5]).T > 0.0)
        with pytest.raises(GeometryError, match="T is not positive at tau = 1 "):
            g.state([0.5, 1.0, 1.5])

    def test_dump_csv(self, adapted, tmp_path):
        g = adapted(4, 0.5, 1.0)
        path = tmp_path / "profile.csv"
        g.dump_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,r,rho,drho,grad_sq,T_or_J,res_rho,res_T_or_J"
        assert len(lines) > 100
