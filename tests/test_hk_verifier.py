"""Inequality verdicts, defect identities and the asymptotic ratio."""

import math

import numpy as np
import pytest

from hkcce.compactification import build_lee
from hkcce.hk_verifier import (RadialIntegrator, TailSpec, asymptotic_ratio,
                               defect_identity, verify_adapted, verify_cla,
                               verify_lee)
from hkcce.model_geometry import ModelSpace
from hkcce.special_fn import sphere_q_value

# measured relative gaps (lhs - rhs)/lhs on the models, archived as loose
# regression baselines; no sharper lower bound is available
GAP_BASELINES = {
    (4, 0.25): 0.136155, (4, 0.75): 0.102442,
    (5, 0.25): 0.135922, (5, 0.75): 0.109570,
    (6, 0.25): 0.135481, (6, 0.75): 0.114733,
}


class TestClassicalForm:
    def test_n4_k1_value(self):
        rep = verify_cla(4, 1.0)
        target = 2 * math.pi ** 2 / 3
        assert rep.lhs == pytest.approx(target, abs=1e-6)
        assert rep.rhs == pytest.approx(target, abs=1e-6)
        assert rep.verdict == "equality"

    def test_n5_k1_value(self):
        rep = verify_cla(5, 1.0)
        assert rep.lhs == pytest.approx(math.pi ** 3 / 5, abs=1e-6)
        assert rep.verdict == "equality"

    def test_k4_mean_curvature(self):
        rep = verify_cla(4, 4.0)
        # Q_1 = sqrt(k) = 2 so Hbar = n Q_1 = 8
        assert rep.params["Hbar"] == pytest.approx(8.0, abs=1e-6)
        assert rep.verdict == "equality"


class TestLeeForm:
    def test_n4_k1_value(self):
        rep = verify_lee(4, 1.0)
        target = 4 * math.pi ** 2 / 3
        assert rep.lhs == pytest.approx(target, abs=1e-6)
        assert rep.rhs == pytest.approx(target, abs=1e-6)
        assert rep.verdict == "equality"

    def test_n5_k1_value(self):
        rep = verify_lee(5, 1.0)
        assert rep.lhs == pytest.approx(2 * math.pi ** 3 / 5, abs=1e-6)
        assert rep.verdict == "equality"

    def test_k2_equality_and_lhs_formula(self):
        rep = verify_lee(4, 2.0)
        from hkcce.special_fn import sphere_volume
        assert rep.lhs == pytest.approx(2.0 ** -2 * sphere_volume(4) / 4.0, rel=1e-12)
        assert rep.verdict == "equality"


class TestAdaptedForm:
    def test_equality_at_half(self):
        rep = verify_adapted(4, 0.5, 1.0)
        target = 8 * math.pi ** 2 / 3
        assert rep.lhs == pytest.approx(target, rel=1e-8)
        assert rep.rhs == pytest.approx(target, rel=1e-7)
        assert rep.verdict == "equality"

    @pytest.mark.parametrize("gamma", [0.25, 0.75])
    def test_strict_away_from_half(self, gamma):
        rep = verify_adapted(4, gamma, 1.0)
        assert rep.verdict == "strict"
        assert rep.gap > 1e-3 * rep.lhs

    @pytest.mark.parametrize("n,gamma", sorted(GAP_BASELINES))
    def test_gap_regression_baseline(self, n, gamma):
        rep = verify_adapted(n, gamma, 1.0)
        base = GAP_BASELINES[(n, gamma)]
        assert rep.gap / rep.lhs == pytest.approx(base, rel=0.2)

    @pytest.mark.parametrize("gamma", [0.05, 0.95])
    def test_large_n_q_value(self, gamma):
        # the centre series and the tau = 3 connection stay representable at
        # n = 60, where a matching point at tau >= 6 underflowed r^{n-s}
        rep = verify_adapted(60, gamma, 1.0)
        assert rep.params["q_value"] == pytest.approx(sphere_q_value(60, gamma, 1.0), rel=1e-10)

    # At n = 60 the quadrature error estimate exceeds the tolerance for
    # gamma = 0.05 (boundary layer), so both checks are inconclusive.  For
    # gamma = 0.95 lhs is about 5e-17: hk-adapted has gap/lhs = 0.39 and the
    # defect balance is off by 0.4% with err_est 1.5e-20 > 10 tol |lhs|, but
    # _verdict and _balance_verdict scale their tolerance by max(|lhs|, 1)
    # and report equality for both.
    _SCALE_BUG = pytest.mark.xfail(
        strict=True, reason="verdict tolerance scaled by max(|lhs|, 1), not |lhs|")

    @pytest.mark.parametrize("kind,gamma,expected", [
        ("hk", 0.05, "inconclusive"),
        pytest.param("hk", 0.95, "strict", marks=_SCALE_BUG),
        ("defect", 0.05, "inconclusive"),
        pytest.param("defect", 0.95, "inconclusive", marks=_SCALE_BUG),
    ])
    def test_large_n_verdict(self, kind, gamma, expected):
        if kind == "hk":
            rep = verify_adapted(60, gamma, 1.0)
        else:
            rep = defect_identity("adapted", 60, 1.0, gamma=gamma)
        assert rep.verdict == expected

    def test_gap_equals_remainder_sum(self):
        # the integrated identity expresses the inequality gap exactly as the
        # sum of the two nonnegative defect remainders
        rep = verify_adapted(4, 0.25, 1.0)
        total = sum(v for _, v in rep.remainders)
        assert rep.gap == pytest.approx(total, rel=1e-5)

    def test_scaling_coherence(self):
        # rerunning at k relates lhs and rhs by the documented weight k^w
        for gamma in (0.25, 0.75):
            r1 = verify_adapted(4, gamma, 1.0)
            r2 = verify_adapted(4, gamma, 2.0)
            scale = 2.0 ** r1.k_weight
            assert r2.lhs / r1.lhs == pytest.approx(scale, rel=1e-5)
            assert r2.rhs / r1.rhs == pytest.approx(scale, rel=1e-5)
        rc1, rc2 = verify_cla(4, 1.0), verify_cla(4, 4.0)
        assert rc2.lhs / rc1.lhs == pytest.approx(4.0 ** rc1.k_weight, rel=1e-5)
        rl1, rl2 = verify_lee(5, 1.0), verify_lee(5, 2.0)
        assert rl2.rhs / rl1.rhs == pytest.approx(2.0 ** rl1.k_weight, rel=1e-5)


class TestDefectIdentities:
    def test_lee_balances_tightly(self):
        rep = defect_identity("lee", 4, 1.0)
        assert abs(rep.gap) <= 1e-8 * abs(rep.lhs)
        for _, v in rep.remainders:
            assert -1e-9 <= v <= 1e-8
        assert rep.verdict == "equality"

    def test_adapted_half_balances(self):
        rep = defect_identity("adapted", 4, 1.0, gamma=0.5)
        assert abs(rep.gap) <= 1e-6 * abs(rep.lhs)
        for _, v in rep.remainders:
            assert -1e-9 <= v <= 1e-7

    def test_adapted_quarter_nontrivial(self):
        rep = defect_identity("adapted", 4, 1.0, gamma=0.25)
        assert abs(rep.gap) <= 1e-5 * abs(rep.lhs)
        for _, v in rep.remainders:
            assert v > 0.0
        assert rep.verdict == "equality"

    def test_requires_gamma_for_adapted(self):
        with pytest.raises(ValueError):
            defect_identity("adapted", 4, 1.0)
        with pytest.raises(ValueError):
            defect_identity("bogus", 4, 1.0)


class TestAsymptoticRatio:
    def test_reference_points(self):
        rows = asymptotic_ratio(5, 1.0, [0.3])
        assert rows[0]["ratio"] == pytest.approx(1.0, abs=1e-8)
        rows = asymptotic_ratio(7, 2.0, [0.1])
        assert rows[0]["ratio"] == pytest.approx(1.0, abs=1e-8)

    def test_log_grid(self):
        r_values = 0.5 * np.logspace(-3, 0, 20)
        for row in asymptotic_ratio(5, 1.0, r_values):
            assert abs(row["ratio"] - 1.0) <= 1e-8
            assert row["abs_err"] <= 1e-8


class TestQuadrature:
    def test_monotone_refinement(self, lee):
        # doubling nodes moves the integral by less than the error estimate
        geom = lee(4, 1.0)
        coarse = RadialIntegrator(geom, tau_panels=6, order=10)
        fine = RadialIntegrator(geom, tau_panels=12, order=20)
        spec = TailSpec(p=2.0, q=2.0)
        g = lambda st: st.rho * st.voldens
        v1, e1 = coarse.integrate(g, spec)
        v2, e2 = fine.integrate(g, spec)
        assert abs(v2 - v1) <= max(e1, 1e-13)

    def test_error_estimates_honest(self):
        # the reported estimate bounds the true defect on a known integral:
        # int rho dV / Vol(M) for the k=1 hemisphere is 1/(n+1)
        geom = build_lee(ModelSpace(4, 1.0))
        itg = RadialIntegrator(geom)
        val, err = itg.integrate(lambda st: st.rho * st.voldens, TailSpec(p=2.0, q=2.0))
        assert abs(val - 0.2) <= max(err, 1e-12)


def test_report_serialisation():
    rep = verify_lee(4, 1.0)
    d = rep.to_dict()
    assert set(d) == {"name", "params", "lhs", "rhs", "gap", "remainders",
                      "verdict", "err_est", "k_weight"}
    assert d["verdict"] == "equality"
    assert rep.passing
