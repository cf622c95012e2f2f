"""Inequality verdicts, defect identities and the asymptotic ratio."""

import math

import numpy as np
import pytest

from hkcce import cli, scattering
from hkcce.compactification import build_lee
from hkcce.hk_verifier import (RadialIntegrator, _adapted_identity,
                               asymptotic_ratio, defect_identity,
                               verify_adapted, verify_cla, verify_lee)
from hkcce.model_geometry import ModelSpace
from hkcce.special_fn import hk_constant, sphere_q_value, sphere_volume

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

    def test_large_n(self):
        # Gamma((n+1)/2) alone overflows a double from n = 284; past n ~ 436
        # the sphere volume, and with it lhs, is subnormal
        assert verify_lee(284, 1.0).verdict == "equality"
        assert verify_lee(470, 1.0).verdict == "inconclusive"

    @pytest.mark.parametrize("n", [3, 5, 20])
    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_conclusive_at_tight_tol(self, n, k):
        # lhs is closed form, so err_est carries only the quadrature estimate
        # and 4 eps |lhs|, not a flat 1e-10 |lhs|
        assert verify_lee(n, k, tol=1e-11).verdict == "equality"
        assert defect_identity("lee", n, k, tol=1e-11).verdict == "equality"


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

    # At gamma = 0.95 lhs is about 5e-17 and hk-adapted has gap/lhs = 0.39:
    # the verdict tolerance scales with |lhs|, not max(|lhs|, 1), so this is
    # strict, and the defect identity balances to its tolerance.
    @pytest.mark.parametrize("kind,gamma,expected", [
        ("hk", 0.05, "strict"),
        ("hk", 0.95, "strict"),
        ("defect", 0.05, "equality"),
        ("defect", 0.95, "equality"),
    ])
    def test_large_n_verdict(self, kind, gamma, expected):
        if kind == "hk":
            rep = verify_adapted(60, gamma, 1.0)
        else:
            rep = defect_identity("adapted", 60, 1.0, gamma=gamma)
        assert rep.verdict == expected

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_n100_is_conclusive(self, gamma, k):
        # u = r^{n-s} U0 underflows long before the boundary at n = 100; the
        # state never forms u there
        rep = verify_adapted(100, gamma, k)
        assert rep.verdict == ("equality" if gamma == 0.5 else "strict")
        assert defect_identity("adapted", 100, k, gamma=gamma).verdict == "equality"

    @pytest.mark.parametrize("n,gamma", [(3, 0.05), (10, 0.25), (20, 0.95), (60, 0.1)])
    def test_conclusive_at_tight_tol(self, n, gamma):
        # err_est carries Q's checked one-ulp error, not a flat 1e-9 |lhs|
        rep = verify_adapted(n, gamma, 2.0, tol=1e-10)
        assert rep.verdict == "strict"
        assert rep.err_est <= 1e-12 * abs(rep.lhs)
        assert defect_identity("adapted", n, 2.0, tol=1e-10, gamma=gamma).verdict == "equality"

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


def _clear_memos():
    scattering.solve_case.cache_clear()
    scattering._interior.cache_clear()
    _adapted_identity.cache_clear()


class TestMemo:
    """_adapted_identity keeps the last (n, gamma, k); a hit equals a cold run."""

    @pytest.fixture(autouse=True)
    def _cold(self):
        _clear_memos()
        yield
        _clear_memos()

    def test_reports_after_hit_equal_cold_runs(self):
        cases = [(5, 0.3, 2.0), (4, 0.5, 1.0), (7, 0.9, 0.5)]
        cold = {}
        for n, gamma, k in cases:
            _clear_memos()
            cold[n, "hk"] = verify_adapted(n, gamma, k).to_dict()
            _clear_memos()
            cold[n, "defect"] = defect_identity("adapted", n, k, gamma=gamma).to_dict()
        _clear_memos()
        for n, gamma, k in cases:
            assert verify_adapted(n, gamma, k).to_dict() == cold[n, "hk"]
            assert defect_identity("adapted", n, k, gamma=gamma).to_dict() == cold[n, "defect"]
        info = _adapted_identity.cache_info()
        assert (info.hits, info.misses) == (len(cases), len(cases))

    def test_sweep_keeps_one_entry_per_memo(self, tmp_path):
        rc = cli.main(["sweep", "--n", "4,5,6", "--gamma", "0.25,0.4,0.5,0.6,0.75",
                       "--k", "0.5,1,2", "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        memos = (scattering.solve_case, scattering._interior, _adapted_identity)
        assert all(m.cache_info().currsize <= 1 for m in memos)
        # 15 interiors; each case solved for its Q row, then read back by hk-adapted
        assert scattering._interior.cache_info().misses == 15
        assert scattering.solve_case.cache_info()[:2] == (45, 45)


class TestMpmathBoundaryLayer:
    """main, R1 and R2 against mp.quad over a 2F1 profile, n = 4, k = 1.

    u = 2F1(s/2, (n-s)/2; (n+1)/2; -sinh^2 tau), u' from the contiguous
    2F1(a+1, b+1; c+1), w' from the closure, c1 from its Gamma-function
    form.  1 - w^2 and T' lose about (2g + min(2g, 2-2g)) tau / ln 10
    digits to cancellation, so each node is evaluated with that many digits
    on top of 30.  The integrals are cut where the rest is below e^{-46}.
    """

    DPS = 30

    @classmethod
    def _reference(cls, n, gamma, k):
        import mpmath as mp

        loss = (2 * gamma + min(2 * gamma, 2 - 2 * gamma)) / math.log(10)
        cache = {}

        def point(tau):
            key = mp.nstr(tau, cls.DPS)
            if key not in cache:
                with mp.workdps(cls.DPS + 10 + int(loss * float(tau))):
                    g = mp.mpf(gamma)
                    s = mp.mpf(n) / 2 + g
                    m = n - s
                    a, b, c = s / 2, m / 2, mp.mpf(n + 1) / 2
                    kap = (1 - g) / g
                    c1 = mp.gamma(c) * mp.gamma(g) / (mp.gamma(s / 2) * mp.gamma((s + 1) / 2)) \
                        * mp.mpf(k) ** (m / 2)
                    t = mp.mpf(tau)
                    sh, ch = mp.sinh(t), mp.cosh(t)
                    u = mp.hyp2f1(a, b, c, -sh * sh)
                    du = -2 * sh * ch * a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, -sh * sh)
                    coth = ch / sh
                    v = du / u
                    w, dw = v / m, (-n * coth * v - s * m - v * v) / m
                    rho = (u / c1) ** (1 / m)
                    S = 1 - w * w
                    T = S * rho ** (-2 * g)
                    dT = (-2 * w * dw - 2 * g * w * S) * rho ** (-2 * g)
                    tf_sq = n / (n + 1) * (dw - w * (w + coth)) ** 2 / rho ** 2
                    vol = rho ** (n + 1) * (mp.sqrt(k) * sh) ** n
                    cache[key] = (
                        rho ** (2 * g - 1) * T ** (1 - kap) * vol,
                        2 * kap * rho ** (1 - 2 * g) * T ** (-kap - 1) * tf_sq * vol,
                        kap * (kap + 1) * rho * T ** (-kap - 2) * (dT / rho) ** 2 * vol)
            return cache[key]

        out = []
        with mp.workdps(cls.DPS):
            rates = (2 * gamma, 2 * gamma, 2 * min(2 * gamma, 2 - 2 * gamma))
            for i, rate in enumerate(rates):
                tau_c = 46 / rate
                cuts = [0] + [p for p in (0.5, 2, 6, 15, 40, 100, 250) if p < tau_c] + [tau_c]
                out.append(float(mp.quad(lambda t: point(t)[i], cuts)))
        return out

    @pytest.mark.parametrize("gamma", [0.05, 0.15, 0.95])
    def test_integrals_within_err_est(self, gamma):
        n, k = 4, 1.0
        main, r1, r2 = self._reference(n, gamma, k)
        _, _, *integrals = _adapted_identity(n, gamma, k)
        for (value, err), ref in zip(integrals, (main, r1, r2)):
            assert abs(value - ref) <= err, (value, ref, err)
        # the same references through the reports
        rep = verify_adapted(n, gamma, k)
        assert rep.verdict == "strict"
        vol_m = sphere_volume(n) * k ** (-n / 2)
        assert abs(rep.rhs - hk_constant(n, gamma) * vol_m * main) <= rep.err_est
        defect = defect_identity("adapted", n, k, gamma=gamma)
        assert defect.verdict == "equality"
        for (_, value), ref in zip(defect.remainders, (r1, r2)):
            assert abs(value - vol_m * ref) <= defect.err_est


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

    @pytest.mark.parametrize("n", [93, 150, 300])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_large_n(self, n, k):
        # f(tau_r)^n overflows from n = 93 at r = 5e-4; both sides are
        # divided by it
        r_values = 0.5 / math.sqrt(k) * np.logspace(-3, 0, 20)
        for row in asymptotic_ratio(n, k, r_values):
            assert abs(row["ratio"] - 1.0) <= 1e-8, row

    @pytest.mark.parametrize("n", [440, 600, 1000])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_panels_refined_at_very_large_n(self, n, k):
        # V (f/f_r)^n narrows like 1/n at tau_r; 18 panels left |ratio - 1|
        # at 2.6e-8 for n = 440 and 1.1e-3 for n = 1000
        r_values = 0.5 / math.sqrt(k) * np.logspace(-3, 0, 20)
        for row in asymptotic_ratio(n, k, r_values):
            assert abs(row["ratio"] - 1.0) <= 1e-8, row
            assert row["abs_err"] <= 1e-8, row


class TestQuadrature:
    def test_monotone_refinement(self, lee):
        # halving the step moves the integral by less than the error
        # estimate, and the rule has already converged at step h
        itg = RadialIntegrator(lee(4, 1.0))
        g = lambda st: st.rho ** 2 * st.dens
        coarse, fine = itg.levels(g)
        val, err = itg.integrate(g)
        assert val == fine
        assert abs(fine - coarse) <= err
        assert abs(fine - coarse) <= 1e-13 * fine

    def test_error_estimates_honest(self):
        # the reported estimate bounds the true defect on a known integral:
        # int rho dV / Vol(M) for the k=1 hemisphere is 1/(n+1), and both
        # levels of the rule are within it
        geom = build_lee(ModelSpace(4, 1.0))
        itg = RadialIntegrator(geom)
        g = lambda st: st.rho ** 2 * st.dens
        val, err = itg.integrate(g)
        assert abs(val - 0.2) <= max(err, 1e-12)
        for level in itg.levels(g):
            assert abs(level - 0.2) <= err


def test_report_serialisation():
    rep = verify_lee(4, 1.0)
    d = rep.to_dict()
    assert set(d) == {"name", "params", "lhs", "rhs", "gap", "remainders",
                      "verdict", "err_est", "k_weight"}
    assert d["verdict"] == "equality"
    assert rep.passing
