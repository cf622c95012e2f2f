"""Inequality verdicts, defect identities and the asymptotic ratio."""

import math
import tracemalloc

import numpy as np
import pytest

from hkcce import cli, hk_verifier, scattering
from hkcce.compactification import build_lee
from hkcce.hk_verifier import (RadialIntegrator, _identity, asymptotic_ratio,
                               defect_identity, verify_adapted, verify_cla,
                               verify_lee)
from hkcce.model_geometry import ModelSpace
from hkcce.special_fn import hk_constant, sphere_q_value, sphere_volume

import reference

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
        with pytest.raises(ValueError, match="needs gamma"):
            defect_identity("adapted", 4, 1.0)
        with pytest.raises(ValueError, match="takes no gamma"):
            defect_identity("lee", 4, 1.0, gamma=0.3)
        with pytest.raises(ValueError):
            defect_identity("bogus", 4, 1.0)


# the five reports of one case, as functions of the verdict tolerance
REPORTS = {
    "hk-adapted": lambda tol: verify_adapted(4, 0.25, 1.0, tol),
    "hk-cla": lambda tol: verify_cla(4, 1.0, tol),
    "hk-lee": lambda tol: verify_lee(4, 1.0, tol),
    "defect-adapted": lambda tol: defect_identity("adapted", 4, 1.0, tol, gamma=0.25),
    "defect-lee": lambda tol: defect_identity("lee", 4, 1.0, tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("kind", REPORTS)
def test_tol_that_is_not_finite_and_positive_refused(monkeypatch, kind, tol):
    # at tol = nan no comparison of the verdict ladder holds, so an identity
    # read `fail` and an inequality `strict`; the tol is refused before any solve
    def no_solve(*args):
        raise AssertionError("the case was solved before tol was checked")

    monkeypatch.setattr(hk_verifier, "_identity", no_solve)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        REPORTS[kind](tol)


def _clear_memos():
    scattering.solve_case.cache_clear()
    scattering._interior.cache_clear()
    _identity.cache_clear()


class TestMemo:
    """_identity keeps the last case; a hit equals a cold run."""

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
        info = _identity.cache_info()
        assert (info.hits, info.misses) == (len(cases), len(cases))

    def test_lee_reports_after_hit_equal_cold_runs(self):
        # defect-lee right after hk-lee of the same case reuses its
        # geometry, lattice state and main integral
        cases = [(5, 2.0), (4, 1.0), (10, 0.5)]
        cold = {}
        for n, k in cases:
            _clear_memos()
            cold[n, "hk"] = verify_lee(n, k).to_dict()
            _clear_memos()
            cold[n, "defect"] = defect_identity("lee", n, k).to_dict()
        _clear_memos()
        for n, k in cases:
            assert verify_lee(n, k).to_dict() == cold[n, "hk"]
            assert defect_identity("lee", n, k).to_dict() == cold[n, "defect"]
            assert _identity.cache_info().currsize <= 1
        info = _identity.cache_info()
        assert (info.hits, info.misses, info.currsize) == (len(cases), len(cases), 1)

    @staticmethod
    def _summed(monkeypatch):
        """The integrands summed from now on, in order."""
        summed = []
        real = RadialIntegrator.integrate

        def counting(itg, g_fn):
            summed.append(g_fn)
            return real(itg, g_fn)

        monkeypatch.setattr(RadialIntegrator, "integrate", counting)
        return summed

    def test_cold_cla_sums_main_only(self, monkeypatch):
        summed = self._summed(monkeypatch)
        assert verify_cla(5, 1.0).verdict == "equality"
        integrals = _identity(5, 0.5, 1.0)[2]
        assert summed == [integrals._integrands["main"]]
        assert list(integrals) == ["main"]

    @pytest.mark.parametrize("gamma, reports", [
        (0.3, (lambda: verify_adapted(5, 0.3, 2.0),
               lambda: defect_identity("adapted", 5, 2.0, gamma=0.3))),
        (None, (lambda: verify_lee(5, 2.0), lambda: defect_identity("lee", 5, 2.0))),
    ], ids=["adapted", "lee"])
    def test_inequality_then_defect_sums_each_integral_once(self, monkeypatch, gamma,
                                                            reports):
        cold = []
        for report in reports:
            _clear_memos()
            cold.append(report().to_dict())
        _clear_memos()
        summed = self._summed(monkeypatch)
        assert [report().to_dict() for report in reports] == cold
        names = {fn: name for name, fn in _identity(5, gamma, 2.0)[2]._integrands.items()}
        assert sorted(names[fn] for fn in summed) == ["main", "r1", "r2"]

    def test_sweep_keeps_one_entry_per_memo(self, tmp_path):
        rc = cli.main(["sweep", "--n", "4,5,6", "--gamma", "0.25,0.4,0.5,0.6,0.75",
                       "--k", "0.5,1,2", "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        memos = (scattering.solve_case, scattering._interior, _identity)
        assert all(m.cache_info().currsize <= 1 for m in memos)
        # 15 interiors; each case solved for its Q row, then read back by hk-adapted
        assert scattering._interior.cache_info().misses == 15
        assert scattering.solve_case.cache_info()[:2] == (45, 45)


class TestMpmathBoundaryLayer:
    """main, R1 and R2 against `reference.adapted_integrals`, mp.quad over a
    2F1 profile at 30 digits (and more at each node, where 1 - w^2 and T'
    cancel), n = 4, k = 1."""

    DPS = 30

    @pytest.mark.parametrize("gamma", [0.05, 0.15, 0.95])
    def test_integrals_within_err_est(self, gamma):
        n, k = 4, 1.0
        main, r1, r2 = reference.adapted_integrals(n, gamma, k, self.DPS)
        integrals = _identity(n, gamma, k)[2]
        for name, ref in zip(("main", "r1", "r2"), (main, r1, r2)):
            value, err = integrals[name]
            assert abs(value - ref) <= err, (name, value, ref, err)
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
        # V (f/f_r)^n narrows like 1/n at tau_r, which 18 fixed
        # Gauss-Legendre panels once missed (|ratio - 1| at 2.6e-8 for
        # n = 440 and 1.1e-3 for n = 1000); tau = tau_r e^{-s/(n+1)} gives
        # it O(1) width, so the one lattice serves every n
        r_values = 0.5 / math.sqrt(k) * np.logspace(-3, 0, 20)
        for row in asymptotic_ratio(n, k, r_values):
            assert abs(row["ratio"] - 1.0) <= 1e-8, row
            assert row["abs_err"] <= 1e-8, row


class TestIdentityAudit:
    """|gap| <= err_est wherever the identity or the equality holds exactly.

    A cheap audit of err_est that needs no high-precision reference: an
    identity that does not balance within its own error estimate has an
    estimate that is not an upper bound.
    """

    KS = (0.5, 1.0, 2.0)
    GAMMAS = [round(0.05 * i, 2) for i in range(1, 20)]

    @staticmethod
    def assert_within_err_est(reports):
        over = [(r.name, r.params.get("gamma"), r.params["k"], r.gap, r.err_est)
                for r in reports if not abs(r.gap) <= r.err_est]
        assert not over

    @pytest.mark.parametrize("n", [3, 4, 6, 10, 20, 60])
    def test_defect_adapted(self, n):
        self.assert_within_err_est([defect_identity("adapted", n, k, gamma=g)
                                    for g in self.GAMMAS for k in self.KS])

    @pytest.mark.parametrize("n", [*range(3, 21), 60, 100, 284])
    def test_lee_forms(self, n):
        self.assert_within_err_est([r for k in self.KS
                                    for r in (defect_identity("lee", n, k), verify_lee(n, k))])

    @pytest.mark.parametrize("n", [*range(3, 21), 60, 100])
    def test_forms_at_half(self, n):
        self.assert_within_err_est([r for k in self.KS
                                    for r in (verify_cla(n, k), verify_adapted(n, 0.5, k))])


class TestBatchedAsymptoticRatio:
    """All radii in one call, each row its own sum on the one lattice."""

    KS = (0.5, 1.0, 2.0)

    @pytest.mark.parametrize("n", [*range(3, 21), 93, 440, 1000])
    def test_rows_equal_the_per_radius_sums(self, n):
        # a row does not depend on which radii share the call: each equals
        # the call for its radius alone
        for k in self.KS:
            r_values = 0.5 / math.sqrt(k) * np.logspace(-3, 0, 20)
            alone = [row for r in r_values for row in asymptotic_ratio(n, k, [r])]
            assert asymptotic_ratio(n, k, r_values) == alone, (n, k)
            mixed = r_values[[19, 0, 7, 3]]
            assert asymptotic_ratio(n, k, mixed) == [alone[i] for i in (19, 0, 7, 3)]

    def test_memory_does_not_grow_with_n(self):
        # the substituted integrand has O(1) width for every n, so one
        # lattice serves all n: the peak of a 20-radius call is the same at
        # n = 20000 as at n = 20
        r_values = 0.5 * np.logspace(-3, 0, 20)

        def peak(n):
            tracemalloc.start()
            try:
                asymptotic_ratio(n, 1.0, r_values)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)        # the first call makes one-off allocations
        assert peak(20000) <= 1.5 * peak(20)

    @pytest.mark.parametrize("n", [*range(3, 21), 93, 440, 1000])
    def test_abs_err_bounds_the_error(self, n):
        # the ratio is exactly 1, so |ratio - 1| is the true error; from
        # n ~ 20000 the rounding of (f/f_r)^n exceeds the estimate
        for k in self.KS:
            r_values = 0.5 / math.sqrt(k) * np.logspace(-3, 0, 20)
            for row in asymptotic_ratio(n, k, r_values):
                assert abs(row["ratio"] - 1.0) <= row["abs_err"], row

    def test_grid_within_1e_14(self):
        # the CLI's 20 radii over n 3..20 and k 0.5, 1, 2
        worst = max(abs(row["ratio"] - 1.0) for n in range(3, 21) for k in self.KS
                    for row in asymptotic_ratio(n, k, 0.5 / math.sqrt(k)
                                                * np.logspace(-3, 0, 20)))
        assert worst <= 1e-14

    def test_no_radii_no_rows(self):
        assert asymptotic_ratio(5, 1.0, []) == []

    @pytest.mark.parametrize("bad", [2.5, 2.0, 0.0, -0.1])
    def test_radius_outside_refused_before_any_quadrature(self, monkeypatch, bad):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the radii were checked")

        monkeypatch.setattr(hk_verifier, "de_lattice", no_quadrature)
        with pytest.raises(ValueError, match=rf"^r={bad} outside \(0, 2\.0\)$"):
            asymptotic_ratio(5, 1.0, [0.1, 0.3, bad, 1.0])


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
