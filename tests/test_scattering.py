"""Frobenius branches, interior solver and Q-curvature extraction."""

import dataclasses
import math
import random
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from hkcce import cli, scattering
from hkcce.compactification import build_adapted
from hkcce.hk_verifier import RadialIntegrator
from hkcce.model_geometry import ModelSpace
from hkcce.scattering import (TAU_CHECK, TAU_MATCH, CentreSeries,
                              FrobeniusBranch, MatchingError, ResonanceError,
                              _connect, _s_ext, frobenius_branch,
                              frobenius_coefficients, solve_case,
                              solve_interior)
from hkcce.special_fn import QCurvParams, sphere_q_value

EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def recursion_residual(b: FrobeniusBranch) -> float:
    """Max re-substitution defect of a branch's coefficients, relative."""
    worst = 0.0
    cs = b.coeffs
    for M in range(1, len(cs)):
        x = b.mu + 2 * M
        P = (x - b.s) * (x - (b.n - b.s))
        acc = cs[0] * b.mu
        for m in range(1, M):
            acc = acc * (b.k / 4)
            acc += cs[m] * (b.mu + 2 * m)
        lhs = float(P * cs[M])
        rhs = float(b.n * b.k / 2 * acc)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


class TestFrobeniusCoefficients:
    def test_a2_reference_case(self):
        # u2 = (n-2g)/(8(1-g)) * J with J = nk/2: for n=4, g=1/2, k=1 -> 3/2
        p = QCurvParams(4, 0.5, 1.0)
        b = frobenius_branch(p, p.n - p.s)
        assert b.coeffs[1] == pytest.approx(1.5, rel=1e-14)

    def test_formal_k_zero(self):
        a = frobenius_coefficients(4, 2.75, 0.0, 1.25, 6)
        assert a[0] == 1.0
        assert all(c == 0.0 for c in a[1:])

    def test_lee_branch_terminates(self):
        # s = n+1, mu = -1: r V = 1 + (k/4) r^2 exactly, all higher terms zero
        a = frobenius_coefficients(5, Fr(6), Fr(1), Fr(-1), 4)
        assert a == [Fr(1), Fr(1, 4), Fr(0), Fr(0), Fr(0)]

    def test_lee_resonance_even_n(self):
        with pytest.raises(ResonanceError):
            frobenius_coefficients(4, 5.0, 1.0, -1.0, 4)
        # below the resonant step it is fine
        frobenius_coefficients(4, 5.0, 1.0, -1.0, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_u2_exact_rational(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        gamma = Fr(rng.randint(1, 18), 20)
        k = Fr(rng.randint(1, 9), rng.randint(1, 9))
        s = Fr(n, 2) + gamma
        a = frobenius_coefficients(n, s, k, n - s, 2)
        assert a[1] == n * k * (n - 2 * gamma) / (16 * (1 - gamma))

    def test_recursion_residual(self):
        for gamma in (0.25, 0.6, 0.95):
            p = QCurvParams(5, gamma, 2.0)
            for mu in (p.s, p.n - p.s):
                assert recursion_residual(frobenius_branch(p, mu)) <= 1e-13

    def test_mu_must_be_indicial(self):
        p = QCurvParams(4, 0.5, 1.0)
        with pytest.raises(ValueError):
            frobenius_branch(p, 1.0)

    def test_branch_evaluation_against_closed_form(self):
        # gamma = 1/2, n = 4, k = 1: u = r^{3/2} (1 + r/2)^{-3}, so the
        # mu = n-s branch series is the even part of (1+r/2)^{-3}
        p = QCurvParams(4, 0.5, 1.0)
        mu = p.n - p.s
        b = FrobeniusBranch(n=p.n, s=p.s, k=p.k, mu=mu,
                            coeffs=frobenius_coefficients(p.n, p.s, p.k, mu, 14))
        for r in (0.05, 0.2, 0.4):
            even_part = 0.5 * ((1 + r / 2) ** -3 + (1 - r / 2) ** -3)
            assert float(b.series(r)) == pytest.approx(even_part, rel=1e-13)


class TestInteriorSolve:
    def test_taylor_start_values(self):
        p = QCurvParams(4, 0.5, 1.0)
        prof = solve_interior(p)
        tau0 = 1e-3
        u0, du0 = prof.evaluate(tau0)
        # u ~ 1 - lam tau^2 / (2(n+1))
        assert u0[0] - 1.0 == pytest.approx(-p.lam * tau0 ** 2 / 10.0, rel=1e-5)
        assert du0[0] / tau0 == pytest.approx(-p.lam / 5.0, rel=1e-5)

    def test_grid_is_increasing(self):
        prof = solve_interior(QCurvParams(4, 0.25, 1.0))
        assert np.all(np.diff(prof.tau) > 0)


def per_eps_terms(ratio: np.ndarray, x: float, eps: float):
    """The centre series' term count at x for one eps, searched on its own:
    the rule `CentreSeries` applies to both precisions in one pass."""
    for part in (ratio[:scattering._terms_estimate(eps, x)], ratio):
        T = np.concatenate(([1.0], np.cumprod(part[:-1] * x)))
        rho = np.maximum(part, 1.0) * x
        ok = (rho < 1.0) & (T * rho <= eps * np.cumsum(T) * (1.0 - rho))
        hits = np.flatnonzero(ok)
        if hits.size:
            return int(hits[0]) + 1
    return None


class TestCentreSeries:
    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is plain double here")
    def test_term_counts_match_the_per_eps_rule(self):
        eps_ext = float(np.finfo(np.longdouble).eps)
        eps = float(np.finfo(float).eps)
        bounds = scattering._X_GROUPS + (float(np.tanh(np.longdouble(TAU_MATCH)) ** 2),)
        cases = [(n, g) for n in [*range(3, 21), 60] for g in (0.05, 0.5, 0.95)]
        for n, gamma in cases:
            s = _s_ext(n, gamma)
            series = CentreSeries(n, s, TAU_MATCH)
            terms_ext = series._series[np.dtype(np.longdouble)][2]
            terms = series._series[np.dtype(float)][2]
            j = np.arange(2 * terms_ext[-1], dtype=np.longdouble)
            ratio = ((s / 2 + j) * ((s + 1) / 2 + j)
                     / ((np.longdouble(n + 1) / 2 + j) * (1 + j))).astype(float)
            assert terms_ext == [per_eps_terms(ratio, x, eps_ext) for x in bounds], (n, gamma)
            assert terms == [per_eps_terms(ratio, x, eps) for x in bounds], (n, gamma)
            # the double coefficients stop at the double term count
            assert len(series._series[np.dtype(float)][0]) == max(terms) < terms_ext[-1]


class TestProfileTable:
    """The profile's table is the centre series at the quadrature's interior nodes."""

    @pytest.mark.parametrize("gamma", (0.05, 0.5, 0.95))
    def test_table_is_the_integrators_interior_nodes(self, solved, gamma):
        profile, sr = solved(6, gamma, 1.0)
        tau = RadialIntegrator(build_adapted(ModelSpace(6, 1.0), sr, profile)).state.tau
        inner = tau[tau <= profile.tau_max]
        assert len(profile.tau) == len(inner) == 155
        assert np.array_equal(profile.tau, inner[::-1])

    def test_evaluate_at_the_nodes_returns_the_table(self, solved):
        profile, _ = solved(6, 0.3, 1.0)
        nodes = profile.tau[::-1].copy()
        u, du = profile.evaluate(nodes)
        assert np.shares_memory(u, profile.u) and np.shares_memory(du, profile.du)
        assert np.array_equal(u[::-1], profile.u) and np.array_equal(du[::-1], profile.du)
        # the table is what summing the series at the nodes gives, bit for bit
        u_direct, du_direct = CentreSeries(6, _s_ext(6, 0.3), TAU_MATCH)(nodes)
        assert np.array_equal(u, u_direct) and np.array_equal(du, du_direct)

    def test_evaluate_elsewhere_sums_the_series(self, solved):
        profile, _ = solved(6, 0.3, 1.0)
        series = CentreSeries(6, _s_ext(6, 0.3), TAU_MATCH)
        nodes = profile.tau[::-1]
        for tau in (np.linspace(0.01, TAU_MATCH, 40), nodes[1:], profile.tau,
                    np.append(nodes, 1.0)):
            u, du = profile.evaluate(tau)
            assert not np.shares_memory(u, profile.u)
            u_direct, du_direct = series(tau)
            assert np.array_equal(u, u_direct) and np.array_equal(du, du_direct)


class TestMatching:
    def test_unit_sphere_q(self, solved):
        _, sr = solved(4, 0.5, 1.0)
        assert sr.q_value == pytest.approx(1.0, abs=1e-6)
        assert sr.c1 != 0.0
        assert sr.scattering_value == pytest.approx(sr.c2 / sr.c1, rel=1e-15)

    def test_quarter_q(self, solved):
        _, sr = solved(4, 0.25, 1.0)
        assert sr.q_value == pytest.approx(0.704446, abs=1e-5)

    def test_k2_scaling(self, solved):
        _, sr = solved(4, 0.5, 2.0)
        assert sr.q_value == pytest.approx(math.sqrt(2.0), abs=1e-5)

    def test_q_normalisation_invariant(self, solved):
        for case in ((4, 0.5, 1.0), (5, 0.6, 2.0)):
            p = QCurvParams(*case)
            _, sr = solved(*case)
            from hkcce.special_fn import d_gamma
            expected = (2.0 / (p.n - 2 * p.gamma)) * d_gamma(p.gamma) * sr.c2 / sr.c1
            assert sr.q_value == pytest.approx(expected, rel=1e-15)

    def test_oracle_grid_subset(self, solved):
        for n in (4, 6):
            for gamma in (0.25, 0.5, 0.75):
                for k in (0.5, 2.0):
                    _, sr = solved(n, gamma, k)
                    oracle = sphere_q_value(n, gamma, k)
                    assert abs(sr.q_value - oracle) <= 1e-6 * max(1.0, abs(oracle))
                    assert sr.q_value > 0.0

    def test_condition_estimate_reported(self, solved):
        _, sr = solved(4, 0.5, 1.0)
        assert 1.0 < sr.condition_estimate < 1e12

    def test_truncation_guard(self):
        # connecting very close to the centre: r(0.3) lies far outside the
        # radius r(ln 8) the branch series were summed for
        p = QCurvParams(4, 0.5, 4.0)
        prof = solve_interior(p)
        b1, b2 = frobenius_branch(p, p.n - p.s), frobenius_branch(p, p.s)
        with pytest.raises(MatchingError):
            _connect(prof, p, b1, b2, 0.3)

    def test_singular_system_is_a_matching_error(self):
        p = QCurvParams(4, 0.5, 1.0)
        prof = solve_interior(p)
        b1 = frobenius_branch(p, p.n - p.s)
        with pytest.raises(MatchingError):
            _connect(prof, p, b1, b1, 3.0)

    def test_consistency_gap(self, solved):
        for case in ((4, 0.05, 1.0), (6, 0.5, 2.0), (20, 0.95, 0.5)):
            _, sr = solved(*case)
            assert sr.consistency_gap <= 1e-12

    def test_failed_check_connection_keeps_the_result(self):
        # at n = 150 the tau = 2.5 system (condition ~1e14) fails its guard,
        # while the tau = 3 connection (~1e10) still gives Q
        p = QCurvParams(150, 0.5, 1.0)
        _, sr = solve_case(p)
        assert math.isnan(sr.consistency_gap)
        assert sr.q_value == pytest.approx(sphere_q_value(150, 0.5, 1.0), rel=1e-12)

    def test_underflow_is_a_matching_error(self):
        # r^{n-s} is subnormal at tau = 3 for n = 560, k = 2: the system is
        # well conditioned but its entries keep only a few digits
        with pytest.raises(MatchingError, match="underflow"):
            solve_case(QCurvParams(560, 0.5, 2.0))


class TestMpmathReference:
    """The series pipeline against 30-digit references.

    u = 2F1(s/2, (n-s)/2; (n+1)/2; -sinh^2 tau) (DLMF 15.2.1),
    c1 = Gamma((n+1)/2) Gamma(gamma) / (Gamma(s/2) Gamma((s+1)/2)) k^{(n-s)/2},
    the tau -> infinity limit of r^{s-n} u (DLMF 15.8.2).
    """

    NS = (3, 4, 20, 40, 60)
    GAMMAS = (0.05, 0.5, 0.95)
    KS = (0.5, 2.0)

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mpmath.workdps(30):
            yield

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_profile(self, n, gamma):
        p = QCurvParams(n, gamma, 1.0)
        prof = solve_interior(p)
        taus = np.concatenate([[1e-3, 1e-2], np.linspace(0.1, math.log(8.0), 10)])
        u, du = prof.evaluate(taus)
        a, b, c = mpmath.mpf(p.s) / 2, mpmath.mpf(n - p.s) / 2, mpmath.mpf(n + 1) / 2
        for tau, u_num, du_num in zip(taus, u, du):
            sh, ch = mpmath.sinh(tau), mpmath.cosh(tau)
            u_ref = mpmath.hyp2f1(a, b, c, -sh * sh)
            du_ref = -2 * sh * ch * a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, -sh * sh)
            assert abs(u_num / u_ref - 1) <= 1e-11, (tau, u_num, u_ref)
            assert abs(du_num / du_ref - 1) <= 1e-11, (tau, du_num, du_ref)

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_c1_and_q(self, n, gamma):
        for k in self.KS:
            p = QCurvParams(n, gamma, k)
            _, sr = solve_case(p)
            s = mpmath.mpf(p.s)
            c1_ref = (mpmath.gamma(mpmath.mpf(n + 1) / 2) * mpmath.gamma(gamma)
                      / (mpmath.gamma(s / 2) * mpmath.gamma((s + 1) / 2))
                      * mpmath.mpf(k) ** ((n - s) / 2))
            assert abs(sr.c1 / c1_ref - 1) <= 1e-10, (k, sr.c1, c1_ref)
            oracle = sphere_q_value(n, gamma, k)
            assert abs(sr.q_value / oracle - 1) <= 1e-10, (k, sr.q_value, oracle)
            if EXTENDED:
                # connection and d_gamma in extended precision: Q is rounded once
                g = mpmath.mpf(gamma)
                q_ref = (mpmath.mpf(k) ** g * 2 / (n - 2 * g) * mpmath.gamma(mpmath.mpf(n) / 2 + g)
                         / mpmath.gamma(mpmath.mpf(n) / 2 - g))
                assert abs(sr.q_value - q_ref) <= math.ulp(float(q_ref)), (k, sr.q_value, q_ref)


def _result_numbers(sr):
    return (sr.q_value, sr.c1, sr.c2, sr.scattering_value, sr.condition_estimate,
            sr.consistency_gap)


class TestMemo:
    """solve_case keeps the last case and solve_interior the last (n, gamma)."""

    KS = (0.5, 1.0, 2.0)

    @pytest.fixture(autouse=True)
    def _cold(self):
        solve_case.cache_clear()
        scattering._interior.cache_clear()
        yield
        solve_case.cache_clear()
        scattering._interior.cache_clear()

    def test_hits_equal_cold_runs(self):
        cold = {}
        for k in self.KS:
            solve_case.cache_clear()
            scattering._interior.cache_clear()
            cold[k] = _result_numbers(solve_case(QCurvParams(5, 0.3, k))[1])
        solve_case.cache_clear()
        scattering._interior.cache_clear()
        for k in self.KS:
            profile, sr = solve_case(QCurvParams(5, 0.3, k))   # interior hit from k = 1
            assert _result_numbers(sr) == cold[k]
            again = solve_case(QCurvParams(5, 0.3, k))                   # case hit
            assert again[0] is profile and again[1] is sr
        assert scattering._interior.cache_info().misses == 1
        assert solve_case.cache_info().hits == len(self.KS)

    def test_three_k_sweep_builds_one_series(self, tmp_path, monkeypatch):
        built = []

        class Counting(scattering.CentreSeries):
            def __init__(self, n, s, tau_max):
                built.append((n, s))
                super().__init__(n, s, tau_max)

        monkeypatch.setattr(scattering, "CentreSeries", Counting)
        rc = cli.main(["sweep", "--n", "5", "--gamma", "0.3", "--k", "0.5,1,2",
                       "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert len(built) == 1

    def test_three_k_sweep_sums_the_series_once(self, tmp_path, monkeypatch):
        calls = []
        call = scattering.CentreSeries.__call__

        def counting(series, tau):
            calls.append(np.array(tau))
            return call(series, tau)

        monkeypatch.setattr(scattering.CentreSeries, "__call__", counting)
        rc = cli.main(["sweep", "--n", "5", "--gamma", "0.3", "--k", "0.5,1,2",
                       "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        doubles = [tau for tau in calls if tau.dtype == np.float64]
        extended = [tau for tau in calls if tau.dtype == np.longdouble]
        assert len(doubles) == 1 and len(extended) == 1
        assert np.array_equal(doubles[0], solve_interior(QCurvParams(5, 0.3, 1.0)).tau[::-1])
        assert list(extended[0]) == [TAU_MATCH, TAU_CHECK]

    def test_results_are_frozen(self):
        profile, sr = solve_case(QCurvParams(4, 0.25, 1.0))
        for obj, name in ((profile, "tau_max"), (sr, "q_value"), (sr.branch_low, "mu")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 0.0)
        with pytest.raises(ValueError, match="read-only"):
            profile.u[0] = 0.0
        assert isinstance(sr.branch_high.coeffs, tuple)
        # profiles hold arrays, so they compare by identity rather than raise
        assert profile == profile != solve_interior(QCurvParams(5, 0.25, 1.0))
