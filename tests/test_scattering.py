"""Frobenius branches, interior solver and Q-curvature extraction."""

import math
import random
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from hkcce.model_geometry import ModelSpace
from hkcce.scattering import (FrobeniusBranch, MatchingError, ResonanceError,
                              _connect, frobenius_branch,
                              frobenius_coefficients, lee_potential_exact,
                              solve_case, solve_interior)
from hkcce.special_fn import QCurvParams, sphere_q_value

EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


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
                assert frobenius_branch(p, mu).recursion_residual() <= 1e-13

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
        u0, du0 = prof.evaluate(prof.tau0)
        # u ~ 1 - lam tau^2 / (2(n+1))
        assert u0[0] - 1.0 == pytest.approx(-p.lam * prof.tau0 ** 2 / 10.0, rel=1e-5)
        assert du0[0] / prof.tau0 == pytest.approx(-p.lam / 5.0, rel=1e-5)

    def test_grid_is_increasing(self):
        prof = solve_interior(QCurvParams(4, 0.25, 1.0))
        assert np.all(np.diff(prof.tau) > 0)

    def test_lee_profile_is_scaled_cosh(self):
        m = ModelSpace(5, 2.0)
        vp = lee_potential_exact(m)
        taus = np.linspace(0.01, 12.0, 50)
        u, du = vp.evaluate(taus)
        scale = math.sqrt(2.0)
        assert np.max(np.abs(u / (scale * np.cosh(taus)) - 1.0)) <= 1e-10
        # eigenfunction residual -Lap V + (n+1) V via the closure
        lap = vp.u_dd(taus, u, du) + m.n / np.tanh(taus) * du
        assert np.max(np.abs(-lap + (m.n + 1) * u)) <= 1e-12
        # normalisation r V -> 1
        r = np.asarray(m.r_of_tau(taus))
        assert abs(r[-1] * u[-1] - 1.0) <= 1e-8


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
