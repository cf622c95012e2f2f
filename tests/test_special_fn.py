"""Gamma utilities and closed-form constants against stdlib oracles."""

import math

import mpmath
import numpy as np
import pytest

from hkcce.special_fn import (GAMMA_MAX, GAMMA_MIN, QCurvParams, d_gamma,
                              d_gamma_ext, hk_constant, sphere_q_value,
                              sphere_volume)


def _d_gamma_oracle(g):
    # independent route through math.gamma
    return 2.0 ** (2 * g) * math.gamma(g) / math.gamma(-g)


class TestDGamma:
    def test_half_is_minus_one(self):
        assert d_gamma(0.5) == pytest.approx(-1.0, abs=1e-12)

    def test_quarter(self):
        # 2^{1/2} Gamma(1/4)/Gamma(-1/4)
        assert d_gamma(0.25) == pytest.approx(-1.046041, abs=1e-5)
        assert d_gamma(0.25) == pytest.approx(_d_gamma_oracle(0.25), rel=1e-12)

    def test_small_gamma_sign(self):
        # sign check only: Gamma(g) ~ 1/g and Gamma(-g) ~ -1/g both blow up,
        # so d_gamma stays negative (the ratio tends to -1) as g -> 0+
        assert d_gamma(0.003) < 0.0
        assert d_gamma(1e-6) < 0.0

    def test_negative_on_admissible_range(self):
        for g in np.arange(GAMMA_MIN, GAMMA_MAX + 1e-9, 0.01):
            assert d_gamma(float(g)) < 0.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            d_gamma(bad)

    def test_last_gamma_is_kept(self):
        # an adapted case asks for d_gamma six times with the same gamma
        d_gamma_ext.cache_clear()
        values = {d_gamma(0.3) for _ in range(6)}
        info = d_gamma_ext.cache_info()
        assert len(values) == 1
        assert (info.maxsize, info.misses, info.hits) == (1, 1, 5)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is plain double here")
    def test_correctly_rounded(self):
        # near g = 1 a reflection through sin(pi g) would lose digits
        with mpmath.workdps(30):
            for g in [1e-6, 0.003, 0.05, 0.25, 0.5, 0.8072, 0.93, 0.9348, 0.95, 0.999]:
                ref = 4 ** mpmath.mpf(g) * mpmath.gamma(g) / mpmath.gamma(-mpmath.mpf(g))
                assert abs(d_gamma(g) - ref) <= 0.51 * math.ulp(float(ref)), g


class TestHkConstant:
    def test_n4_half(self):
        assert hk_constant(4, 0.5) == pytest.approx(5.0, rel=1e-12)

    def test_n4_quarter(self):
        assert hk_constant(4, 0.25) == pytest.approx(3.5384, abs=1e-3)
        oracle = (4.5 ** 2 / 5.0) * (-1.0 / _d_gamma_oracle(0.25)) ** 3.0
        assert hk_constant(4, 0.25) == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_half_equals_n_plus_one(self, n):
        assert hk_constant(n, 0.5) == pytest.approx(n + 1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            hk_constant(2, 0.5)
        with pytest.raises(ValueError):
            hk_constant(4, 1.2)


class TestSphereOracle:
    def test_unit_case(self):
        assert sphere_q_value(4, 0.5, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_quarter_case(self):
        assert sphere_q_value(4, 0.25, 1.0) == pytest.approx(0.704446, abs=1e-5)
        oracle = (2 / 3.5) * math.gamma(2.25) / math.gamma(1.75)
        assert sphere_q_value(4, 0.25, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_k_scaling_exact(self):
        for n in (3, 4, 7):
            for g in (0.1, 0.5, 0.9):
                for k in (0.25, 2.0, 9.0):
                    assert sphere_q_value(n, g, k) == pytest.approx(
                        k ** g * sphere_q_value(n, g, 1.0), rel=1e-12)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_half_is_one(self, n):
        assert sphere_q_value(n, 0.5, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_to_one_limit(self):
        # approaches the Schouten trace of the unit round sphere, n k/2
        assert sphere_q_value(4, 1.0 - 1e-9, 1.0) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("n", [284, 400, 1000])
    def test_large_n_stays_finite(self, n):
        # Gamma(n/2 + g) alone overflows a double from n = 284
        import mpmath
        for g in (0.25, 0.5):
            ref = 2 / (n - 2 * mpmath.mpf(g)) * mpmath.gamma(mpmath.mpf(n) / 2 + g) \
                / mpmath.gamma(mpmath.mpf(n) / 2 - g)
            assert sphere_q_value(n, g, 1.0) == pytest.approx(float(ref), rel=1e-12)


class TestParams:
    def test_derived_fields(self):
        p = QCurvParams(4, 0.5, 1.0)
        assert p.s == 2.5
        assert p.lam == pytest.approx(3.75)

    @pytest.mark.parametrize("kwargs", [
        dict(n=2, gamma=0.5, k=1.0),
        dict(n=4, gamma=0.99, k=1.0),
        dict(n=4, gamma=0.01, k=1.0),
        dict(n=4, gamma=0.5, k=0.0),
        dict(n=4, gamma=0.5, k=-1.0),
        dict(n=4, gamma=0.5, k=float("inf")),
        dict(n=4, gamma=0.5, k=float("nan")),
        dict(n=4, gamma=0.5, k=1e20),
        dict(n=4, gamma=0.5, k=1e-300),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            QCurvParams(**kwargs)


    def test_k_range_narrows_with_n(self):
        # accepted while |log10 k| (n/2 + 10) <= 200: 1e10 at n = 20, not at n = 60
        for k in (1e10, 1e-10):
            assert QCurvParams(20, 0.5, k).k == k
            with pytest.raises(ValueError, match="out of range at n=60"):
                QCurvParams(60, 0.5, k)


def test_sphere_volume():
    assert sphere_volume(4) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-13)
    assert sphere_volume(5) == pytest.approx(math.pi ** 3, rel=1e-13)
    assert sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-13)
