"""Model space warp functions, coordinates and exact curvature facts."""

import math
import random

import numpy as np
import pytest

from hkcce.model_geometry import ModelSpace, mean_curvature_exact


class TestEinsteinResiduals:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_residuals_vanish(self, n, k):
        # Einstein residuals of dt^2 + f^2 ghat at 100 random points:
        #   radial     f''/f - 1
        #   spherical  (f f'' + (n-1)(f'^2 - k) - n f^2) / max(1, n f^2)
        # The spherical residual is normalised because its raw form is a
        # difference of O(e^{2t}) quantities.  f and f' are read at
        # tau = t - t0, f'' from the t form.
        m = ModelSpace(n, k)
        rng = random.Random(0)
        for _ in range(100):
            tau = rng.uniform(1e-3, 6.0)
            t = m.t0 + tau
            f, df = float(m.f_tau(tau)), float(m.df_tau(tau))
            d2f = 0.5 * (math.exp(t) - k * math.exp(-t))    # independent of m.f
            assert abs(d2f / f - 1.0) <= 1e-12
            sph = f * d2f + (n - 1) * (df * df - k) - n * f * f
            assert abs(sph) / max(1.0, n * f * f) <= 1e-12

    def test_hyperbolic_space_exact(self):
        m = ModelSpace(4, 1.0)
        # k=1: t0 = 0, f = sinh t
        assert m.t0 == 0.0
        for t in (0.3, 1.0, 2.5):
            assert float(m.f_tau(t - m.t0)) == pytest.approx(math.sinh(t), rel=1e-14)


class TestFrame:
    def test_unit_warp_value(self):
        # the level-set and volume densities are both f^n
        m = ModelSpace(4, 1.0)
        f = float(m.f_tau(1.0))
        assert f == pytest.approx(math.sinh(1.0), rel=1e-13)
        assert f ** m.n == pytest.approx(math.sinh(1.0) ** 4, rel=1e-13)

    def test_center_location_k4(self):
        m = ModelSpace(4, 4.0)
        assert m.t0 == pytest.approx(math.log(2.0))
        # the centre t = t0 is tau = 0
        assert 2.0 / math.sqrt(m.k) == pytest.approx(1.0, rel=1e-14)
        assert float(m.f_tau(0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_normalisation_rf_to_one(self):
        for k in (0.5, 1.0, 4.0):
            m = ModelSpace(5, k)
            tau = 30.0 - m.t0
            r = (2.0 / math.sqrt(k)) * math.exp(-tau)
            assert float(r * m.f_tau(tau)) == pytest.approx(1.0, abs=1e-12)


class TestLeeEigenfunction:
    def test_df_tau_is_scaled_cosh(self):
        # V = f' solves -Lap_+ V + (n+1) V = 0 with r V -> 1
        m = ModelSpace(5, 2.0)
        taus = np.linspace(0.01, 12.0, 50)
        V = m.df_tau(taus)
        assert np.max(np.abs(V / (math.sqrt(2.0) * np.cosh(taus)) - 1.0)) <= 1e-10
        # V' = f and V'' = f' (f''' = f'), each from its own closed form
        lap = m.df_tau(taus) + m.n / np.tanh(taus) * m.f_tau(taus)
        assert np.max(np.abs(-lap + (m.n + 1) * V) / V) <= 1e-12
        r = (2.0 / math.sqrt(m.k)) * np.exp(-taus)
        assert abs(r[-1] * V[-1] - 1.0) <= 1e-8


class TestMeanCurvature:
    def test_reference_value(self):
        assert mean_curvature_exact(ModelSpace(4, 1.0), 0.1) == pytest.approx(
            4.0200501, abs=1e-7)

    def test_expansion_agreement(self):
        # paper-order expansion n + J r^2 + |A|^2 r^4/2 with J=2, |A|^2=1
        m = ModelSpace(4, 1.0)
        r = 0.1
        expansion = 4 + 2 * r ** 2 + 0.5 * r ** 4
        assert abs(mean_curvature_exact(m, r) - expansion) <= 3e-7

    def test_limit_at_center_of_expansion(self):
        m = ModelSpace(7, 2.0)
        assert mean_curvature_exact(m, 1e-8) == pytest.approx(7.0, abs=1e-12)

    def test_list_of_radii(self):
        # a list gives the values of the same radii as an array, bit for bit
        m = ModelSpace(4, 1.0)
        radii = [0.1, 0.3, 1.7]
        got = mean_curvature_exact(m, radii)
        assert got.tolist() == mean_curvature_exact(m, np.array(radii)).tolist()
        assert got.tolist() == [float(mean_curvature_exact(m, r)) for r in radii]

    def test_domain(self):
        m = ModelSpace(4, 1.0)
        with pytest.raises(ValueError):
            mean_curvature_exact(m, 0.0)
        with pytest.raises(ValueError):
            mean_curvature_exact(m, m.r_center)

    @pytest.mark.parametrize("n,k", [(4, 1.0), (5, 2.0), (6, 0.5)])
    def test_taylor_remainder_bound(self, n, k):
        m = ModelSpace(n, k)
        bound_coef = 10.0 * (n * k ** 3 / 16.0)
        eps_floor = 1e-13 * n  # roundoff of values ~n dominates below r ~ 1e-2
        for r in np.linspace(1e-3, 0.2 / math.sqrt(k), 37):
            r = float(r)
            model = n + (n * k / 2) * r ** 2 + (n * k ** 2 / 8) * r ** 4
            diff = abs(mean_curvature_exact(m, r) - model)
            assert diff <= bound_coef * r ** 6 + eps_floor


def test_coth_invariance_across_k():
    """f'/f in the centred coordinate is coth(tau), independently of k."""
    rng = random.Random(3)
    for k in (0.5, 1.0, 2.0, 4.0):
        m = ModelSpace(5, k)
        for _ in range(25):
            tau = rng.uniform(0.05, 5.0)
            t = m.t0 + tau
            target = 1.0 / math.tanh(tau)
            assert float(m.df_tau(t - m.t0) / m.f_tau(t - m.t0)) == pytest.approx(
                target, rel=1e-14)


def test_constructor_guards():
    with pytest.raises(ValueError):
        ModelSpace(2, 1.0)
    with pytest.raises(ValueError):
        ModelSpace(4, 0.0)
    with pytest.raises(ValueError):
        ModelSpace(4, -2.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ModelSpace(4, bad)
