"""Exact-rational jet algebra and the order-r^4 certificate."""

import json
from fractions import Fraction as Fr

import pytest

from hkcce.jet_algebra import (IntegralClass, Jet, Poly, UnsupportedIntegralError,
                               boundary_integral, det_via_trace_log,
                               expand_normal_form,
                               mean_curvature_via_trace, verify_prop21)

N = 6  # default ring dimension for the structural tests


def sym(name, power=1, n=N):
    return Poly.symbol(n, name, power)


class TestJetArithmetic:
    def test_difference_of_squares(self):
        a = Jet(N, [1, sym("J").scale(Fr(-1, 2)), 0])
        b = Jet(N, [1, sym("J").scale(Fr(1, 2)), 0])
        prod = a * b
        assert prod.coefficient(0) == Poly.constant(N, 1)
        assert prod.coefficient(2).is_zero()
        assert prod.coefficient(4) == sym("J", 2).scale(Fr(-1, 4))

    def test_geometric_series_inverse(self):
        a = Jet(N, [1, sym("J").scale(Fr(1, N)), 0])
        inv = a.invert()
        assert inv.coefficient(2) == sym("J").scale(Fr(-1, N))
        assert inv.coefficient(4) == sym("J", 2).scale(Fr(1, N * N))
        # round trip
        assert (a * inv) == Jet.one(N)

    def test_invert_requires_unit_leading(self):
        with pytest.raises(ValueError):
            Jet(N, [Poly.constant(N, 2), 0, 0]).invert()

    def test_volume_times_det_r4_coefficient(self):
        # r^4 coefficient of (r V)(sqrt det) is v4 + (J^2 - A2)/8 - J^2/(4n)
        n = 6
        jets = expand_normal_form(n)
        m4 = (jets["v_jet"] * jets["det_jet"]).coefficient(4)
        v4 = jets["v_jet"].coefficient(4)
        expect = v4 + (sym("J", 2, n) - sym("A2", 1, n)).scale(Fr(1, 8)) \
            + sym("J", 2, n).scale(Fr(-1, 4 * n))
        assert m4 == expect

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError):
            Poly.symbol(5, "J") + Poly.symbol(6, "J")


class TestExpandNormalForm:
    def test_det_r4_coefficient(self):
        det = expand_normal_form(5)["det_jet"]
        assert det.coefficient(4) == (sym("J", 2, 5) - sym("A2", 1, 5)).scale(Fr(1, 8))

    def test_mean_curvature_r4_coefficient(self):
        h = expand_normal_form(5)["h_jet"]
        assert h.coefficient(4) == sym("A2", 1, 5).scale(Fr(1, 2))

    def test_routes_agree_exactly(self):
        for n in (5, 7, 9):
            jets = expand_normal_form(n)
            assert jets["det_jet"] == det_via_trace_log(n)
            assert jets["h_jet"] == mean_curvature_via_trace(n)

    def test_round_sphere_model_closed_form(self):
        # unit round boundary data of the n=4 model: J=2, A2=1; the det jet
        # coefficients do not depend on the ring dimension, so evaluate the
        # n=5 ring jet on these values against (1 - r^2/4)^4 to order r^4
        det = expand_normal_form(5)["det_jet"]
        vals = {"J": 2.0, "A2": 1.0, "E2": 0.0, "LapJ": 0.0}
        for r in (0.02, 0.05, 0.1):
            exact = (1 - r * r / 4) ** 4
            assert abs(det.eval_floats(r, vals) - exact) < 2.0 * r ** 6
        assert det.eval_floats(0.0, vals) == 1.0
        # and the explicit polynomial: 1 - r^2 + 0.375 r^4
        assert det.coefficient(2).subs_floats(vals) == pytest.approx(-1.0)
        assert det.coefficient(4).subs_floats(vals) == pytest.approx(0.375)

    def test_v4_vanishes_on_round_data(self):
        # J = nk/2, A2 = nk^2/4, LapJ = 0 kills v4 (matching the vanishing
        # r^4 Frobenius coefficient of the exact eigenfunction)
        for n in (5, 6, 8):
            v4 = expand_normal_form(n)["v_jet"].coefficient(4)
            for k in (0.5, 1.0, 3.0):
                vals = {"J": n * k / 2, "A2": n * k * k / 4, "E2": 0.0, "LapJ": 0.0}
                assert v4.subs_floats(vals) == pytest.approx(0.0, abs=1e-15)

    def test_small_n_unsupported(self):
        with pytest.raises(ValueError):
            expand_normal_form(4)


class TestBoundaryIntegral:
    def test_laplacian_drops(self):
        out = boundary_integral(Poly.symbol(N, "LapJ"))
        assert out == IntegralClass()

    def test_a2_splits(self):
        out = boundary_integral(Poly.symbol(N, "A2"))
        assert out.e2 == Fr(1, (N - 2) ** 2)
        assert out.j2 == Fr(1, N)
        assert out.vol == 0 and out.j == 0

    def test_constant_goes_to_vol(self):
        assert boundary_integral(Poly.constant(N, Fr(3, 7))).vol == Fr(3, 7)

    def test_laplacian_product_rejected(self):
        with pytest.raises(UnsupportedIntegralError):
            boundary_integral(Poly.symbol(N, "J") * Poly.symbol(N, "LapJ"))

    def test_unknown_channel_rejected(self):
        with pytest.raises(UnsupportedIntegralError):
            boundary_integral(Poly.symbol(N, "J", 3))


class TestProp21:
    def test_beta_n5(self):
        cert = verify_prop21(5)
        assert cert.ok
        assert cert.beta.e2 == Fr(1, 135)

    def test_beta_n6(self):
        assert verify_prop21(6).beta.e2 == Fr(1, 384)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_all_flags_pass(self, n):
        cert = verify_prop21(n)
        assert cert.ok, cert.passed
        assert cert.beta.e2 == Fr(1, n * (n - 2) ** 3)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_j2_cancellation(self, n):
        # the nontrivial cancellation: alpha2 - beta2 has no int J^2 content
        cert = verify_prop21(n)
        diff = cert.alpha2 - cert.beta2
        assert diff.j2 == 0
        assert diff.j == 0 and diff.vol == 0

    def test_alpha1_equals_beta1(self):
        cert = verify_prop21(7)
        assert cert.alpha1 == cert.beta1
        assert cert.alpha1.j == Fr(-(7 + 1), 2 * 7)

    def test_einstein_boundary_defect_vanishes(self):
        # beta is purely an int |E|^2 class: zero once E = 0
        cert = verify_prop21(5)
        assert cert.beta.vol == 0 and cert.beta.j == 0 and cert.beta.j2 == 0

    def test_independent_reduction_oracle(self):
        # alpha2 - beta2 must equal the boundary integral of
        # (A2 - J^2/n)/(n(n-2)), computed through the reduction rules alone
        for n in (5, 8, 11):
            cert = verify_prop21(n)
            p = (Poly.symbol(n, "A2") - Poly.symbol(n, "J", 2).scale(Fr(1, n))) \
                .scale(Fr(1, n * (n - 2)))
            assert cert.beta == boundary_integral(p)

    def test_json_serialises_rationals(self):
        payload = json.loads(verify_prop21(5).to_json())
        assert payload["beta"]["intE2"] == "1/135"
        assert payload["ok"] is True
