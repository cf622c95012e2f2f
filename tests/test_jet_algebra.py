"""Exact-rational jet algebra and the order-r^4 certificate."""

import json
import random
from fractions import Fraction as Fr

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_mul, rs_nth_root, rs_series_inversion
from sympy.polys.rings import ring

from hkcce.jet_algebra import (SYMBOLS, IntegralClass, Jet, Poly,
                               UnsupportedIntegralError, boundary_integral,
                               expand_normal_form, verify_prop21)

N = 6  # default ring dimension for the structural tests


def sym(name, power=1, n=N):
    return Poly.symbol(n, name, power)


def at(p, **values):
    """p at exact values of its symbols (anything Fraction(str(.)) reads)."""
    total = Fr(0)
    for mono, c in p.terms.items():
        for name, e in zip(SYMBOLS, mono):
            if e:
                c *= Fr(str(values[name])) ** e
        total += c
    return total


def normal_form_matrices(n, seed):
    """Seeded symmetric rational A with one off-diagonal pair, and a symmetric
    g4 with tr g4 = tr(A^2)/4 that is not A^2/4."""
    rng = random.Random(seed)

    def q():
        return sympy.Rational(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))

    A = sympy.diag(*[q() for _ in range(n)])
    i, j = rng.sample(range(n), 2)
    A[i, j] = A[j, i] = q()
    shift = sympy.zeros(n, n)          # symmetric, trace-free and nonzero
    shift[0, 0] = b = q()
    shift[1, 1] = -b
    shift[i, j] = shift[j, i] = q()
    g4 = A ** 2 / 4 + shift
    assert g4.trace() == (A ** 2).trace() / 4 and g4 != A ** 2 / 4
    return A, g4


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
        assert (a * inv) == Jet(N, [1, 0, 0])

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

    def test_jets_match_determinants_of_explicit_metrics(self):
        # g_r = I - A t + g4 t^2 with t = r^2: sqrt(det g_r) and, by Jacobi's
        # formula, H_r = n - t D'/D with D = det g_r, both to t^2, are the
        # det and h jets at J = tr A, A2 = tr A^2.  The series are truncated
        # products in sympy's QQ[t], not the jet code.
        QT, t = ring("t", QQ)
        symbol = sympy.Symbol("t")
        for n in (5, 6, 7, 9, 12, 20):
            jets = expand_normal_form(n)
            for seed in (1, 2):
                A, g4 = normal_form_matrices(n, seed)
                metric = sympy.eye(n) - A * symbol + g4 * symbol ** 2
                D = QT.from_expr(metric.det(method="berkowitz"))
                sqrt_det = rs_nth_root(D, 2, t, 3)
                h = n - t * rs_mul(D.diff(t), rs_series_inversion(D, t, 2), t, 2)
                values = {"J": A.trace(), "A2": (A ** 2).trace()}
                for k in range(3):
                    assert at(jets["det_jet"].coefficient(2 * k), **values) \
                        == Fr(str(sqrt_det.coeff(t ** k))), (n, seed, k)
                    assert at(jets["h_jet"].coefficient(2 * k), **values) \
                        == Fr(str(h.coeff(t ** k))), (n, seed, k)

    def test_round_sphere_model_closed_form(self):
        # unit round boundary data of the n=4 model: J=2, A2=1; the det jet
        # coefficients do not depend on the ring dimension, so the n=5 ring
        # jet on these values is (1 - r^2/4)^4 = 1 - r^2 + (3/8) r^4 + O(r^6)
        det = expand_normal_form(5)["det_jet"]
        assert [at(det.coefficient(2 * k), J=2, A2=1) for k in range(3)] \
            == [1, -1, Fr(3, 8)]

    def test_v4_vanishes_on_round_data(self):
        # J = nk/2, A2 = nk^2/4, LapJ = 0 kills v4 (matching the vanishing
        # r^4 Frobenius coefficient of the exact eigenfunction)
        for n in (5, 6, 8):
            v4 = expand_normal_form(n)["v_jet"].coefficient(4)
            for k in (Fr(1, 2), Fr(1), Fr(3)):
                assert at(v4, J=n * k / 2, A2=n * k * k / 4, LapJ=0) == 0

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
