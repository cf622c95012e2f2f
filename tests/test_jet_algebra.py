"""Exact-rational jet algebra and the order-r^4 certificate."""

import json
import random
from fractions import Fraction as Fr

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_mul, rs_nth_root, rs_series_inversion
from sympy.polys.rings import ring

from hkcce.jet_algebra import (SYMBOLS, IntegralClass, Jet, expand_normal_form,
                               verify_prop21)

N = 6  # default ring dimension for the structural tests

# the slot monomials, as exponents of (J, A2, E2, LapJ)
ONE, J, J2, A2, E2, LAPJ = SLOT_MONOS = (
    (0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
SLOT_ORDER = (0, 2, 4, 4, 4, 4)


def at(terms, **values):
    """A {monomial: coefficient} dict at exact values of its symbols
    (anything Fraction(str(.)) reads)."""
    total = Fr(0)
    for mono, c in terms.items():
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
        a = Jet(N, {ONE: 1, J: Fr(-1, 2)})
        b = Jet(N, {ONE: 1, J: Fr(1, 2)})
        prod = a * b
        assert prod.coefficient(0) == {ONE: 1}
        assert prod.coefficient(2) == {}
        assert prod.coefficient(4) == {J2: Fr(-1, 4)}

    def test_geometric_series_inverse(self):
        a = Jet(N, {ONE: 1, J: Fr(1, N)})
        inv = a.invert()
        assert inv.coefficient(2) == {J: Fr(-1, N)}
        assert inv.coefficient(4) == {J2: Fr(1, N * N)}
        # round trip
        assert (a * inv) == Jet(N, {ONE: 1})

    def test_invert_requires_unit_leading(self):
        with pytest.raises(ValueError):
            Jet(N, {ONE: 2}).invert()

    def test_volume_times_det_r4_coefficient(self):
        # r^4 coefficient of (r V)(sqrt det) is v4 + (J^2 - A2)/8 - J^2/(4n)
        n = 6
        jets = expand_normal_form(n)
        m4 = (jets["v_jet"] * jets["det_jet"]).coefficient(4)
        v4 = jets["v_jet"].coefficient(4)
        expect = ref_add(v4, {J2: Fr(1, 8) - Fr(1, 4 * n), A2: Fr(-1, 8)})
        assert m4 == nonzero(expect)

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError, match="mixed rings"):
            Jet(5, {J: 1}) + Jet(6, {J: 1})

    @pytest.mark.parametrize("r_power", [-2, 1, 6])
    def test_no_coefficient_off_the_even_orders_to_4(self, r_power):
        jet = expand_normal_form(5)["v_jet"]
        with pytest.raises(ValueError, match=f"no r\\^{r_power} coefficient"):
            jet.coefficient(r_power)
        with pytest.raises(ValueError, match=f"no r\\^{r_power} coefficient"):
            jet.integral(r_power)


class TestExpandNormalForm:
    def test_det_r4_coefficient(self):
        det = expand_normal_form(5)["det_jet"]
        assert det.coefficient(4) == {J2: Fr(1, 8), A2: Fr(-1, 8)}

    def test_mean_curvature_r4_coefficient(self):
        h = expand_normal_form(5)["h_jet"]
        assert h.coefficient(4) == {A2: Fr(1, 2)}

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

    @pytest.mark.parametrize("n", [4, True, 5.0, np.int64(6)])
    def test_refuses_a_dimension_that_is_not_an_int_from_5(self, n):
        with pytest.raises(ValueError, match="n >= 5"):
            expand_normal_form(n)
        with pytest.raises(ValueError, match="n >= 5"):
            verify_prop21(n)


class TestBoundaryIntegral:
    def test_laplacian_drops(self):
        out = Jet(N, {LAPJ: 1}).integral(4)
        assert out == IntegralClass()

    def test_a2_splits(self):
        out = Jet(N, {A2: 1}).integral(4)
        assert out.e2 == Fr(1, (N - 2) ** 2)
        assert out.j2 == Fr(1, N)
        assert out.vol == 0 and out.j == 0

    def test_constant_goes_to_vol(self):
        assert Jet(N, {ONE: Fr(3, 7)}).integral(0) == IntegralClass(vol=Fr(3, 7))

    def test_laplacian_product_rejected(self):
        # int J LapJ = -int |grad J|^2 is no channel; J*LapJ has weight 6,
        # beyond the jet's r^4 truncation, so no jet can hold it
        with pytest.raises(ValueError, match=r"monomial J\*LapJ "):
            Jet(N, {(1, 0, 0, 1): 1})

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match=r"monomial J\^3 "):
            Jet(N, {(3, 0, 0, 0): 1})


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
            p = Jet(n, {A2: Fr(1, n * (n - 2)), J2: Fr(-1, n * n * (n - 2))})
            assert cert.beta == p.integral(4)

    def test_json_serialises_rationals(self):
        cert = verify_prop21(5)
        payload = json.loads(cert.to_json())
        assert payload["beta"]["intE2"] == "1/135"
        assert payload["ok"] is True
        assert payload == cert.to_dict()


class TestPublicGates:
    """The public constructors are the only checks; operation results are trusted."""

    @pytest.mark.parametrize("mono", [(Fr(1, 2), 0, 0, 0), (0.5, 0, 0, 0), (True, 0, 0, 0),
                                      (-1, 0, 0, 0), (1, 0, 0), (0, 0, 0, 0, 0)])
    def test_jet_refuses_bad_monomials(self, mono):
        with pytest.raises(ValueError, match="bad monomial"):
            Jet(5, {mono: 1})
        with pytest.raises(ValueError, match="bad monomial"):
            Jet(5, {mono: 0})  # refused even where the slot would be zero

    @pytest.mark.parametrize("c", [0.5, True, False])
    def test_jet_refuses_inexact_coefficients(self, c):
        with pytest.raises(TypeError, match="exact coefficient"):
            Jet(5, {J: c})

    @pytest.mark.parametrize("mono, name", [((1, 0, 1, 0), r"J\*E2"), ((0, 2, 0, 0), r"A2\^2")])
    def test_jet_refuses_a_monomial_outside_the_slots(self, mono, name):
        # J has weight 2, A2, E2 and LapJ weight 4; a jet truncated at r^4
        # holds only the six monomials of weight <= 4 (J^3 and J*LapJ: see
        # TestBoundaryIntegral)
        with pytest.raises(ValueError, match=f"monomial {name} "):
            Jet(5, {mono: 1})
        with pytest.raises(ValueError, match=f"monomial {name} "):
            Jet(5, {mono: 0})

    @pytest.mark.parametrize("n", [5.5, 5.0, True, 2])
    def test_jet_refuses_a_ring_dimension_that_is_not_an_int_from_3(self, n):
        with pytest.raises(ValueError, match="n >= 3"):
            Jet(n, {ONE: 1})

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    @pytest.mark.parametrize("other", [1, Fr(1, 2), {ONE: Fr(1)}])
    def test_jet_operators_refuse_a_foreign_operand(self, op, other):
        jet = expand_normal_form(5)["v_jet"]
        with pytest.raises(TypeError, match="unsupported operand"):
            eval(f"jet {op} other")
        with pytest.raises(TypeError, match="unsupported operand"):
            eval(f"other {op} jet")

    @pytest.mark.parametrize("op", ["+", "-"])
    @pytest.mark.parametrize("other", [1, Fr(1, 2), Jet(5, {ONE: 1})])
    def test_integral_class_operators_refuse_a_foreign_operand(self, op, other):
        c = IntegralClass(vol=1)
        with pytest.raises(TypeError, match="unsupported operand"):
            eval(f"c {op} other")
        with pytest.raises(TypeError, match="unsupported operand"):
            eval(f"other {op} c")

    def test_integral_class_fields_are_exact(self):
        with pytest.raises(TypeError):
            IntegralClass(vol=0.5)
        with pytest.raises(TypeError):
            IntegralClass(e2=True)
        out = IntegralClass(j=3)
        assert type(out.j) is Fr and type(out.vol) is Fr
        assert out == IntegralClass(j=Fr(3))


def sympy_prop21(n):
    """The prop21 chain in plain sympy, with no Jet code.

    Truncated series in r over J, A2 and LapJ.  Each boundary integral checks
    that LapJ occurs only linearly and bare, drops it, substitutes
    A2 -> E2/(n-2)^2 + J^2/n and reads the channels (Vol, J, J^2, E2).
    """
    r, J, A2, E2, LapJ = sympy.symbols("r J A2 E2 LapJ")
    det = 1 - J / 2 * r ** 2 + (J ** 2 - A2) / 8 * r ** 4
    h = n + J * r ** 2 + A2 / 2 * r ** 4
    v = 1 + J / (2 * n) * r ** 2 + (LapJ - J ** 2 + n * A2) / (8 * n * (n - 2)) * r ** 4

    def coefficients(series):
        series = sympy.expand(series)
        return [series.coeff(r, k) for k in range(5)]

    def integrate(coeff):
        in_lapj = sympy.Poly(coeff, LapJ)
        assert in_lapj.degree() <= 1
        assert not in_lapj.coeff_monomial(LapJ).free_symbols
        reduced = sympy.expand(in_lapj.coeff_monomial(1).subs(A2, E2 / (n - 2) ** 2 + J ** 2 / n))
        fields = {(0, 0): "vol", (1, 0): "j", (2, 0): "j2", (0, 1): "e2"}
        out = dict.fromkeys(fields.values(), Fr(0))
        for mono, c in sympy.Poly(reduced, J, E2).terms():
            out[fields[mono]] = Fr(int(c.p), int(c.q))
        return out

    def weighted(channels, w):
        return {name: w * c for name, c in channels.items()}

    surf = coefficients(sympy.series(v / (h / n), r, 0, 5).removeO())
    surf_integrand = coefficients(sum(c * r ** k for k, c in enumerate(surf)) * det)
    vol_integrand = coefficients(v * det)
    alpha2 = integrate(surf_integrand[4])
    beta2 = weighted(integrate(vol_integrand[4]), Fr(n + 1, n - 3))
    alpha = {mono: Fr(int(c.p), int(c.q))
             for mono, c in sympy.Poly(surf[4], J, A2, E2, LapJ).terms()}
    return {"alpha": alpha,
            "alpha1": integrate(surf_integrand[2]),
            "alpha2": alpha2,
            "beta1": weighted(integrate(vol_integrand[2]), Fr(n + 1, n - 1)),
            "beta2": beta2,
            "beta": {name: alpha2[name] - beta2[name] for name in alpha2}}


class TestSympyReference:
    @pytest.mark.parametrize("n", (5, 6, 7, 9, 12, 20, 30, 40))
    def test_certificate_matches_the_sympy_chain(self, n):
        ref = sympy_prop21(n)
        cert = verify_prop21(n)
        assert cert.alpha == ref["alpha"]
        for name in ("alpha1", "alpha2", "beta1", "beta2", "beta"):
            got = getattr(cert, name)
            assert {"vol": got.vol, "j": got.j, "j2": got.j2, "e2": got.e2} == ref[name], name
        assert ref["beta"] == {"vol": 0, "j": 0, "j2": 0, "e2": Fr(1, n * (n - 2) ** 3)}


# -- property tests of slot jets against plain dicts of Fractions -----------

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)
COEFF = st.builds(Fr, st.integers(-4, 4), st.integers(1, 3))
RING_N = st.sampled_from((5, 6, 9))
# the coefficients of the slots 1, J, J^2, A2, E2, LapJ at r^0, r^2, r^4
SLOTS = st.tuples(*[COEFF] * 6)


def nonzero(terms):
    return {mono: c for mono, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, Fr(0)) + sign * c
    return out


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            out[mono] = out.get(mono, Fr(0)) + c1 * c2
    return out


def ref_a2_power(n, power):
    """A2^power after A2 -> E2/(n-2)^2 + J^2/n, by repeated products."""
    rule = {(0, 0, 1, 0): Fr(1, (n - 2) ** 2), (2, 0, 0, 0): Fr(1, n)}
    out = {(0, 0, 0, 0): Fr(1)}
    for _ in range(power):
        out = ref_mul(out, rule)
    return out


def ref_integral(n, terms):
    """Channel values of the integral of pruned terms, or None if refused."""
    reduced = {}
    for (jp, a2p, e2p, lp), c in terms.items():
        if lp:
            if (jp, a2p, e2p, lp) == (0, 0, 0, 1):
                continue
            return None
        reduced = ref_add(reduced, ref_mul({(jp, 0, e2p, 0): c}, ref_a2_power(n, a2p)))
    fields = {(0, 0, 0, 0): "vol", (1, 0, 0, 0): "j", (2, 0, 0, 0): "j2", (0, 0, 1, 0): "e2"}
    reduced = nonzero(reduced)
    if any(mono not in fields for mono in reduced):
        return None
    return {fields[mono]: c for mono, c in reduced.items()}


def slot_jet(n, slots):
    return Jet(n, dict(zip(SLOT_MONOS, slots)))


def jet_terms(jet):
    """The jet as a term dict over (r power, J, A2, E2, LapJ)."""
    return {(k, *mono): c for k in (0, 2, 4) for mono, c in jet.coefficient(k).items()}


def truncated(terms):
    return nonzero({mono: c for mono, c in terms.items() if mono[0] <= 4})


class TestGradedJet:
    @PROPERTY
    @given(n=RING_N, sa=SLOTS, sb=SLOTS, c=COEFF)
    def test_jet_operations_match_dict_reference(self, n, sa, sb, c):
        ja, jb = slot_jet(n, sa), slot_jet(n, sb)
        a, b = jet_terms(ja), jet_terms(jb)
        assert a == nonzero({(k, *mono): v for mono, v, k in zip(SLOT_MONOS, sa, SLOT_ORDER)})
        for jet, expected in ((ja + jb, ref_add(a, b)), (ja - jb, ref_add(a, b, -1)),
                              (ja * jb, ref_mul(a, b)),
                              (ja.scale(c), {mono: c * v for mono, v in a.items()})):
            assert jet_terms(jet) == truncated(expected)
            # the result is the jet its own coefficients build
            assert jet == Jet(n, {mono: v for k in (0, 2, 4)
                                  for mono, v in jet.coefficient(k).items()})
        assert (ja + jb) - jb == ja
        # 1/(1 + x) = 1 - x + x^2 + O(r^6), x = O(r^2)
        unit = slot_jet(n, (Fr(1), *sa[1:]))
        one = {(0, 0, 0, 0, 0): Fr(1)}
        x = ref_add(jet_terms(unit), one, -1)
        assert jet_terms(unit.invert()) == truncated(ref_add(ref_add(one, x, -1),
                                                             ref_mul(x, x)))

    @PROPERTY
    @given(n=RING_N, slots=SLOTS, c=COEFF)
    def test_integral_matches_dict_reference(self, n, slots, c):
        # adding c (A2 - its reduction) changes no integral, but brings J^2
        # and E2 slots that cancel only after reduction
        zero_integral = ref_add({A2: c}, {mono: c * v for mono, v in ref_a2_power(n, 1).items()},
                                -1)
        order = dict(zip(SLOT_MONOS, SLOT_ORDER))
        base = dict(zip(SLOT_MONOS, slots))
        for terms in (base, ref_add(base, zero_integral)):
            jet = Jet(n, terms)
            for r_power in (0, 2, 4):
                expected = ref_integral(n, nonzero({mono: v for mono, v in terms.items()
                                                   if order[mono] == r_power}))
                assert jet.integral(r_power) == IntegralClass(**expected)
