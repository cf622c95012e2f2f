"""Frobenius branches, interior solver and Q-curvature extraction."""

import copy
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
from hkcce.scattering import (TAU_MATCH, CentreSeries,
                              FrobeniusBranch, MatchingError,
                              _connect, _s_ext, de_lattice, node_functions,
                              frobenius_branch, match_and_q, solve_case, solve_interior)
from hkcce.special_fn import QCurvParams, sphere_q_value

import reference

EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps
LD = np.longdouble


def recursion_residual(b: FrobeniusBranch, p: QCurvParams) -> float:
    """Max re-substitution defect of a branch's coefficients, relative."""
    worst = 0.0
    n, s, k = p.n, _s_ext(p.n, p.gamma), p.k
    cs = b.coeffs
    for M in range(1, len(cs)):
        x = b.mu + 2 * M
        P = (x - s) * (x - (n - s))
        acc = cs[0] * b.mu
        for m in range(1, M):
            acc = acc * (k / 4)
            acc += cs[m] * (b.mu + 2 * m)
        lhs = float(P * cs[M])
        rhs = float(n * k / 2 * acc)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


def _mp(x) -> mpmath.mpf:
    """A float or long double as an mpf, exactly (at 30 digits and above)."""
    num, den = x.as_integer_ratio()
    return mpmath.mpf(num) / den


class TestFrobeniusCoefficients:
    def test_a2_reference_case(self):
        # u2 = (n-2g)/(8(1-g)) * J with J = nk/2: for n=4, g=1/2, k=1 -> 3/2
        p = QCurvParams(4, 0.5, 1.0)
        b = frobenius_branch(p, p.n - p.s)
        assert b.coeffs[1] == pytest.approx(1.5, rel=1e-14)

    def test_formal_k_zero(self, branch_terms):
        a = branch_terms(4, 0.0, 1.25, 6)
        assert a[0] == 1.0
        assert all(c == 0.0 for c in a[1:])

    def test_lee_branch_terminates(self, branch_terms):
        # s = n+1, mu = -1: r V = 1 + (k/4) r^2 exactly, all higher terms zero
        a = branch_terms(5, Fr(1), Fr(-1), 4)
        assert a == [Fr(1), Fr(1, 4), Fr(0), Fr(0), Fr(0)]

    @pytest.mark.parametrize("seed", range(5))
    def test_u2_exact_rational(self, seed, branch_terms):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        gamma = Fr(rng.randint(1, 18), 20)
        k = Fr(rng.randint(1, 9), rng.randint(1, 9))
        s = Fr(n, 2) + gamma
        a = branch_terms(n, k, n - s, 2)
        assert a[1] == n * k * (n - 2 * gamma) / (16 * (1 - gamma))

    def test_recursion_residual(self):
        for gamma in (0.25, 0.6, 0.95):
            p = QCurvParams(5, gamma, 2.0)
            for mu in (p.s, p.n - p.s):
                assert recursion_residual(frobenius_branch(p, mu), p) <= 1e-13

    def test_mu_must_be_indicial(self):
        p = QCurvParams(4, 0.5, 1.0)
        with pytest.raises(ValueError):
            frobenius_branch(p, 1.0)

    def test_branch_evaluation_against_closed_form(self, branch_terms):
        # gamma = 1/2, n = 4, k = 1: u = r^{3/2} (1 + r/2)^{-3}, so the
        # mu = n-s branch series is the even part of (1+r/2)^{-3}
        p = QCurvParams(4, 0.5, 1.0)
        mu = p.n - p.s
        b = FrobeniusBranch(mu=mu, coeffs=np.array(branch_terms(p.n, p.k, mu, 14), dtype=LD))
        for r in (0.05, 0.2, 0.4):
            even_part = 0.5 * ((1 + r / 2) ** -3 + (1 - r / 2) ** -3)
            assert float(b.at(r)[0]) == pytest.approx(r ** mu * even_part, rel=1e-13)


class TestBranchArithmetic:
    """`FrobeniusBranch.at` at the connection point against 30-digit sums of
    its own coefficients, and against the 2F1 form of each branch; the
    coefficients against their Pochhammer closed form."""

    @pytest.mark.parametrize("n,gamma,k", [(3, 0.05, 0.5), (4, 0.5, 1.0), (20, 0.95, 2.0),
                                           (60, 0.3, 0.5), (150, 0.75, 2.0)])
    def test_at_equals_a_30_digit_sum_of_the_same_coefficients(self, n, gamma, k):
        p = QCurvParams(n, gamma, k)
        r = 2 / np.sqrt(LD(k)) * np.exp(-LD(TAU_MATCH))
        ulp = float(np.finfo(LD).eps)
        with mpmath.workdps(30):
            r_mp = _mp(r)
            for b in (frobenius_branch(p, p.n - p.s), frobenius_branch(p, p.s)):
                mu = _mp(b.mu)
                terms = [_mp(c) * r_mp ** (2 * j) for j, c in enumerate(b.coeffs)]
                series = mpmath.fsum(terms)
                value = r_mp ** mu * series
                deriv = -r_mp ** mu * mpmath.fsum((mu + 2 * j) * t for j, t in enumerate(terms))
                for x, ref in zip(b.at(r), (value, deriv), strict=True):
                    assert abs(_mp(x) - ref) <= 8 * ulp * abs(ref), (b.mu, x, ref)
                # the series stops at its first term at most eps of the sum there
                assert terms[-1] <= ulp * series < terms[-2], b.mu

    @pytest.mark.parametrize("n", (3, 4, 20, 60, 150, 190))
    @pytest.mark.parametrize("gamma", (0.05, 0.5, 0.95))
    @pytest.mark.parametrize("k", (0.5, 2.0))
    def test_at_equals_the_2f1_of_each_branch(self, n, gamma, k):
        # `reference.branch` sums the 2F1 form, not these coefficients; it
        # is handed the tau of the long-double r exactly, so r's own rounding
        # (times mu, up to 96) does not count against `at`
        p = QCurvParams(n, gamma, k)
        r = 2 / np.sqrt(LD(k)) * np.exp(-LD(TAU_MATCH))
        ulp = float(np.finfo(LD).eps)
        with mpmath.workdps(40):
            tau = mpmath.log(2 / (mpmath.sqrt(k) * _mp(r)))
            for high, mu in ((False, p.n - p.s), (True, p.s)):
                got = frobenius_branch(p, mu).at(r)
                for x, ref in zip(got, reference.branch(n, gamma, k, high, tau)):
                    assert abs(_mp(x) - ref) <= 32 * ulp * abs(ref), (mu, x, ref)

    @pytest.mark.parametrize("n", (3, 4, 20, 60, 100, 150, 190))
    def test_coefficients_equal_the_pochhammer_closed_form(self, n):
        # the term count is read at tau = 3, where k r^2/4 = e^{-6} for every
        # k, so it is the same at each k
        ulp = float(np.finfo(LD).eps)
        with mpmath.workdps(30):
            for gamma in (0.05, 0.5, 0.95):
                for high in (False, True):
                    counts = set()
                    for k in (0.5, 1.0, 2.0):
                        p = QCurvParams(n, gamma, k)
                        b = frobenius_branch(p, p.s if high else p.n - p.s)
                        counts.add(len(b.coeffs))
                        if k == 1.0:
                            continue
                        ref = reference.branch_coefficients(n, gamma, k, high, len(b.coeffs))
                        for j, (a, a_ref) in enumerate(zip(b.coeffs, ref, strict=True)):
                            assert abs(_mp(a) - a_ref) <= 8 * ulp * a_ref, (gamma, k, high, j)
                    assert len(counts) == 1, (gamma, high, counts)


class TestDeLattice:
    def test_memoised_and_read_only(self):
        """Every call slices the one lattice and its node functions evaluated
        on import."""
        tau, weights, coarse, nodes = de_lattice(40.0)
        again = de_lattice(40.0)
        assert coarse == again[2]
        for a, b in zip((tau, weights, *nodes), (*again[:2], *again[3]), strict=True):
            assert np.array_equal(a, b)
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_beyond_the_widest_lattice_raises(self):
        assert len(de_lattice(scattering.DE_TAU_WIDEST)[0]) == len(scattering._DE_WIDEST[0])
        with pytest.raises(ValueError, match="widest"):
            de_lattice(2 * scattering.DE_TAU_WIDEST)

    TAU_MAXES = (3.0, 40.0, 50.0, 80.0, 400.0)

    @staticmethod
    def direct(tau_max):
        """The rule from the DE formulas: t = i h/2 from the first node with
        tau > tau_max to DE_T_MAX, z = -pi sinh t, tau = log(1 + e^z),
        weight h/2 pi cosh t/(1 + e^{-z}), coarse at even i."""
        half = scattering.DE_STEP / 2
        first = math.floor(-math.asinh(tau_max / math.pi) / half)
        i = np.arange(first, round(scattering.DE_T_MAX / half) + 1)
        z = -math.pi * np.sinh(i * half)
        return (np.logaddexp(0.0, z), half * math.pi * np.cosh(i * half) / (1.0 + np.exp(-z)),
                i % 2 == 0)

    @pytest.mark.parametrize("tau_max", TAU_MAXES)
    def test_equals_the_de_formulas_bit_for_bit(self, tau_max):
        got = de_lattice(tau_max)
        for a, b in zip(got[:2], self.direct(tau_max)[:2], strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[0][0] > tau_max and np.all(np.diff(got[0]) < 0)

    def test_a_smaller_tau_max_is_a_suffix(self):
        lattices = [tuple(a.copy() for a in (tau, weights, *nodes))
                    for tau, weights, _, nodes in map(de_lattice, self.TAU_MAXES)]
        for small, large in zip(lattices, lattices[1:]):
            assert len(small[0]) < len(large[0])
            for a, b in zip(small, large):
                assert np.array_equal(a, b[len(b) - len(a):])

    @pytest.mark.parametrize("tau_max", TAU_MAXES)
    def test_node_functions_equal_their_formulas_bit_for_bit(self, tau_max):
        """The tabulated e^{-tau}, -expm1(-2 tau) and 1/tanh(tau) are the
        formulas at the lattice's own nodes, on the slice and on a copy of
        it, and `node_functions` off the lattice."""
        tau, _, _, got = de_lattice(tau_max)
        for nodes in (tau, tau.copy()):
            formulas = (np.exp(-nodes), -np.expm1(-2.0 * nodes), 1.0 / np.tanh(nodes))
            for a, b, c in zip(got, formulas, node_functions(nodes), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(a, c)
        for a in got:
            assert not a.flags.writeable

    @pytest.mark.parametrize("tau_max", (21.0, *TAU_MAXES))
    def test_the_coarse_slice_is_the_coarse_mask(self, tau_max):
        """The coarse slice, every other node from the first or the second,
        selects exactly the nodes of even i, the mask of the formulas."""
        tau, _, coarse, _ = de_lattice(tau_max)
        even = self.direct(tau_max)[2]
        index = np.arange(len(tau))
        assert np.array_equal(index[coarse], np.flatnonzero(even))


class TestInteriorSolve:
    def test_taylor_start_values(self):
        p = QCurvParams(4, 0.5, 1.0)
        prof = solve_interior(p)
        tau0 = 1e-3
        u0, du0, _ = prof(tau0)
        # u ~ 1 - lam tau^2 / (2(n+1)) with lam = s(n - s)
        lam = p.s * (p.n - p.s)
        assert u0[0] - 1.0 == pytest.approx(-lam * tau0 ** 2 / 10.0, rel=1e-5)
        assert du0[0] / tau0 == pytest.approx(-lam / 5.0, rel=1e-5)

    def test_grid_is_increasing(self):
        prof = solve_interior(QCurvParams(4, 0.25, 1.0))
        assert np.all(np.diff(prof.tau) > 0)


def per_eps_terms(ratio: np.ndarray, w: float, eps: float):
    """The centre series' term count at w for one eps, searched on its own:
    the rule `CentreSeries` applies to both precisions in one pass."""
    T = np.concatenate(([1.0], np.cumprod(ratio[:-1] * w)))
    rho = np.maximum(ratio, 1.0) * w
    hits = np.flatnonzero((rho < 1.0) & (T * rho <= eps * np.cumsum(T) * (1.0 - rho)))
    return int(hits[0]) + 1 if hits.size else None


class TestCentreSeries:
    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is plain double here")
    def test_term_counts_match_the_per_eps_rule(self):
        eps_ext = float(np.finfo(np.longdouble).eps)
        eps = float(np.finfo(float).eps)
        w = float(np.tanh(np.longdouble(TAU_MATCH) / 2) ** 2)
        ns = [*range(3, 21), 60, 150, 190, 200, 250, 500, 1000]
        for n, gamma in [(n, g) for n in ns for g in (0.05, 0.5, 0.95)]:
            s = _s_ext(n, gamma)
            series = CentreSeries(n, s)
            j = np.arange(400, dtype=np.longdouble)
            ratio = ((s + j) * (s - np.longdouble(n - 1) / 2 + j)
                     / ((np.longdouble(n + 1) / 2 + j) * (1 + j))).astype(float)
            assert series._terms == per_eps_terms(ratio, w, eps), (n, gamma)
            # long double is summed only at the connection point
            assert series._terms_ext == per_eps_terms(ratio, w, eps_ext), (n, gamma)
            # the double coefficients stop at the double term count
            assert series._rows.shape == (3, series._terms) and series._terms < series._terms_ext
        # one bound w(3): the counts do not grow with n
        for n in range(3, 1001):
            for gamma in (0.05, 0.95):
                series = CentreSeries(n, _s_ext(n, gamma))
                assert 150 < series._terms < series._terms_ext < 250, (n, gamma)

    def test_a_built_series_holds_double_only_and_stays_as_built(self, monkeypatch):
        built = []

        class Recording(CentreSeries):
            def __init__(self, n, s):
                super().__init__(n, s)
                built.append((self, dict(vars(self)), copy.deepcopy(vars(self))))

        monkeypatch.setattr(scattering, "CentreSeries", Recording)
        scattering._interior.cache_clear()
        try:
            for n, gamma in ((3, 0.05), (10, 0.5), (150, 0.95)):
                interior = scattering._interior(n, gamma)
                interior(np.linspace(0.1, TAU_MATCH, 7))
                interior(scattering._TABLE_TAU)
                u, du, y = interior(np.array([1.0], dtype=LD))
                assert u.dtype == du.dtype == y.dtype == np.float64
                sr = match_and_q(interior, QCurvParams(n, gamma, 1.0))
                series, objects, values = built[-1]
                assert interior is series and sr.interior is series
                assert vars(series).keys() == objects.keys()
                for name, value in vars(series).items():
                    assert value is objects[name], name
                    if isinstance(value, np.ndarray):
                        assert value.dtype == np.float64 and not value.flags.writeable, name
                        assert np.array_equal(value, values[name]), name
                    else:
                        assert value == values[name], name
        finally:
            scattering._interior.cache_clear()

    @pytest.mark.parametrize("n", (3, 4, 10, 20, 60, 150, 190))
    def test_table_and_connection_equal_the_untransformed_2f1(self, n):
        """The table (u, u') within 4 double eps and the connection within
        16 long-double eps of `reference`'s 40-digit 2F1(s/2, (n-s)/2; (n+1)/2;
        -sinh^2 tau) and its derivative (DLMF 15.5.1): the series in w = tanh^2(tau/2) is
        its quadratic transformation, which this puts under test.  The
        table's y within 8 double eps of 1 + u'/((n-s) u) from the same
        reference (formed from the table's u and u' instead, it is off by up
        to 43 eps here)."""
        eps, eps_ext = float(np.finfo(float).eps), float(np.finfo(LD).eps)
        with mpmath.workdps(40):
            for gamma in (0.05, 0.3, 0.5, 0.77, 0.95):
                series = CentreSeries(n, _s_ext(n, gamma))
                s = _mp(_s_ext(n, gamma))

                def worst(tau, pair):
                    return max(abs(_mp(v) / ref - 1)
                               for v, ref in zip(pair, reference.u_and_du(n, s, tau)))

                for tau, u, du, y in zip(series.tau, series.u, series.du, series.y):
                    u_ref, du_ref = reference.u_and_du(n, s, _mp(tau))
                    error = max(abs(_mp(u) / u_ref - 1), abs(_mp(du) / du_ref - 1))
                    assert error <= 4 * eps, (gamma, tau)
                    y_ref = 1 + du_ref / ((n - s) * u_ref)
                    assert abs(_mp(y) / y_ref - 1) <= 8 * eps, (gamma, tau)
                if EXTENDED:
                    assert type(series.connection[0]) is type(series.connection[1]) is LD
                error = worst(mpmath.mpf(TAU_MATCH), series.connection)
                assert error <= 16 * eps_ext, (gamma, error / eps_ext)


    @pytest.mark.parametrize("n", (3, 4, 10, 60, 150, 400, 800))
    def test_half_equals_its_closed_form(self, n):
        """At gamma = 1/2 the series is elementary (`reference.half_series`):
        the table's u, u' and y at the 155 nodes, and a call's at 40 points
        of [0.05, 3] off the table, within 4 double eps of it, far beyond
        the dimensions the bit-equality tests reach."""
        eps = float(np.finfo(float).eps)
        series = CentreSeries(n, _s_ext(n, 0.5))
        off = np.linspace(0.05, TAU_MATCH, 40)
        with mpmath.workdps(40):
            for tau, values in ((series.tau, (series.u, series.du, series.y)),
                                (off, series(off))):
                for i, t in enumerate(tau):
                    for value, ref in zip((v[i] for v in values),
                                          reference.half_series(n, _mp(t)), strict=True):
                        assert abs(_mp(value) / ref - 1) <= 4 * eps, (n, t, value, ref)


class TestPowerTables:
    """The powers of w, tabulated on import at the table's nodes and at the
    connection point, and the sums read from them."""

    @staticmethod
    def unflushed():
        """The table's powers of w as `_powers` forms them, subnormals kept."""
        return scattering._powers(np.tanh(scattering._TABLE_TAU.astype(LD) / 2) ** 2, float)

    def test_no_power_is_subnormal(self):
        tiny = np.finfo(float).tiny
        unflushed = self.unflushed()
        subnormal = (unflushed > 0.0) & (unflushed < tiny)
        assert subnormal.any()
        powers = scattering._TABLE_AT[0]
        assert np.all(powers[powers < tiny] == 0.0)
        assert np.array_equal(powers[~subnormal], unflushed[~subnormal])
        # a call off the table zeroes its own
        off = scattering._summed_at(np.array([1e-3, 0.5]))[0]
        assert np.all(off[off < tiny] == 0.0) and np.any(off == 0.0)

    @pytest.mark.parametrize("gamma", [round(0.05 * i, 2) for i in range(1, 20)])
    def test_zeroed_subnormals_leave_the_sums_bits(self, gamma):
        """F, G and H summed from the table equal the sums from the powers
        with their subnormals kept, bit for bit."""
        unflushed = self.unflushed()
        for n in (*range(3, 61), 150, 190):
            series = CentreSeries(n, _s_ext(n, gamma))
            terms = series._terms
            flushed = series._rows @ scattering._TABLE_AT[0][:, :terms].T
            assert np.array_equal(flushed, series._rows @ unflushed[:, :terms].T), n

    def test_read_only_and_wide_enough(self, monkeypatch):
        width = scattering._WIDTH
        powers = scattering._TABLE_AT[0]
        assert powers.dtype == np.float64 and powers.shape == (len(scattering._TABLE_TAU), width)
        assert scattering._CONNECTION_POWERS.shape == (1, width)
        for table in (*scattering._TABLE_AT, scattering._CONNECTION_POWERS):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
        for n in (*range(3, 1001), 10 ** 6):
            for gamma in (0.05, 0.95):
                series = CentreSeries(n, _s_ext(n, gamma))
                assert series._terms < series._terms_ext <= width, (n, gamma)
        # a series that needs more terms than the tables hold is refused
        monkeypatch.setattr(scattering, "_WIDTH", 150)
        with pytest.raises(MatchingError, match="more than 150 terms"):
            CentreSeries(5, _s_ext(5, 0.3))

    @pytest.mark.parametrize("gamma", [round(0.05 * i, 2) for i in range(1, 20)])
    def test_a_call_at_some_table_nodes_gives_the_table_bits(self, gamma):
        """Off the table's exact node array the series is summed afresh,
        and at the nodes it contains gives the table's values bit for bit:
        every other node, and every node but a nudged last one."""
        nodes = scattering._TABLE_TAU
        nudged = nodes.copy()
        nudged[-1] = np.nextafter(nudged[-1], 1.0)
        for n in range(3, 61):
            series = CentreSeries(n, _s_ext(n, gamma))
            for table, sparse, most in zip((series.u, series.du, series.y), series(nodes[::2]),
                                           series(nudged), strict=True):
                table = table[::-1]                 # the nodes' descending order
                assert np.array_equal(sparse, table[::2]), n
                assert np.array_equal(most[:-1], table[:-1]), n


class TestProfileTable:
    """The series' table is the centre series at the quadrature's interior nodes."""

    @pytest.mark.parametrize("gamma", (0.05, 0.5, 0.95))
    def test_table_is_the_integrators_interior_nodes(self, solved, gamma):
        sr = solved(6, gamma, 1.0)
        tau = RadialIntegrator(build_adapted(sr)).state.tau
        inner = tau[tau <= TAU_MATCH]
        assert len(sr.interior.tau) == len(inner) == 155
        assert np.array_equal(sr.interior.tau, inner[::-1])

    def test_evaluate_at_the_nodes_returns_the_table(self, solved):
        interior = solved(6, 0.3, 1.0).interior
        nodes = interior.tau[::-1].copy()
        values = interior(nodes)
        for value, table in zip(values, (interior.u, interior.du, interior.y), strict=True):
            assert np.shares_memory(value, table) and np.array_equal(value[::-1], table)
        # a series built afresh sums the same table, bit for bit
        for value, direct in zip(values, CentreSeries(6, _s_ext(6, 0.3))(nodes), strict=True):
            assert np.array_equal(value, direct)

    def test_evaluate_elsewhere_sums_the_series(self, solved):
        interior = solved(6, 0.3, 1.0).interior
        series = CentreSeries(6, _s_ext(6, 0.3))
        nodes = interior.tau[::-1]
        for tau in (np.linspace(0.01, TAU_MATCH, 40), nodes[1:], interior.tau,
                    np.append(nodes, 1.0)):
            values = interior(tau)
            assert not np.shares_memory(values[0], interior.u)
            for value, direct in zip(values, series(tau), strict=True):
                assert np.array_equal(value, direct)
        # beyond the horizon the term counts no longer reach double precision
        # (3e-10 relative at tau = 3.5 for n = 10, gamma = 0.5): refused
        for call in (interior, CentreSeries(10, _s_ext(10, 0.5))):
            with pytest.raises(ValueError, match="horizon"):
                call(np.array([1.0, 3.5]))


class TestMatching:
    def test_unit_sphere_q(self, solved):
        sr = solved(4, 0.5, 1.0)
        assert sr.q_value == pytest.approx(1.0, abs=1e-6)
        assert sr.c1 != 0.0
        assert sr.scattering_value == pytest.approx(sr.c2 / sr.c1, rel=1e-15)

    def test_quarter_q(self, solved):
        sr = solved(4, 0.25, 1.0)
        assert sr.q_value == pytest.approx(0.704446, abs=1e-5)

    def test_k2_scaling(self, solved):
        sr = solved(4, 0.5, 2.0)
        assert sr.q_value == pytest.approx(math.sqrt(2.0), abs=1e-5)

    def test_q_normalisation_invariant(self, solved):
        for case in ((4, 0.5, 1.0), (5, 0.6, 2.0)):
            p = QCurvParams(*case)
            sr = solved(*case)
            from hkcce.special_fn import d_gamma
            expected = (2.0 / (p.n - 2 * p.gamma)) * d_gamma(p.gamma) * sr.c2 / sr.c1
            assert sr.q_value == pytest.approx(expected, rel=1e-15)

    def test_oracle_grid_subset(self, solved):
        for n in (4, 6):
            for gamma in (0.25, 0.5, 0.75):
                for k in (0.5, 2.0):
                    sr = solved(n, gamma, k)
                    oracle = sphere_q_value(n, gamma, k)
                    assert abs(sr.q_value - oracle) <= 1e-6 * max(1.0, abs(oracle))
                    assert sr.q_value > 0.0

    def test_condition_estimate_reported(self, solved):
        sr = solved(4, 0.5, 1.0)
        assert 1.0 < sr.condition_estimate <= scattering._COND_MAX

    def test_condition_is_the_branch_sums_cancellation(self):
        """condition_estimate = (|c1 v1| + |c2 v2|)/|u| is the cancellation
        (|L| + |q x H|)/|L + q x H| of the branch sum a geometry evaluates
        beyond TAU_MATCH: L and H the low and high series summed in double
        at r(3), x = r^{2 gamma} and q = c2/c1 from the 20-digit closed
        form.  Within 4 cond eps, and `_connect` refuses exactly the cells
        where it exceeds _COND_MAX (n ~ 196-215)."""
        eps = float(np.finfo(float).eps)
        raised = 0
        for n in [*range(3, 61), *range(190, 217)]:
            for gamma in (0.05, 0.5, 0.95):
                for k in (0.5, 1.0, 2.0):
                    p = QCurvParams(n, gamma, k)
                    b1, b2 = frobenius_branch(p, p.n - p.s), frobenius_branch(p, p.s)
                    r = (2.0 / math.sqrt(k)) * math.exp(-TAU_MATCH)
                    low, high = (np.polyval(b.coeffs.astype(float)[::-1], r * r)
                                 for b in (b1, b2))
                    with mpmath.workdps(20):
                        g = mpmath.mpf(gamma)
                        d_g = -4 ** g * mpmath.gamma(1 + g) / mpmath.gamma(1 - g)
                        q = float(reference.q_value(n, gamma, k) * (n - 2 * g) / (2 * d_g))
                    branch = q * r ** (2 * gamma) * high
                    cancellation = (abs(low) + abs(branch)) / abs(low + branch)
                    if cancellation > scattering._COND_MAX:
                        raised += 1
                        with pytest.raises(MatchingError, match="condition"):
                            _connect(solve_interior(p), p, b1, b2)
                        continue
                    cond = _connect(solve_interior(p), p, b1, b2)[2]
                    assert abs(cond - cancellation) <= 4 * cond * cond * eps, (n, gamma, k)
        assert raised > 0

    @pytest.mark.parametrize("n", (620, 5000, 8000, 12000))
    def test_extreme_n_is_refused_without_a_warning(self, n):
        # a RuntimeWarning is an error here: the underflow guard is what keeps
        # n 5000 and 8000 from dividing by zero in the solve, and at n = 12000
        # the branch series does not converge within _BRANCH_MAX_ORDER terms
        with pytest.raises(MatchingError):
            solve_case(QCurvParams(n, 0.5, 1.0))

    def test_underflow_is_a_matching_error(self):
        # r^{n-s} is subnormal at tau = 3 for n = 560, k = 2: the system is
        # well conditioned but its entries keep only a few digits
        with pytest.raises(MatchingError, match="underflow"):
            solve_case(QCurvParams(560, 0.5, 2.0))


class TestMpmathReference:
    """The series pipeline against `reference` at 30 digits.

    u = 2F1(s/2, (n-s)/2; (n+1)/2; -sinh^2 tau) (DLMF 15.2.1),
    c1 = Gamma((n+1)/2) Gamma(s - n/2) / (Gamma(s/2) Gamma((s+1)/2)) k^{(n-s)/2},
    the tau -> infinity limit of r^{s-n} u (DLMF 15.8.2), and Q in closed form.
    """

    NS = (3, 4, 20, 40, 60, 100, 150, 190)   # the connection's condition is ~1e9 at 190
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
        u, du, _ = prof(taus)
        for tau, u_num, du_num in zip(taus, u, du):
            u_ref, du_ref = reference.u_and_du(n, mpmath.mpf(p.s), tau)
            assert abs(u_num / u_ref - 1) <= 1e-11, (tau, u_num, u_ref)
            assert abs(du_num / du_ref - 1) <= 1e-11, (tau, du_num, du_ref)

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_c1_and_q(self, n, gamma):
        # at the exact s: the rounded p.s moves the reference by up to 316 eps
        s = mpmath.mpf(n) / 2 + mpmath.mpf(gamma)
        for k in self.KS:
            p = QCurvParams(n, gamma, k)
            sr = solve_case(p)
            c1_ref = reference.c1(n, s, k)
            # c1 is two cross products over the closed-form Wronskian: no
            # determinant of the entries loses digits at large n
            c1_bound = 2 * np.finfo(float).eps if EXTENDED else 1e-10
            assert abs(sr.c1 / c1_ref - 1) <= c1_bound, (k, sr.c1, c1_ref)
            oracle = sphere_q_value(n, gamma, k)
            assert abs(sr.q_value / oracle - 1) <= 1e-10, (k, sr.q_value, oracle)
            if EXTENDED:
                # connection and d_gamma in extended precision: Q is rounded once
                q_ref = reference.q_value(n, gamma, k)
                assert abs(sr.q_value - q_ref) <= math.ulp(float(q_ref)), (k, sr.q_value, q_ref)


def _result_numbers(sr):
    return sr.q_value, sr.c1, sr.c2, sr.scattering_value, sr.condition_estimate


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
            cold[k] = _result_numbers(solve_case(QCurvParams(5, 0.3, k)))
        solve_case.cache_clear()
        scattering._interior.cache_clear()
        results = []
        for k in self.KS:
            sr = solve_case(QCurvParams(5, 0.3, k))          # interior hit from k = 1
            assert _result_numbers(sr) == cold[k]
            assert solve_case(QCurvParams(5, 0.3, k)) is sr  # case hit
            results.append(sr)
        # the three results of the k-run carry one interior
        assert all(sr.interior is results[0].interior for sr in results)
        assert scattering._interior.cache_info().misses == 1
        assert solve_case.cache_info().hits == len(self.KS)

    def test_three_k_sweep_builds_one_series(self, tmp_path, monkeypatch):
        built = []

        class Counting(scattering.CentreSeries):
            def __init__(self, n, s):
                built.append((n, s))
                super().__init__(n, s)

        monkeypatch.setattr(scattering, "CentreSeries", Counting)
        rc = cli.main(["sweep", "--n", "5", "--gamma", "0.3", "--k", "0.5,1,2",
                       "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert len(built) == 1

    def test_three_k_sweep_sums_the_series_once(self, tmp_path, monkeypatch):
        sums = []
        summed = scattering.CentreSeries._sums

        def counting(series, at):
            sums.append(at)
            return summed(series, at)

        monkeypatch.setattr(scattering.CentreSeries, "_sums", counting)
        rc = cli.main(["sweep", "--n", "5", "--gamma", "0.3", "--k", "0.5,1,2",
                       "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        # the connection and the table are summed when the series is built;
        # the three geometries' calls at the table's nodes read the table
        assert len(sums) == 1 and sums[0] is scattering._TABLE_AT

    def test_results_are_frozen(self):
        sr = solve_case(QCurvParams(4, 0.25, 1.0))
        for obj, name in ((sr, "interior"), (sr, "q_value"), (sr.branch_low, "mu")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 0.0)
        for table in (sr.interior.tau, sr.interior.u, sr.interior.du):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        assert sr.branch_high.coeffs.dtype == LD
        with pytest.raises(ValueError, match="read-only"):
            sr.branch_high.coeffs[0] = 0.0
        # results compare by their numbers, not by the series they carry
        assert sr == dataclasses.replace(sr, interior=None)
