"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  All expected values are closed-form or oracle-based; the
relative-gap baselines for the strict cases are archived regression values,
not reference truths.
"""

import math
import random
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from hkcce.compactification import residual_suite
from hkcce.hk_verifier import (asymptotic_ratio, defect_identity,
                               verify_adapted, verify_cla, verify_lee)
from hkcce.jet_algebra import verify_prop21
from hkcce.scattering import frobenius_coefficients, solve_case
from hkcce.special_fn import QCurvParams, sphere_q_value

NS = (4, 5, 6)
GAMMAS = (0.25, 0.4, 0.5, 0.6, 0.75)
KS = (0.5, 1.0, 2.0)
GRID = [(n, g, k) for n in NS for g in GAMMAS for k in KS]


def _report(num: int, text: str):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_oracle_equivalence(solved):
    """Q from the ODE pipeline matches the gamma-ratio oracle on 45 cases."""
    t0 = time.time()
    worst = 0.0
    for n, g, k in GRID:
        _, sr = solved(n, g, k)
        oracle = sphere_q_value(n, g, k)
        rel = abs(sr.q_value - oracle) / max(1.0, abs(oracle))
        assert rel <= 1e-6, (n, g, k, rel)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, f"45-case oracle match, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_exact_symbolic_certificate():
    """Order-r^4 certificate passes exactly for n = 5..12."""
    t0 = time.time()
    for n in range(5, 13):
        cert = verify_prop21(n)
        assert cert.ok, (n, cert.passed)
        assert cert.beta.e2 == Fr(1, n * (n - 2) ** 3)
        assert cert.alpha1 == cert.beta1
    assert verify_prop21(5).beta.e2 == Fr(1, 135)
    elapsed = time.time() - t0
    assert elapsed <= 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _report(2, f"exact certificate n=5..12, beta(5) = 1/135, {elapsed:.2f}s")


def test_criterion_03_equality_rigidity_cases():
    """Classical and Lee forms report equality on every model."""
    for n in NS:
        for k in (0.5, 1.0, 2.0, 4.0):
            rep = verify_cla(n, k)
            assert abs(rep.gap) <= 1e-6 * abs(rep.lhs), ("cla", n, k, rep.gap)
            assert rep.verdict == "equality"
            rep = verify_lee(n, k)
            assert abs(rep.gap) <= 1e-6 * abs(rep.lhs), ("lee", n, k, rep.gap)
            assert rep.verdict == "equality"
    rep = verify_cla(4, 1.0)
    assert rep.lhs == pytest.approx(2 * math.pi ** 2 / 3, abs=1e-6)
    assert rep.rhs == pytest.approx(2 * math.pi ** 2 / 3, abs=1e-6)
    rep = verify_lee(4, 1.0)
    assert rep.lhs == pytest.approx(4 * math.pi ** 2 / 3, abs=1e-6)
    assert rep.rhs == pytest.approx(4 * math.pi ** 2 / 3, abs=1e-6)
    _report(3, "equality on 24 model cases; n=4,k=1 values 2pi^2/3 and 4pi^2/3")


def test_criterion_04_strictness_away_from_half():
    """The adapted inequality is strict for gamma != 1/2."""
    gaps = []
    for n in NS:
        for gamma in (0.25, 0.75):
            rep = verify_adapted(n, gamma, 1.0)
            assert rep.gap > 1e-3 * rep.lhs, (n, gamma, rep.gap / rep.lhs)
            assert rep.verdict == "strict"
            gaps.append(rep.gap / rep.lhs)
    _report(4, f"strict for gamma in {{0.25, 0.75}}, rel gaps {min(gaps):.3f}..{max(gaps):.3f}")


def test_criterion_05_elliptic_identity_residuals(adapted, lee):
    """Pointwise identity residuals below 1e-5 (1e-8 for Lee closed forms)."""
    worst_adapted = 0.0
    for n, g, k in GRID:
        res = residual_suite(adapted(n, g, k))
        for name in ("res_rho", "res_T"):
            sup = res[name].sup_weighted
            assert sup <= 1e-5, (n, g, k, name, sup)
            worst_adapted = max(worst_adapted, sup)
    worst_lee = 0.0
    for n in NS:
        for k in KS:
            res = residual_suite(lee(n, k))
            for name in ("res_rho", "res_J"):
                sup = res[name].sup_weighted
                assert sup <= 1e-8, (n, k, name, sup)
                worst_lee = max(worst_lee, sup)
    _report(5, f"residuals: adapted sup {worst_adapted:.1e} (<=1e-5), "
               f"lee sup {worst_lee:.1e} (<=1e-8)")


def test_criterion_06_defect_identities():
    """Integrated identities balance; remainders nonnegative."""
    worst_balance = 0.0
    for n in (4, 5):
        for k in (1.0, 2.0):
            for gamma in (0.25, 0.5, 0.75):
                rep = defect_identity("adapted", n, k, gamma=gamma)
                rel = abs(rep.gap) / abs(rep.lhs)
                assert rel <= 1e-5, (n, k, gamma, rel)
                worst_balance = max(worst_balance, rel)
                for name, v in rep.remainders:
                    assert v >= -1e-9, (n, k, gamma, name, v)
                    if gamma == 0.5:
                        assert v <= 1e-7, (n, k, name, v)
            rep = defect_identity("lee", n, k)
            assert abs(rep.gap) / abs(rep.lhs) <= 1e-5
            for name, v in rep.remainders:
                assert -1e-9 <= v <= 1e-7, (n, k, name, v)
    _report(6, f"defect identities balance, worst rel {worst_balance:.1e} (<=1e-5)")


def test_criterion_07_asymptotic_ratio():
    """Surface/volume ratio is 1 to 1e-8 on a 20-point log grid."""
    worst = 0.0
    for n, k in ((4, 1.0), (5, 1.0), (6, 0.5), (7, 2.0)):
        r_hi = 0.5 / math.sqrt(k)
        rows = asymptotic_ratio(n, k, r_hi * np.logspace(-3, 0, 20))
        assert len(rows) == 20
        for row in rows:
            assert abs(row["ratio"] - 1.0) <= 1e-8, (n, k, row)
            worst = max(worst, abs(row["ratio"] - 1.0))
    _report(7, f"asymptotic ratio = 1, worst deviation {worst:.1e} (<=1e-8)")


def test_criterion_08_frobenius_u2_exact():
    """u2 = (n-2g) J/(8(1-g)) exactly in rational arithmetic, 20 random triples."""
    rng = random.Random(20250810)
    for _ in range(20):
        n = rng.randint(3, 10)
        gamma = Fr(rng.randint(1, 18), 20) + Fr(rng.randint(0, 9), 200)
        if gamma >= 1:
            gamma = Fr(19, 20)
        k = Fr(rng.randint(1, 12), rng.randint(1, 12))
        s = Fr(n, 2) + gamma
        a = frobenius_coefficients(n, s, k, n - s, 3)
        jhat = Fr(n) * k / 2
        assert a[1] == (n - 2 * gamma) / (8 * (1 - gamma)) * jhat
    _report(8, "u2 exact in rational arithmetic for 20 random triples")


def test_criterion_09_positivity_suite(solved, adapted, lee, taus):
    """Q > 0, T > 0 and Jbar > 0 at all computed grid points."""
    for n, g, k in GRID:
        _, sr = solved(n, g, k)
        assert sr.q_value > 0.0, (n, g, k)
        st = adapted(n, g, k).state(taus)
        assert np.all(st.T > 0.0), (n, g, k)
    for n in NS:
        for k in KS:
            st = lee(n, k).state(taus)
            assert np.all(st.Jbar > 0.0), (n, k)
    _report(9, "positivity: Q, T and Jbar positive across the full grid")


def test_criterion_10_scaling_covariance(solved):
    """Q(k)/Q(1) = k^gamma to 2e-6 relative."""
    worst = 0.0
    for gamma in GAMMAS:
        _, base = solved(4, gamma, 1.0)
        for k in (0.5, 2.0, 4.0):
            _, sr = solved(4, gamma, k)
            rel = abs(sr.q_value / base.q_value - k ** gamma) / k ** gamma
            assert rel <= 2e-6, (gamma, k, rel)
            worst = max(worst, rel)
    _report(10, f"scaling covariance Q(k)/Q(1) = k^gamma, worst rel {worst:.1e}")
