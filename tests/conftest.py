"""Shared fixtures: session-level caches so the series solve runs once per
parameter case across the whole suite."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hkcce.compactification import build_adapted, build_lee
from hkcce.model_geometry import ModelSpace
from hkcce.scattering import _term_ratio, solve_case
from hkcce.special_fn import QCurvParams


@pytest.fixture(scope="session")
def taus():
    """260 radial points on tau in [1e-3, ln 1e6], r down to 1e-6 of r_center:
    140 up to ln 8, 120 from there on."""
    return np.concatenate([np.linspace(1e-3, math.log(8.0), 140, endpoint=False),
                           np.linspace(math.log(8.0), math.log(1e6), 120)])


@pytest.fixture(scope="session")
def branch_terms():
    """branch_terms(n, k, mu, order) -> [a_0 = 1, a_2, ..., a_{2 order}],
    the even coefficients of the branch r^mu (sum a_{2j} r^{2j}) =
    r^mu 2F1(n/2, mu; 1 + mu - n/2; k r^2/4), from the library's
    `_term_ratio` with n/2 a Fraction: Fraction k and mu give exact terms."""
    def terms(n, k, mu, order):
        half_n, a = Fraction(n, 2), [1]
        for j in range(order):
            a.append(a[-1] * k / 4 * _term_ratio(half_n, mu, 1 + mu - half_n, j))
        return a

    return terms


@pytest.fixture(scope="session")
def solved():
    """solved(n, gamma, k) -> ScatteringResult (with its interior), cached."""
    cache = {}

    def get(n, gamma, k):
        key = (n, gamma, k)
        if key not in cache:
            cache[key] = solve_case(QCurvParams(n, gamma, k))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def adapted(solved):
    """adapted(n, gamma, k) -> CompactifiedGeometry, cached."""
    cache = {}

    def get(n, gamma, k):
        key = (n, gamma, k)
        if key not in cache:
            cache[key] = build_adapted(solved(n, gamma, k))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def lee():
    """lee(n, k) -> CompactifiedGeometry, cached."""
    cache = {}

    def get(n, k):
        key = (n, k)
        if key not in cache:
            cache[key] = build_lee(ModelSpace(n, k))
        return cache[key]

    return get
