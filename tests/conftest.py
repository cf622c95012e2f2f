"""Shared fixtures: session-level caches so the ODE pipeline runs once per
parameter case across the whole suite."""

import math

import numpy as np
import pytest

from hkcce.compactification import build_adapted, build_lee
from hkcce.model_geometry import ModelSpace
from hkcce.scattering import solve_case
from hkcce.special_fn import QCurvParams


@pytest.fixture(scope="session")
def taus():
    """260 radial points on tau in [1e-3, ln 1e6], r down to 1e-6 of r_center:
    140 up to ln 8, 120 from there on."""
    return np.concatenate([np.linspace(1e-3, math.log(8.0), 140, endpoint=False),
                           np.linspace(math.log(8.0), math.log(1e6), 120)])


@pytest.fixture(scope="session")
def solved():
    """solved(n, gamma, k) -> (profile, ScatteringResult), cached."""
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
            profile, sr = solved(n, gamma, k)
            cache[key] = build_adapted(ModelSpace(n, k), sr, profile)
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
