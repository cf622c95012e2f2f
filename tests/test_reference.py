"""The independent reference itself: what it imports, and its 1/z connection
against mpmath's 2F1."""

import ast
from pathlib import Path

import mpmath
import pytest

import reference


def test_imports_nothing_from_hkcce():
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"functools", "math", "mpmath"}


# (n, gamma, tau) on both sides of switch_tau(n) (1 at n = 4, 1.2 at n = 60,
# 1.5 at n = 190), where x = sinh^2 tau > 1, and out in the boundary layer; at
# n = 190 near the switch the connection's two terms cancel by 37-70 digits
POINTS = [(3, 0.05, 1.2), (4, 0.05, 0.99), (4, 0.05, 1.01), (4, 0.95, 3.0),
          (4, 0.15, 40.0), (4, 0.05, 460.0), (20, 0.5, 1.0), (60, 0.95, 1.19),
          (60, 0.95, 1.2), (60, 0.95, 2.0), (190, 0.05, 1.2), (190, 0.5, 1.49),
          (190, 0.5, 1.5), (190, 0.95, 3.0), (190, 0.05, 20.0), (190, 0.95, 400.0)]


@pytest.mark.parametrize("dps", (30, 40))
@pytest.mark.parametrize("n, gamma, tau", POINTS)
def test_connection_equals_the_direct_2f1(n, gamma, tau, dps):
    """u and u' through the 1/z connection within 10^(5 - dps) of mpmath's
    2F1 and its contiguous function, at the same working precision."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(n) / 2 + mpmath.mpf(gamma)
        t = mpmath.mpf(tau)
        for value, ref in zip(reference._connected(n, s, t), reference._direct(n, s, t)):
            assert abs(value / ref - 1) <= mpmath.mpf(10) ** (5 - dps), (value, ref)

