"""Exact-rational order-r^4 jets over formal boundary-curvature scalars.

Everything in the order-r^4 expansion of the geodesic normal form of a
conformally compact Einstein metric reduces, after taking traces, to the four
boundary scalars

    J     the Schouten trace (scalar curvature / (2(n-1)))
    A2    |A|^2, the squared norm of the Schouten tensor
    E2    |E|^2, the squared norm of its trace-free part
    LapJ  the boundary Laplacian of J

with exact rational coefficients once the boundary dimension n is fixed.  A
monomial is its tuple of four exponents of (J, A2, E2, LapJ).

Under the scaling of the boundary metric J has weight 2 and A2, E2 and LapJ
weight 4, and the r^{2i} coefficient of every jet here has weight 2i.  So a
jet holds six monomials at most, its slots: 1 at r^0, J at r^2, and J^2, A2,
E2 and LapJ at r^4.  These are all the monomials of weight <= 4, and each
one's weight fixes its order in r.  `Jet` stores their coefficients as six
integers over one positive denominator in lowest terms; its sums, products,
scale and inverse are fixed integer formulas, and `coefficient(r)` reads the
nonzero slots of one order as a {monomial: Fraction} dict.

`Jet.integral(r)` is the one rule for integrating a coefficient over the
closed boundary: int LapJ = 0 (divergence theorem) and A2 splits pointwise
into E2/(n-2)^2 + J^2/n, so the r^4 slots land in int J^2 and int E2 as
c_J2 + c_A2/n and c_E2 + c_A2/(n-2)^2.  `IntegralClass` holds the result in
the channels Vol, int J, int J^2 and int E2.

The public constructors are the only gates: `Jet(n, terms)` takes an int
n >= 3 and a {monomial: int or Fraction} map, and refuses a bad exponent
tuple, a monomial outside the six slots (J^3, J*E2, J*LapJ, ...) and an
inexact coefficient (float, bool); `IntegralClass` takes exact fields only.
An operand of another type gets `NotImplemented` from every operator, so
Python raises the usual `TypeError` naming both types.  Every operation
(`+`, `-`, `*`, `scale`, `invert`, `integral`) builds its result through a
private constructor (`Jet._of`, `IntegralClass._of`) from values it produced
itself, already in lowest terms, so no result is checked a second time.

`expand_normal_form` gives the volume-element, mean-curvature and
eigenfunction jets in closed form.  `verify_prop21` builds from them the full
r^4 coefficient chain of the asymptotic Heintze-Karcher ratio (surface
integral of V/H over boundary level sets against the enclosed weighted
volume) and certifies, in exact arithmetic, that the r^2 terms cancel and the
r^4 defect is (1/(n(n-2)^3)) int |E|^2 / Vol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

SYMBOLS = ("J", "A2", "E2", "LapJ")

JET_ORDER = 4  # truncation at r^4 throughout; O(r^5) is never represented

# The slot monomials 1, J, J^2, A2, E2, LapJ and the order in r of each
_SLOT_MONOS = ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
               (0, 0, 0, 1))
_SLOT_ORDER = (0, 2, 4, 4, 4, 4)
_SLOT = dict(zip(_SLOT_MONOS, range(6)))
_J = _SLOT_MONOS[1]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(x).__name__}")


def _mono_name(mono: tuple) -> str:
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(SYMBOLS, mono) if e]
    return "*".join(factors) or "1"


def _check_order(r_power: int):
    if r_power % 2 or not 0 <= r_power <= JET_ORDER:
        raise ValueError(f"no r^{r_power} coefficient at order {JET_ORDER}")


@dataclass(frozen=True)
class IntegralClass:
    """Exact linear combination of Vol, int J, int J^2 and int |E|^2."""

    vol: Fraction = Fraction(0)
    j: Fraction = Fraction(0)
    j2: Fraction = Fraction(0)
    e2: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("vol", "j", "j2", "e2"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))

    @classmethod
    def _of(cls, vol: Fraction, j: Fraction, j2: Fraction, e2: Fraction) -> "IntegralClass":
        """IntegralClass on Fractions that operations produced, not re-checked."""
        out = object.__new__(cls)
        out.__dict__.update(vol=vol, j=j, j2=j2, e2=e2)
        return out

    def __add__(self, other: "IntegralClass") -> "IntegralClass":
        if not isinstance(other, IntegralClass):
            return NotImplemented
        return IntegralClass._of(self.vol + other.vol, self.j + other.j,
                                 self.j2 + other.j2, self.e2 + other.e2)

    def __sub__(self, other: "IntegralClass") -> "IntegralClass":
        if not isinstance(other, IntegralClass):
            return NotImplemented
        return IntegralClass._of(self.vol - other.vol, self.j - other.j,
                                 self.j2 - other.j2, self.e2 - other.e2)

    def scale(self, c) -> "IntegralClass":
        c = _as_fraction(c)
        return IntegralClass._of(c * self.vol, c * self.j, c * self.j2, c * self.e2)

    def as_strings(self) -> dict:
        return {"Vol": str(self.vol), "intJ": str(self.j),
                "intJ2": str(self.j2), "intE2": str(self.e2)}


def _lowest(n: int, num: tuple, den: int) -> "Jet":
    """Jet of slot numerators over den > 0, reduced to lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num, den = tuple(c // g for c in num), den // g
    return Jet._of(n, num, den)


class Jet:
    """Even truncated series  c0 + c2 r^2 + c4 r^4  over (J, A2, E2, LapJ).

    Stored as six integers `num` over one positive denominator `den`, in
    lowest terms: the coefficients of the slot monomials 1, J, J^2, A2, E2
    and LapJ.  The boundary dimension n is part of the ring: arithmetic
    between jets of different n is rejected.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, terms: Mapping[tuple, int | Fraction]):
        if type(n) is not int or n < 3:
            raise ValueError(f"Jet requires an int n >= 3, got {n!r}")
        slots = [Fraction(0)] * 6
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != 4 or not all(type(e) is int and e >= 0 for e in mono):
                raise ValueError(f"bad monomial {mono}: need 4 non-negative int exponents")
            if mono not in _SLOT:
                weight = 2 * mono[0] + 4 * sum(mono[1:])
                raise ValueError(
                    f"monomial {_mono_name(mono)} {mono} of weight {weight} beyond the "
                    f"r^{JET_ORDER} truncation: a jet holds 1, J, J^2, A2, E2 and LapJ only")
            slots[_SLOT[mono]] = _as_fraction(c)
        # each slot is in lowest terms, so over the lcm of their denominators
        # the seven integers have no common factor
        den = lcm(*(v.denominator for v in slots))
        self.n = n
        self.num = tuple(v.numerator * (den // v.denominator) for v in slots)
        self.den = den

    @classmethod
    def _of(cls, n: int, num: tuple, den: int) -> "Jet":
        """Jet on slots in lowest terms that operations produced, not re-checked."""
        jet = object.__new__(cls)
        jet.n = n
        jet.num = num
        jet.den = den
        return jet

    def _check(self, other: "Jet"):
        if self.n != other.n:
            raise ValueError(f"mixed rings: n={self.n} vs n={other.n}")

    def _sum(self, other: "Jet", sign: int) -> "Jet":
        self._check(other)
        da, db = self.den, other.den
        return _lowest(self.n, tuple(a * db + sign * b * da
                                     for a, b in zip(self.num, other.num)), da * db)

    def __add__(self, other: "Jet") -> "Jet":
        if not isinstance(other, Jet):
            return NotImplemented
        return self._sum(other, 1)

    def __sub__(self, other: "Jet") -> "Jet":
        if not isinstance(other, Jet):
            return NotImplemented
        return self._sum(other, -1)

    def __mul__(self, other: "Jet") -> "Jet":
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        a0, a1, a11, a2, a3, a4 = self.num
        b0, b1, b11, b2, b3, b4 = other.num
        return _lowest(self.n, (a0 * b0, a0 * b1 + a1 * b0, a0 * b11 + a1 * b1 + a11 * b0,
                                a0 * b2 + a2 * b0, a0 * b3 + a3 * b0, a0 * b4 + a4 * b0),
                       self.den * other.den)

    def scale(self, c) -> "Jet":
        c = _as_fraction(c)
        p = c.numerator
        return _lowest(self.n, tuple(p * v for v in self.num), c.denominator * self.den)

    def invert(self) -> "Jet":
        """Reciprocal series; requires leading coefficient exactly 1.

        (1 + x r^2 + y r^4)^{-1} = 1 - x r^2 + (x^2 - y) r^4, over d^2.
        """
        a0, a1, a11, a2, a3, a4 = self.num
        d = self.den
        if a0 != d:
            raise ValueError("invert requires unit leading coefficient")
        return _lowest(self.n, (d * d, -d * a1, a1 * a1 - d * a11, -d * a2, -d * a3, -d * a4),
                       d * d)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Jet) and self.n == other.n and self.den == other.den
                and self.num == other.num)

    def coefficient(self, r_power: int) -> dict:
        """The nonzero slots of the r^{r_power} coefficient, {monomial: Fraction}."""
        _check_order(r_power)
        d = self.den
        return {mono: Fraction(c, d) for mono, c, order
                in zip(_SLOT_MONOS, self.num, _SLOT_ORDER) if c and order == r_power}

    def integral(self, r_power: int) -> IntegralClass:
        """Integral of the r^{r_power} coefficient over the closed boundary.

        int LapJ = 0, and A2 = E2/(n-2)^2 + J^2/n pointwise.
        """
        _check_order(r_power)
        n, d = self.n, self.den
        c0, c1, c11, c2, c3, _ = self.num
        zero = Fraction(0)
        if r_power == 0:
            return IntegralClass._of(Fraction(c0, d), zero, zero, zero)
        if r_power == 2:
            return IntegralClass._of(zero, Fraction(c1, d), zero, zero)
        m = (n - 2) ** 2
        return IntegralClass._of(zero, zero, Fraction(n * c11 + c2, n * d),
                                 Fraction(m * c3 + c2, m * d))

    def __repr__(self):
        def terms(k):
            return " + ".join(f"{c}*{_mono_name(mono)}" if any(mono) else str(c)
                              for mono, c in self.coefficient(k).items()) or "0"
        return " + ".join(f"({terms(k)}) r^{k}" for k in range(0, JET_ORDER + 1, 2))


def expand_normal_form(n: int) -> dict:
    """Order-r^4 jets of the normal-form expansion for boundary dimension n.

    det_jet  sqrt(det g_r/det g0) = 1 - (J/2) r^2 + (1/8)(J^2 - A2) r^4
    h_jet    mean curvature of the level sets, n + J r^2 + (A2/2) r^4
    v_jet    r V = 1 + (J/2n) r^2 + v4 r^4 with
             v4 = (LapJ - J^2 + n A2) / (8n(n-2))

    With g_r = g0 (I - A r^2 + g4 r^4) in the normal form, these are the
    closed forms of sqrt(det) and of n - (r/2) tr(g_r^{-1} d_r g_r) on the
    trace data tr A = J, tr A^2 = A2 and tr g4 = A2/4.
    `tests/test_jet_algebra.py` checks det_jet and h_jet against the
    determinant of explicit matrices with that trace data.  Each jet is
    written in its slots (1, J, J^2, A2, E2, LapJ) over one denominator,
    already in lowest terms.
    """
    if type(n) is not int or n < 5:
        raise ValueError(f"expansion requires an int n >= 5 (the (n+1)/(n-3) weight), "
                         f"got {n!r}")
    m = 8 * n * (n - 2)
    return {"det_jet": Jet._of(n, (8, -4, 1, -1, 0, 0), 8),
            "h_jet": Jet._of(n, (2 * n, 2, 0, 1, 0, 0), 2),
            "v_jet": Jet._of(n, (m, 4 * (n - 2), -1, n, 0, 1), m)}


# ---------------------------------------------------------------------------
# Order-r^4 certificate
# ---------------------------------------------------------------------------

@dataclass
class Prop21Certificate:
    """Exact-arithmetic certificate of the r^4 coefficient chain.

    alpha is the r^4 coefficient of n r (V/H_r) as {monomial: Fraction};
    alpha1/alpha2 are the r^2 and r^4 integral coefficients of the surface
    integral, beta1/beta2 those of the enclosed volume integral (with the
    radial weights (n+1)/(n-1) and (n+1)/(n-3) from integrating
    t^{-n-2+2j}), and beta = alpha2 - beta2 is the defect class.  Passing
    means exact equality of rationals.
    """

    n: int
    alpha: dict
    alpha1: IntegralClass
    alpha2: IntegralClass
    beta1: IntegralClass
    beta2: IntegralClass
    beta: IntegralClass
    passed: dict
    detail: dict

    @property
    def ok(self) -> bool:
        return all(self.passed.values())

    def to_dict(self) -> dict:
        """JSON-ready payload: every rational as its string."""
        return {
            "n": self.n,
            "alpha": {str(mono): str(c) for mono, c in sorted(self.alpha.items())},
            "alpha1": self.alpha1.as_strings(),
            "alpha2": self.alpha2.as_strings(),
            "beta1": self.beta1.as_strings(),
            "beta2": self.beta2.as_strings(),
            "beta": self.beta.as_strings(),
            "passed": dict(self.passed),
            "ok": self.ok,
            "detail": dict(self.detail),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def verify_prop21(n: int) -> Prop21Certificate:
    """Certify the asymptotic Heintze-Karcher coefficient chain at order r^4."""
    jets = expand_normal_form(n)
    det_jet, h_jet, v_jet = jets["det_jet"], jets["h_jet"], jets["v_jet"]

    # n r (V/H_r) = v_jet * (h_jet/n)^{-1} = 1 - (J/2n) r^2 + alpha r^4
    surf_series = v_jet * h_jet.scale(Fraction(1, n)).invert()
    alpha = surf_series.coefficient(4)
    # alpha in closed form: v4 + (J^2 - n A2)/(2n^2), slots in lowest terms
    alpha_direct = (v_jet + Jet._of(n, (0, 0, 1, -n, 0, 0), 2 * n * n)).coefficient(4)
    passed = {"alpha_formula": alpha == alpha_direct,
              "surface_r2": surf_series.coefficient(2) == {_J: Fraction(-1, 2 * n)}}

    # surface integrand (V/H) sqrt(det): r^{-n-1}/n (1 + sigma2 r^2 + sigma4 r^4)
    surf_integrand = surf_series * det_jet
    alpha1 = surf_integrand.integral(2)
    alpha2 = surf_integrand.integral(4)

    # volume integrand V sqrt(det) = r^{-1}(1 + m2 r^2 + m4 r^4); integrating
    # t^{-n-2+2j} puts the weight (n+1)/(n+1-2j) on the r^{2j} coefficient
    vol_integrand = v_jet * det_jet
    beta1 = vol_integrand.integral(2).scale(Fraction(n + 1, n - 1))
    beta2 = vol_integrand.integral(4).scale(Fraction(n + 1, n - 3))

    expected_a1 = IntegralClass(j=Fraction(-(n + 1), 2 * n))
    beta = alpha2 - beta2
    expected_beta = IntegralClass(e2=Fraction(1, n * (n - 2) ** 3))
    passed.update({
        "alpha1_value": alpha1 == expected_a1,
        "alpha1_eq_beta1": alpha1 == beta1,
        "j2_cancellation": beta.j2 == 0,
        "j_cancellation": beta.j == 0 and beta.vol == 0,
        "beta_value": beta == expected_beta,
    })
    detail = {}
    if not passed["beta_value"]:
        detail["beta_e2"] = (str(beta.e2), str(expected_beta.e2))
    if not passed["alpha1_eq_beta1"]:
        detail["alpha1_vs_beta1"] = (alpha1.as_strings(), beta1.as_strings())
    return Prop21Certificate(n=n, alpha=alpha, alpha1=alpha1, alpha2=alpha2,
                             beta1=beta1, beta2=beta2, beta=beta,
                             passed=passed, detail=detail)
