"""Exact-rational truncated power series over formal boundary-curvature scalars.

Everything in the order-r^4 expansion of the geodesic normal form of a
conformally compact Einstein metric reduces, after taking traces, to the four
boundary scalars

    J     the Schouten trace (scalar curvature / (2(n-1)))
    A2    |A|^2, the squared norm of the Schouten tensor
    E2    |E|^2, the squared norm of its trace-free part
    LapJ  the boundary Laplacian of J

with exact rational coefficients once the boundary dimension n is fixed.
`Poly` is a sparse multivariate polynomial over these symbols, `Jet` an even
power series in the defining function r with Poly coefficients, truncated at
r^4, and `IntegralClass` the result of integrating a Poly over the closed
boundary (the Laplacian term drops, A2 splits into E2/(n-2)^2 + J^2/n, and the
surviving channels are Vol, int J, int J^2, int E2).

The public constructors are the only gates: `Poly(n, terms)`, `Poly.constant`
and `Poly.symbol` check the ring dimension (an int n >= 3), every monomial
(four non-negative int exponents) and every coefficient (int or Fraction, not
bool); `Jet(n, coeffs)` checks n the same way and refuses a coefficient of
another ring; `IntegralClass` takes exact fields only.  An operand of
another type gets `NotImplemented` from every ring operator, so Python
raises the usual `TypeError` naming both types.  The ring operations
(`+`, `-`, `*`, `scale`, `Jet` products and `invert`) build their results
through a private constructor from terms they produced themselves, which are
already pruned of zeros and have valid monomials, so no result is checked a
second time.

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
from math import comb
from typing import Mapping

SYMBOLS = ("J", "A2", "E2", "LapJ")
_IDX = {name: i for i, name in enumerate(SYMBOLS)}
_ZERO_MONO = (0, 0, 0, 0)

JET_ORDER = 4  # truncation at r^4 throughout; O(r^5) is never represented


class UnsupportedIntegralError(ValueError):
    """An integrand falls outside the closed-boundary reduction rules."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(x).__name__}")


def _mul_into(acc: dict, p: dict, q: dict) -> dict:
    """acc += p * q on term dicts; cancelled terms stay in acc as zeros."""
    for (a0, a1, a2, a3), c1 in p.items():
        for (b0, b1, b2, b3), c2 in q.items():
            mono, c = (a0 + b0, a1 + b1, a2 + b2, a3 + b3), c1 * c2
            acc[mono] = acc[mono] + c if mono in acc else c
    return acc


def _pruned(terms: dict) -> dict:
    return {mono: c for mono, c in terms.items() if c}


class Poly:
    """Sparse polynomial over (J, A2, E2, LapJ) with Fraction coefficients.

    The boundary dimension n is part of the ring: arithmetic between
    polynomials of different n is rejected.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, Fraction] | None = None):
        if type(n) is not int or n < 3:
            raise ValueError(f"Poly requires an int n >= 3, got {n!r}")
        self.n = n
        pruned = {}
        for mono, c in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != 4 or not all(type(e) is int and e >= 0 for e in mono):
                raise ValueError(f"bad monomial {mono}: need 4 non-negative int exponents")
            c = _as_fraction(c)
            if c:
                pruned[mono] = c
        self.terms = pruned

    # -- constructors ------------------------------------------------------
    @classmethod
    def _of(cls, n: int, terms: dict) -> "Poly":
        """Poly on terms a ring operation produced: pruned, valid, not re-checked."""
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {_ZERO_MONO: _as_fraction(c)})

    @classmethod
    def symbol(cls, n: int, name: str, power: int = 1) -> "Poly":
        if name not in _IDX:
            raise ValueError(f"unknown symbol {name!r}; SYMBOLS = {SYMBOLS}")
        mono = [0, 0, 0, 0]
        mono[_IDX[name]] = power
        return cls(n, {tuple(mono): Fraction(1)})

    # -- ring operations ---------------------------------------------------
    def _check(self, other: "Poly"):
        if self.n != other.n:
            raise ValueError(f"mixed rings: n={self.n} vs n={other.n}")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out[mono] + c if mono in out else c
        return Poly._of(self.n, _pruned(out))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + Poly._of(other.n, {m: -c for m, c in other.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return Poly._of(self.n, _pruned(_mul_into({}, self.terms, other.terms)))

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if not c:
            return Poly._of(self.n, {})
        return Poly._of(self.n, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: tuple) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = [str(c)]
            for name, e in zip(SYMBOLS, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


class Jet:
    """Even truncated series  c0 + c2 r^2 + c4 r^4  with Poly coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: list):
        if type(n) is not int or n < 3:
            raise ValueError(f"Jet requires an int n >= 3, got {n!r}")
        if len(coeffs) != JET_ORDER // 2 + 1:
            raise ValueError(f"need {JET_ORDER // 2 + 1} coefficients for order {JET_ORDER}")
        for c in coeffs:
            if isinstance(c, Poly) and c.n != n:
                raise ValueError(f"coefficient of the n={c.n} ring in a jet of n={n}")
        self.n = n
        self.coeffs = [c if isinstance(c, Poly) else Poly.constant(n, c) for c in coeffs]

    @classmethod
    def _of(cls, n: int, coeffs: list) -> "Jet":
        """Jet on Polys of ring n that ring operations produced, not re-checked."""
        jet = object.__new__(cls)
        jet.n = n
        jet.coeffs = coeffs
        return jet

    def _check(self, other: "Jet"):
        if self.n != other.n:
            raise ValueError("mixed rings")

    def __add__(self, other: "Jet") -> "Jet":
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return Jet._of(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Jet") -> "Jet":
        if not isinstance(other, Jet):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other: "Jet") -> "Jet":
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        a = [p.terms for p in self.coeffs]
        b = [p.terms for p in other.coeffs]
        out = []
        for k in range(len(a)):
            acc = {}
            for i in range(k + 1):
                _mul_into(acc, a[i], b[k - i])
            out.append(Poly._of(self.n, _pruned(acc)))
        return Jet._of(self.n, out)

    def scale(self, c) -> "Jet":
        return Jet._of(self.n, [p.scale(c) for p in self.coeffs])

    def invert(self) -> "Jet":
        """Reciprocal series; requires leading coefficient exactly 1."""
        if self.coeffs[0].terms != {_ZERO_MONO: 1}:
            raise ValueError("invert requires unit leading coefficient")
        inv = [{_ZERO_MONO: Fraction(1)}]
        for i in range(1, len(self.coeffs)):
            acc = {}
            for j in range(1, i + 1):
                _mul_into(acc, self.coeffs[j].terms, inv[i - j])
            inv.append({mono: -c for mono, c in acc.items() if c})
        return Jet._of(self.n, [Poly._of(self.n, t) for t in inv])

    def __eq__(self, other) -> bool:
        return isinstance(other, Jet) and self.n == other.n and self.coeffs == other.coeffs

    def coefficient(self, r_power: int) -> Poly:
        if r_power % 2 or not 0 <= r_power <= JET_ORDER:
            raise ValueError(f"no r^{r_power} coefficient at order {JET_ORDER}")
        return self.coeffs[r_power // 2]

    def __repr__(self):
        return " + ".join(f"({p}) r^{2 * i}" for i, p in enumerate(self.coeffs))


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
    determinant of explicit matrices with that trace data.
    """
    if n < 5:
        raise ValueError("expansion requires n >= 5 (the (n+1)/(n-3) weight)")
    J = Poly.symbol(n, "J")
    A2 = Poly.symbol(n, "A2")
    LapJ = Poly.symbol(n, "LapJ")

    det_jet = Jet(n, [Poly.constant(n, 1), J.scale(Fraction(-1, 2)),
                      (J * J - A2).scale(Fraction(1, 8))])
    h_jet = Jet(n, [Poly.constant(n, n), J, A2.scale(Fraction(1, 2))])
    v4 = (LapJ - J * J + A2.scale(n)).scale(Fraction(1, 8 * n * (n - 2)))
    v_jet = Jet(n, [Poly.constant(n, 1), J.scale(Fraction(1, 2 * n)), v4])
    return {"det_jet": det_jet, "h_jet": h_jet, "v_jet": v_jet}


# ---------------------------------------------------------------------------
# Closed-boundary integration
# ---------------------------------------------------------------------------

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

    def __add__(self, other: "IntegralClass") -> "IntegralClass":
        if not isinstance(other, IntegralClass):
            return NotImplemented
        return IntegralClass(self.vol + other.vol, self.j + other.j,
                             self.j2 + other.j2, self.e2 + other.e2)

    def __sub__(self, other: "IntegralClass") -> "IntegralClass":
        if not isinstance(other, IntegralClass):
            return NotImplemented
        return IntegralClass(self.vol - other.vol, self.j - other.j,
                             self.j2 - other.j2, self.e2 - other.e2)

    def scale(self, c) -> "IntegralClass":
        c = _as_fraction(c)
        return IntegralClass(c * self.vol, c * self.j, c * self.j2, c * self.e2)

    def as_strings(self) -> dict:
        return {"Vol": str(self.vol), "intJ": str(self.j),
                "intJ2": str(self.j2), "intE2": str(self.e2)}


# (J power, E2 power) of each channel monomial -> its IntegralClass field
_CHANNELS = {(0, 0): "vol", (1, 0): "j", (2, 0): "j2", (0, 1): "e2"}


def boundary_integral(p: Poly) -> IntegralClass:
    """Integrate a Poly over the closed boundary.

    Rules: int LapJ = 0 (divergence theorem; only a bare linear occurrence is
    admissible), then A2 -> E2/(n-2)^2 + J^2/n pointwise.  Monomials that do
    not land in {1, J, J^2, E2} raise UnsupportedIntegralError: those
    integrals are not expressible in the four channels and silently guessing
    zero would be wrong.
    """
    n = p.n
    # (J power, E2 power) -> coefficient, with A2^a expanded by the binomial
    # rule:  A2^a = sum_i C(a, i) (E2/(n-2)^2)^i (J^2/n)^(a-i)
    reduced: dict[tuple, Fraction] = {}
    for mono, c in p.terms.items():
        jp, a2p, e2p, lp = mono
        if lp:
            if lp == 1 and jp == a2p == e2p == 0:
                continue  # int LapJ = 0
            raise UnsupportedIntegralError(
                f"LapJ occurs in a product ({mono}); int of that is not zero in general"
            )
        for i in range(a2p + 1):
            key = (jp + 2 * (a2p - i), e2p + i)
            term = c * Fraction(comb(a2p, i), (n - 2) ** (2 * i) * n ** (a2p - i))
            reduced[key] = reduced[key] + term if key in reduced else term
    channels = {}
    for (jp, e2p), c in reduced.items():
        if not c:
            continue
        if (jp, e2p) not in _CHANNELS:
            raise UnsupportedIntegralError(
                f"monomial {(jp, 0, e2p, 0)} outside the channel set")
        channels[_CHANNELS[jp, e2p]] = c
    return IntegralClass(**channels)


# ---------------------------------------------------------------------------
# Order-r^4 certificate
# ---------------------------------------------------------------------------

@dataclass
class Prop21Certificate:
    """Exact-arithmetic certificate of the r^4 coefficient chain.

    alpha is the r^4 coefficient of n r (V/H_r); alpha1/alpha2 are the r^2 and
    r^4 integral coefficients of the surface integral, beta1/beta2 those of
    the enclosed volume integral (with the radial weights (n+1)/(n-1) and
    (n+1)/(n-3) from integrating t^{-n-2+2j}), and beta = alpha2 - beta2 is
    the defect class.  Passing means exact equality of rationals.
    """

    n: int
    alpha: Poly
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

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "n": self.n,
            "alpha": {str(mono): str(c) for mono, c in sorted(self.alpha.terms.items())},
            "alpha1": self.alpha1.as_strings(),
            "alpha2": self.alpha2.as_strings(),
            "beta1": self.beta1.as_strings(),
            "beta2": self.beta2.as_strings(),
            "beta": self.beta.as_strings(),
            "passed": self.passed,
            "ok": self.ok,
            "detail": self.detail,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def verify_prop21(n: int) -> Prop21Certificate:
    """Certify the asymptotic Heintze-Karcher coefficient chain at order r^4."""
    jets = expand_normal_form(n)
    det_jet, h_jet, v_jet = jets["det_jet"], jets["h_jet"], jets["v_jet"]
    J = Poly.symbol(n, "J")
    A2 = Poly.symbol(n, "A2")

    # n r (V/H_r) = v_jet * (h_jet/n)^{-1} = 1 - (J/2n) r^2 + alpha r^4
    surf_series = v_jet * h_jet.scale(Fraction(1, n)).invert()
    alpha = surf_series.coefficient(4)
    v4 = v_jet.coefficient(4)
    alpha_direct = v4 - A2.scale(Fraction(1, 2 * n)) + (J * J).scale(Fraction(1, 2 * n ** 2))
    passed = {"alpha_formula": alpha == alpha_direct,
              "surface_r2": surf_series.coefficient(2) == J.scale(Fraction(-1, 2 * n))}

    # surface integrand (V/H) sqrt(det): r^{-n-1}/n (1 + sigma2 r^2 + sigma4 r^4)
    surf_integrand = surf_series * det_jet
    alpha1 = boundary_integral(surf_integrand.coefficient(2))
    alpha2 = boundary_integral(surf_integrand.coefficient(4))

    # volume integrand V sqrt(det) = r^{-1}(1 + m2 r^2 + m4 r^4); integrating
    # t^{-n-2+2j} puts the weight (n+1)/(n+1-2j) on the r^{2j} coefficient
    vol_integrand = v_jet * det_jet
    beta1 = boundary_integral(vol_integrand.coefficient(2)).scale(Fraction(n + 1, n - 1))
    beta2 = boundary_integral(vol_integrand.coefficient(4)).scale(Fraction(n + 1, n - 3))

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
