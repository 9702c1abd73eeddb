"""Exact verdicts: the balance equation, the girth obstruction, numbers of
Q(√10) with polynomials over them and Sturm root counts, and the two exact
verifiers built on them.

`_balance` is the one balance-equation check, shared by pair
certification, the convexity conditions, the girth obstruction and the
convexity verifier: a `Fraction` p1 is decided exactly, a float p1 within
`BALANCE_TOL`; `_balance_root` is its float root, which pair certification
derives its p1 from.  The diamond / K3+K2 threshold verification
(`dk3k2_verify`) builds polynomials (`Poly`) over Q(√10) (`QSqrt10`), and
the convexity verifier (`appendix_convexity_verify`) over Q; each decides
its claims by exact signs and Sturm root counts, and takes only the inputs
its claims read: edge counts and girths are derived from the graphs, and
nothing is sampled.  `float()` of a `QSqrt10` is the float nearest it.

This module imports only the standard library and `graphs`; the float side
(gaps, sampled suites, pair certification and the falsifier) lives in
`commonness`, which reads its exact numbers from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .graphs import BALANCE_TOL, Graph, girth_and_cycle_count


def _convexity_edges(ef: int, k: int, l: int) -> int:
    """e_i = k_i ef - l_i, the edge count that convexity data (k_i, l_i) ties
    to e(f) = ef; refused but for k_i >= 1 and l_i >= 0."""
    if k < 1 or l < 0:
        raise ValueError("k_i >= 1 and l_i >= 0 are required")
    return k * ef - l


def _balance(a1: tuple[int, int], a2: tuple[int, int], n: int,
             p1: float | Fraction) -> tuple[float | Fraction, bool]:
    """Decide the balance equation c1/(d1 p1^n) = c2/(d2 p2^n), p2 = 1 - p1,
    for a_i = (c_i, d_i).

    Returns (lhs - rhs, holds).  A `Fraction` p1 is decided exactly; a float
    p1 holds within BALANCE_TOL relative to the larger side (absolute when
    both sides are at most 1).
    """
    (c1, d1), (c2, d2) = a1, a2
    lhs = c1 / (d1 * p1 ** n)
    rhs = c2 / (d2 * (1 - p1) ** n)
    if isinstance(p1, Fraction):
        return lhs - rhs, lhs == rhs
    return lhs - rhs, abs(lhs - rhs) <= BALANCE_TOL * max(1.0, abs(lhs), abs(rhs))


def _balance_root(a1: tuple[int, int], a2: tuple[int, int], n: int) -> float:
    """The float p1 at which `_balance(a1, a2, n, p1)` holds, for positive a_i:
    ((1 - p1)/p1)^n = c2 d1 / (c1 d2), so p1 = 1 / (1 + (c2 d1 / (c1 d2))^(1/n))."""
    (c1, d1), (c2, d2) = a1, a2
    return 1.0 / (1.0 + (c2 * d1 / (c1 * d2)) ** (1.0 / n))


def girth_obstruction(h1: Graph, h2: Graph, p1) -> bool:
    """Necessary balance condition for a pair of common odd girth m:
    c_m(h1)/(e(h1) p1^(m-1)) = c_m(h2)/(e(h2) p2^(m-1)), with c_m the
    number of m-cycles.

    m is read from the graphs (`girth_and_cycle_count`); different girths,
    a forest, or an even girth are refused.  At even girth the condition is
    not necessary: C4 is Sidorenko, so (C4, C4) is (p1, p2)-common for every
    p1, balanced or not.  False proves (h1, h2) is not (p1, p2)-common.
    Decided by `_balance`: exactly for a `Fraction` p1, within its relative
    tolerance for a float.
    """
    m, c1 = girth_and_cycle_count(h1)
    g2, c2 = girth_and_cycle_count(h2)
    if m != g2 or m == math.inf:
        raise ValueError(f"the graphs must share a finite girth, not {m} and {g2}")
    if m % 2 == 0:
        raise ValueError(f"the common girth {m} is even; the obstruction needs an odd girth")
    if not 0 < p1 < 1:
        raise ValueError("p1 must lie in (0, 1)")
    return _balance((c1, h1.edge_count), (c2, h2.edge_count), m - 1, p1)[1]


# ---------------------------------------------------------------------------
# Exact algebra: numbers of Q(√10), polynomials over them, Sturm counts


def _q10(v) -> QSqrt10:
    return v if isinstance(v, QSqrt10) else QSqrt10(Fraction(v))


@dataclass(frozen=True)
class QSqrt10:
    """The number a + b√10, with `Fraction` parts a and b."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __add__(self, other):
        o = _q10(other)
        return QSqrt10(self.a + o.a, self.b + o.b)

    def __mul__(self, other):
        o = _q10(other)
        return QSqrt10(self.a * o.a + 10 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __truediv__(self, other):
        o = _q10(other)
        norm = o.a * o.a - 10 * o.b * o.b  # zero only for o = 0: √10 is irrational
        return self * QSqrt10(o.a / norm, -o.b / norm)

    def __rtruediv__(self, other):
        return _q10(other) / self

    def __neg__(self):
        return QSqrt10(-self.a, -self.b)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n: int):
        return math.prod((self,) * n, start=QSqrt10(Fraction(1)))

    def __bool__(self):
        return bool(self.a or self.b)

    def __gt__(self, other):
        """The sign of a + b√10 is that of a when a² > 10 b², else that of b."""
        d = self - other
        return (d.a if d.a * d.a > 10 * d.b * d.b else d.b) > 0

    def __lt__(self, other):
        return _q10(other) > self

    def __float__(self):
        """The nearest float: the float sum of the parts, stepped to a
        neighbour while the number lies beyond the midpoint to it.  With
        b ≠ 0 the number is irrational and meets no midpoint; with b = 0 the
        sum is `float(a)`, which is correctly rounded, ties to even."""
        x = float(self.a) + float(self.b) * math.sqrt(10.0)
        while self > (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2:
            x = math.nextafter(x, math.inf)
        while self < (Fraction(x) + Fraction(math.nextafter(x, -math.inf))) / 2:
            x = math.nextafter(x, -math.inf)
        return x

    def __str__(self):
        """One string form, such as "79/50 + 1/2*sqrt(10)", which sympy parses."""
        sign = "-" if self.b < 0 else "+"
        return f"{self.a} {sign} {abs(self.b)}*sqrt(10)" if self.b else str(self.a)


# exact threshold probability for the diamond / K3+K2 pair: (8 - 2√10)/3
P_DIAMOND_EXACT = QSqrt10(Fraction(8, 3), Fraction(-2, 3))


class Poly(tuple):
    """A polynomial as its coefficient tuple, constant term first, with no
    trailing zeros; its coefficients are `Fraction`s or `QSqrt10`s."""

    def __new__(cls, coefficients=()):
        c = list(coefficients)
        while c and not c[-1]:
            c.pop()
        return super().__new__(cls, c)

    def __add__(self, other):
        other = other if isinstance(other, Poly) else (other,)
        return Poly(s + t for s, t in zip_longest(self, other, fillvalue=0))

    def __mul__(self, other):
        other = other if isinstance(other, Poly) else (other,)
        out = [0] * max(len(self) + len(other) - 1, 0)
        for i, s in enumerate(self):
            for j, t in enumerate(other):
                out[i + j] += s * t
        return Poly(out)

    def __neg__(self):
        return Poly(-c for c in self)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n: int):
        return math.prod((self,) * n, start=Poly((Fraction(1),)))

    def __divmod__(self, other):
        """Quotient and remainder by a non-zero polynomial."""
        quotient, rest = [0] * max(len(self) - len(other) + 1, 0), list(self)
        for i in reversed(range(len(quotient))):
            quotient[i] = rest[i + len(other) - 1] / other[-1]
            for j, t in enumerate(other):
                rest[i + j] -= quotient[i] * t
        return Poly(quotient), Poly(rest)

    def __call__(self, x):
        value = 0
        for c in reversed(self):
            value = value * x + c
        return value

    def derivative(self) -> Poly:
        return Poly(i * c for i, c in enumerate(self) if i)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sturm_count(p: Poly, lo, hi) -> int:
    """The number of distinct roots of a non-zero p in (lo, hi]."""
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-divmod(chain[-2], chain[-1])[1])
    # divided by gcd(p, p'), the chain keeps its sign changes at multiple roots
    chain = [divmod(q, chain[-2])[0] for q in chain[:-1]]

    def changes(x):
        signs = [s for s in (_sign(q(x)) for q in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


def _sign_between(p: Poly, lo, hi) -> int:
    """The one sign of p on the open interval (lo, hi), or 0 if p has a root there."""
    if _sturm_count(p, lo, hi) > (not p(hi)):
        return 0
    return _sign(p((lo + hi) / 2))


# ---------------------------------------------------------------------------
# (D, K3 u K2) threshold


def dk3k2_verify() -> dict:
    """Exact verification, in Q(√10), of the diamond / K3+K2 threshold argument.

    At p = (8 - 2√10)/3, with a = p + x and b = 1 - p - x, the objective
    f(x, y) = (a³ + y)²/(5 p⁴ a) + b (b³ - y)/(4 (1-p)³) along the curves
    y0 = a(2a - 1) - a³ and y1 = 5 (1-a) a p⁴/(8 (1-p)³) - a³ gives the
    polynomials g0 and g1 (a must divide (a³ + y)²).  With the threshold
    T = p/5 + (1-p)/4 = (7 + 2√10)/60, exact signs and Sturm counts decide
    that on the domain -p < x < 1-p: y1 - y0 has one root, the crossover
    (-425 + 140√10)/246, and is positive left of it; g1 - T > 0 on
    (-p, crossover] but at 0, where g1 = T; and g0 - T > 0.  Polynomials
    are reported as coefficient tuples, constant term first, beside p,
    the threshold and the crossover, with g0's minimum as floats at the
    critical point of the exact cubic.  Nothing is sampled here: the pair
    gap's sampled evidence at `commonness.P_DIAMOND_PAIR`, the float of p,
    is `commonness.min_pair_gap`'s, which `common pair-gap` and criterion 8
    run.
    """
    p = P_DIAMOND_EXACT
    q = 1 - p
    threshold = QSqrt10(Fraction(7, 60), Fraction(1, 30))
    crossover = QSqrt10(Fraction(-425, 246), Fraction(70, 123))
    zero = Fraction(0)
    a = Poly((p, Fraction(1)))  # p + x
    b = 1 - a
    y0 = a * (2 * a - 1) - a**3
    y1 = a * b * (5 * p**4 / (8 * q**3)) - a**3

    def minus_threshold(y: Poly) -> Poly:
        quotient, rest = divmod((a**3 + y) ** 2, a)
        if rest:
            raise ArithmeticError("a = p + x does not divide (a³ + y)²")
        return quotient * (1 / (5 * p**4)) + b * (b**3 - y) * (1 / (4 * q**3)) - threshold

    gap, g0, g1 = y1 - y0, minus_threshold(y0), minus_threshold(y1)
    # the root of g0' where g0'' = +sqrt(discriminant) > 0
    c0, c1, c2 = map(float, g0.derivative())
    g0_x = (math.sqrt(c1 * c1 - 4 * c2 * c0) - c1) / (2 * c2)
    report = {
        "p": p,
        "threshold": threshold,
        "crossover": crossover,
        "y1_minus_y0": gap,
        "g0_minus_threshold": g0,
        "g1_minus_threshold": g1,
        "y1_ge_y0_left_of_crossover": (not gap(crossover) and _sign_between(gap, -p, crossover) > 0
                                       and _sign_between(gap, crossover, q) < 0),
        "g1_clears_threshold_but_at_zero": (not g1(zero) and _sign_between(g1, -p, zero) > 0
                                            and _sign_between(g1, zero, crossover) > 0
                                            and g1(crossover) > 0),
        "g0_clears_threshold": _sign_between(g0, -p, q) > 0,
        "g0_min_x": g0_x,
        "g0_min_value": float(g0(Fraction(g0_x)) + threshold),
    }
    report["passed"] = (report["y1_ge_y0_left_of_crossover"]
                        and report["g1_clears_threshold_but_at_zero"]
                        and report["g0_clears_threshold"])
    return report


# ---------------------------------------------------------------------------
# Convexity verification


def appendix_convexity_verify(f: Graph, k1: int, k2: int, l1: int, l2: int,
                              p1: float) -> dict:
    """Decide, over Q, that the two-sided correlation objective
    (A - y)^k1 / u + (B + y)^k2 / v, minimised over real y, with
    A = (p1+x)^e(F), B = (p2-x)^e(F), u = (p1+x)^l1 e1 p1^(e1-1) and
    v = (p2-x)^l2 e2 p2^(e2-1), exceeds p1/e1 + p2/e2 on -p1 < x < p2 but
    at x = 0, where it equals it.

    e_i = k_i e(F) - l_i (k_i >= 1, l_i >= 0), which must be at least
    e(F).  p1 is read as the exact `Fraction(p1)`, which must balance exactly.
    For k_i in {1, 2}, the only cases covered, the minimum over y is
    (A+B)/u when k1 = k2 = 1 (then e_i >= e(F) forces l_i = 0, and balance
    gives u = v), (A+B)²/(u+v) when both are 2, and (A+B)/u - v/(4u²) for
    (k1, k2) = (1, 2), mirrored for (2, 1).  Exact signs and Sturm counts
    decide its numerator minus the expected value times its denominator,
    which is positive on the domain.  The Bernoulli boundary values, where
    one colour class saturates, must not fall below the expected value.
    """
    ef = f.edge_count
    p1 = Fraction(p1)
    p2 = 1 - p1
    if not 0 < p1 < 1:
        raise ValueError("p1 must lie in (0, 1)")
    e1, e2 = _convexity_edges(ef, k1, l1), _convexity_edges(ef, k2, l2)
    if e1 < ef or e2 < ef:
        raise ValueError("e(H_i) >= e(F) is required")
    if not {k1, k2} <= {1, 2}:
        raise ValueError("k_i must be 1 or 2")
    if not _balance((k1, e1), (k2, e2), ef - 1, p1)[1]:
        raise ValueError("the p-balance equation must hold exactly")
    zero = Fraction(0)
    a = Poly((p1, Fraction(1)))  # p1 + x
    b = 1 - a
    u = a**l1 * (e1 * p1 ** (e1 - 1))
    v = b**l2 * (e2 * p2 ** (e2 - 1))
    s = a**ef + b**ef
    if k1 == k2 == 1:
        numerator, denominator = s, u
    elif k1 == k2 == 2:
        numerator, denominator = s * s, u + v
    else:
        if k1 == 2:
            u, v = v, u
        numerator, denominator = 4 * u * s - v, 4 * u * u
    expected = p1 / e1 + p2 / e2
    excess = numerator - denominator * expected
    boundary = (1 / (e1 * p1 ** (e1 - 1)), 1 / (e2 * p2 ** (e2 - 1)))
    boundary_ok = min(boundary) >= expected
    return {
        "expected": expected,
        "min_value": numerator(zero) / denominator(zero),
        "excess_numerator": excess,
        "excess_denominator": denominator,
        "boundary_values": boundary,
        "boundary_ok": boundary_ok,
        "passed": (not excess(zero) and _sign_between(excess, -p1, zero) > 0
                   and _sign_between(excess, zero, p2) > 0 and boundary_ok),
    }
