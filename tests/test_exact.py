"""The exact module against sympy: numbers of Q(sqrt 10) and their nearest
floats, Sturm root counts, and the polynomials behind criteria 8 and 9; and
the module's import boundary."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import homcommon.exact
from homcommon.commonness import P_DIAMOND_PAIR
from homcommon.exact import (P_DIAMOND_EXACT, Poly, QSqrt10, _balance_root, _sign,
                             _sturm_count, appendix_convexity_verify, dk3k2_verify)
from homcommon.graphs import make_family

X, Y = sympy.symbols("x y")
SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _sympy(c) -> sympy.Expr:
    """An exact coefficient as sympy reads its one string form."""
    return sympy.sympify(str(c))


def _sympy_poly(p: Poly) -> sympy.Expr:
    return sum(_sympy(c) * X**i for i, c in enumerate(p))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=7), SMALL, SMALL)
def test_sturm_count_matches_sympy(coefficients, lo, hi):
    assume(any(coefficients) and lo < hi)
    p = Poly(map(Fraction, coefficients))
    # sympy counts the closed interval: ends that are roots are left out
    assume(p(lo) and p(hi))
    reference = sympy.Poly(list(reversed(coefficients)), X).count_roots(lo, hi)
    assert _sturm_count(p, lo, hi) == reference


@settings(max_examples=50, deadline=None)
@given(SMALL, SMALL, SMALL, SMALL)
def test_q_sqrt10_arithmetic_and_sign_match_sympy(a, b, c, d):
    u, v = QSqrt10(a, b), QSqrt10(c, d)
    su, sv = _sympy(u), _sympy(v)
    assert _sign(u) == sympy.sign(su)
    pairs = [(u + v, su + sv), (u - v, su - sv), (u * v, su * sv)]
    for exact, reference in pairs + ([(u / v, su / sv)] if v else []):
        assert sympy.expand(sympy.radsimp(_sympy(exact) - reference)) == 0


def test_exact_p_rounds_to_the_float_threshold():
    p = (8 - 2 * sympy.sqrt(10)) / 3
    assert sympy.simplify(_sympy(P_DIAMOND_EXACT) - p) == 0
    assert float(sympy.N(p, 50)) == P_DIAMOND_PAIR == 0.5584815598877471
    assert float(P_DIAMOND_EXACT) == P_DIAMOND_PAIR


def test_exact_p_solves_the_girth_balance():
    # the (diamond, K3+K2) girth balance: two triangles in 5 edges against one in 4
    p = P_DIAMOND_EXACT
    both = QSqrt10(Fraction(13, 20), Fraction(1, 5))
    assert 2 / (5 * p**2) == 1 / (4 * (1 - p) ** 2) == both
    assert _balance_root((2, 5), (1, 4), 2) == P_DIAMOND_PAIR == 0.5584815598877471


@settings(max_examples=300, deadline=None)
@given(st.integers(-999, 999), st.integers(1, 99), st.integers(-999, 999),
       st.integers(1, 99), st.booleans())
def test_float_of_q_sqrt10_is_the_nearest_float(a, da, b, db, rational):
    u = QSqrt10(Fraction(a, da), Fraction(0) if rational else Fraction(b, db))
    assert float(u) == float(sympy.N(_sympy(u), 50))


def test_float_of_q_sqrt10_rounds_the_report_numbers():
    rep = dk3k2_verify()
    for x in (P_DIAMOND_EXACT, rep["threshold"], rep["crossover"]):
        assert float(x) == float(sympy.N(_sympy(x), 50))


def test_exact_imports_only_the_standard_library_and_graphs():
    tree = ast.parse(Path(homcommon.exact.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    outside = {name for name in imported
               if name != ".graphs" and name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"exact imports {sorted(outside)}"


def test_dk3k2_polynomials_match_sympy():
    p = (8 - 2 * sympy.sqrt(10)) / 3
    a, b = p + X, 1 - p - X
    f = (a**3 + Y) ** 2 / (5 * p**4 * a) + b * (b**3 - Y) / (4 * (1 - p) ** 3)
    y0 = a * (2 * a - 1) - a**3
    y1 = 5 * (1 - a) * a * p**4 / (8 * (1 - p) ** 3) - a**3
    threshold = (7 + 2 * sympy.sqrt(10)) / 60
    rep = dk3k2_verify()
    assert sympy.simplify(_sympy(rep["threshold"]) - threshold) == 0
    assert sympy.simplify(_sympy(rep["crossover"]) - (-425 + 140 * sympy.sqrt(10)) / 246) == 0
    assert sympy.simplify(_sympy_poly(rep["y1_minus_y0"]) - (y1 - y0)) == 0
    for y, name in ((y0, "g0_minus_threshold"), (y1, "g1_minus_threshold")):
        expected = sympy.expand(sympy.cancel(f.subs(Y, y) - threshold))
        assert sympy.simplify(_sympy_poly(rep[name]) - expected) == 0


@pytest.mark.parametrize("f, args", [
    (make_family("complete", 3), (1, 1, 0, 0)),
    (make_family("cycle", 5), (2, 2, 1, 1)),
    (make_family("cycle", 5), (1, 2, 0, 0)),
    (make_family("cycle", 5), (2, 1, 0, 0)),
], ids=["K3", "C5 pentagon+square", "C5 (1, 2)", "C5 (2, 1)"])
def test_convexity_numerators_match_the_sympy_minimum_over_y(f, args):
    k1, k2, l1, l2 = args
    p1 = p2 = sympy.Rational(1, 2)
    ef = f.edge_count
    e1, e2 = k1 * ef - l1, k2 * ef - l2
    a, b = p1 + X, p2 - X
    objective = ((a**ef - Y) ** k1 / (a**l1 * e1 * p1 ** (e1 - 1))
                 + (b**ef + Y) ** k2 / (b**l2 * e2 * p2 ** (e2 - 1)))
    stationary = sympy.solve(sympy.diff(objective, Y), Y)
    minimum = objective.subs(Y, stationary[0] if stationary else 0)
    rep = appendix_convexity_verify(f, *args, Fraction(1, 2))
    excess = _sympy_poly(rep["excess_numerator"]) / _sympy_poly(rep["excess_denominator"])
    assert sympy.cancel(minimum - (p1 / e1 + p2 / e2) - excess) == 0
