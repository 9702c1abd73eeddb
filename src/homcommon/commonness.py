"""Gap evaluators and certifiers for common and (p1, p2)-common graph pairs.

Covers the weighted two-colour gap functional, the convexity-lemma
condition checker, template-based pair certification over odd cycles, the
balance-equation solver for simple cycle-trees, the girth obstruction, the
dedicated (D, K3 u K2) threshold verification, a generic numeric convexity
verifier, and a random-restart falsifier for (un)commonness.

Each gap formula is written once over arrays with leading batch axes
(`_common_gap`, `_pair_gap`, and `identities._strongly_common_gap`); the
public gap functions evaluate it on one kernel's arrays.  The objective
factories return a `GapObjective`, which evaluates the same formula on one
`StepKernel` when called and on a stack of graphons by its `batch`
method.  `falsify` groups its restarts by block count and descends each
group in lockstep, one batched objective call per coordinate move.  Each
restart still draws its start from its own generator and follows the path
it would follow alone, so the result depends only on (seed, restarts,
steps, max_blocks), whatever the grouping or evaluation order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .cone import GoodnessCertificate, check_good
from .gluing import GluingTemplate, build_j
from .graphs import (BALANCE_TOL, DEFAULT_WORK_BUDGET, INEQUALITY_TOL, Graph, components,
                     girth_and_cycle_count, make_family)
from .graphons import StepKernel, densities, density, kernel_arrays, sample_graphon
from .identities import _strongly_common_gap

_K2 = make_family("path", 2)

# exact threshold probability for the diamond / K3+K2 pair
P_DIAMOND_PAIR = (8.0 - 2.0 * math.sqrt(10.0)) / 3.0


@dataclass(frozen=True)
class CommonPairSpec:
    """A candidate (p1, p2)-common pair, optionally with convexity data
    (base graph f and integers k_i, l_i tying e(h_i) to e(f))."""

    h1: Graph
    h2: Graph
    p1: float
    f: Graph | None = None
    k1: int | None = None
    k2: int | None = None
    l1: int | None = None
    l2: int | None = None

    def __post_init__(self):
        if self.h1.edge_count == 0 or self.h2.edge_count == 0:
            raise ValueError("h1 and h2 must be non-empty")
        if not 0.0 < self.p1 < 1.0:
            raise ValueError("p1 must lie in (0, 1)")
        if self.f is not None:
            if None in (self.k1, self.k2, self.l1, self.l2):
                raise ValueError("k1, k2, l1, l2 are required alongside f")
            for h, k, l in ((self.h1, self.k1, self.l1), (self.h2, self.k2, self.l2)):
                if k < 0 or l < 0:
                    raise ValueError("k and l must be non-negative")
                if h.edge_count != k * self.f.edge_count - l:
                    raise ValueError("e(h_i) must equal k_i * e(f) - l_i")

    @property
    def p2(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class SearchResult:
    best_kernel: StepKernel
    best_gap: float
    evaluations: int
    seed: int


def _pair_gap(spec: CommonPairSpec, measures: np.ndarray, values: np.ndarray,
              budget: int) -> np.ndarray:
    """`pair_gap` of graphons given as arrays with leading batch axes."""
    e1, e2 = spec.h1.edge_count, spec.h2.edge_count
    p1, p2 = spec.p1, spec.p2
    return (densities(spec.h1, measures, values, budget) / (e1 * p1 ** (e1 - 1))
            + densities(spec.h2, measures, 1.0 - values, budget) / (e2 * p2 ** (e2 - 1))
            - p1 / e1 - p2 / e2)


def pair_gap(spec: CommonPairSpec, w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """Weighted two-colour gap; non-negative for every graphon w exactly
    when (h1, h2) is (p1, p2)-common.

    t(h1,w)/(e1 p1^(e1-1)) + t(h2,1-w)/(e2 p2^(e2-1)) - p1/e1 - p2/e2.
    """
    if not w.graphon:
        raise ValueError("pair_gap expects a graphon")
    return float(_pair_gap(spec, *kernel_arrays(w), budget))


def _common_gap(h: Graph, measures: np.ndarray, values: np.ndarray,
                budget: int) -> np.ndarray:
    """`common_gap` of graphons given as arrays with leading batch axes."""
    if h.edge_count == 0:
        raise ValueError("h must be non-empty")
    return (densities(h, measures, values, budget) + densities(h, measures, 1.0 - values, budget)
            - 0.5 ** (h.edge_count - 1))


def common_gap(h: Graph, w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """t(h,w) + t(h,1-w) - (1/2)^(e(h)-1); h is common iff this is
    non-negative for every graphon."""
    return float(_common_gap(h, *kernel_arrays(w), budget))


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


def convexity_conditions(spec: CommonPairSpec, sample_seeds, max_blocks: int = 4) -> dict:
    """Check the four sufficient conditions tying (h1, h2) to a strongly
    common base graph f via (k_i, l_i).

    Conditions 1-3 are decided, condition 3 exactly for a `Fraction` p1;
    condition 4 (the correlation inequality t(h_i,W) t(K2,W)^l_i >=
    t(f,W)^k_i) is universally quantified, so sampling it only yields the
    "numerically_supported" assurance.  A certified verdict comes from
    `certify_pair_via_templates`, which builds each H_i from its template.
    """
    if spec.f is None:
        raise ValueError("convexity_conditions needs the (f, k, l) data")
    f = spec.f
    ef = f.edge_count
    cond1 = spec.h1.edge_count >= ef and spec.h2.edge_count >= ef
    cond2 = (spec.h1.edge_count == spec.k1 * ef - spec.l1
             and spec.h2.edge_count == spec.k2 * ef - spec.l2)
    residual, cond3 = _balance((spec.k1, spec.h1.edge_count), (spec.k2, spec.h2.edge_count),
                               ef - 1, spec.p1)
    worst = math.inf
    for seed in sample_seeds:
        w = sample_graphon(seed, max_blocks)
        tk2 = density(_K2, w)
        tf = density(f, w)
        for h, k, l in ((spec.h1, spec.k1, spec.l1), (spec.h2, spec.k2, spec.l2)):
            worst = min(worst, density(h, w) * tk2**l - tf**k)
    cond4 = worst >= -INEQUALITY_TOL
    return {
        "edge_floor": cond1,
        "edge_arithmetic": cond2,
        "balance": cond3,
        "balance_residual": residual,
        "correlation": cond4,
        "correlation_min_slack": worst,
        "correlation_assurance": "numerically_supported",
        "all_pass": cond1 and cond2 and cond3 and cond4,
    }


def _is_odd_cycle(g: Graph) -> bool:
    if g.vertex_count < 3 or g.vertex_count % 2 == 0:
        return False
    if g.edge_count != g.vertex_count:
        return False
    if any(len(s) != 2 for s in g.neighbor_sets()):
        return False
    return len(components(g)) == 1


def _two_vertex_component_count(g: Graph) -> int:
    comps = components(g)
    count = 0
    for comp in comps:
        if len(comp) == 2:
            u, v = comp
            if (u, v) in g.edges:
                count += 1
    return count


@dataclass(frozen=True)
class PairTemplateVerdict:
    certified: bool
    reason: str
    p1: float
    m: int
    h1_edge_count: int
    h2_edge_count: int
    balance_residual: float
    certificate1: GoodnessCertificate
    certificate2: GoodnessCertificate


def certify_pair_via_templates(t1: GluingTemplate, l1: int,
                               t2: GluingTemplate, l2: int,
                               p1: float, budget: int = DEFAULT_WORK_BUDGET
                               ) -> PairTemplateVerdict:
    """Certify (H1, H2) as (p1, p2)-common from two good odd-cycle templates.

    H_i is the generalized tree J(t_i) with l_i two-vertex components and
    all isolated vertices removed.  Certification needs both goodness
    certificates, e(H_i) >= m, and the balance equation
    (e(H1)+l1)/(e(H1) p1^(m-1)) = (e(H2)+l2)/(e(H2) p2^(m-1)), decided
    exactly for a `Fraction` p1.  `budget` bounds each goodness check's
    generator enumeration.
    """
    base = t1.base
    if base != t2.base:
        raise ValueError("both templates must share the same base cycle")
    if not _is_odd_cycle(base):
        raise ValueError("base graph must be an odd cycle")
    m = base.vertex_count
    if not 0 < p1 < 1:
        raise ValueError("p1 must lie in (0, 1)")
    if l1 < 0 or l2 < 0:
        raise ValueError("l1 and l2 must be non-negative")
    cert1 = check_good(t1, budget=budget)
    cert2 = check_good(t2, budget=budget)
    sides = []
    for t, l, cert in ((t1, l1, cert1), (t2, l2, cert2)):
        j, _ = build_j(t)
        if _two_vertex_component_count(j) < l:
            raise ValueError(f"J has fewer than {l} two-vertex components")
        e_h = j.edge_count - l
        if e_h < m:
            raise ValueError("each H_i must have at least m edges")
        sides.append(e_h)
    e1, e2 = sides
    residual, balanced = _balance((e1 + l1, e1), (e2 + l2, e2), m - 1, p1)
    if cert1.verdict != "good" or cert2.verdict != "good":
        return PairTemplateVerdict(False, "template not good", p1, m, e1, e2,
                                   residual, cert1, cert2)
    if not balanced:
        return PairTemplateVerdict(False, "balance violated", p1, m, e1, e2,
                                   residual, cert1, cert2)
    return PairTemplateVerdict(True, "certified (p1,p2)-common via good odd-cycle templates",
                               p1, m, e1, e2, residual, cert1, cert2)


def solve_simple_tree_p(e1: int, v1: int, e2: int, v2: int, m: int) -> float:
    """The unique p1 in (0,1) balancing two simple cycle-trees:
    (e1-v1+1)/(e1 p1^(m-1)) = (e2-v2+1)/(e2 (1-p1)^(m-1)).

    With c_i = e_i - v_i + 1 the equation says ((1-p1)/p1)^(m-1) = R for
    R = c2 e1 / (c1 e2), so p1 = 1 / (1 + R^(1/(m-1))).
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("m must be an odd integer >= 3")
    c1, c2 = e1 - v1 + 1, e2 - v2 + 1
    if c1 < 1 or c2 < 1 or e1 < 1 or e2 < 1:
        raise ValueError("cycle rank e - v + 1 must be positive on both sides")
    return 1.0 / (1.0 + (c2 * e1 / (c1 * e2)) ** (1.0 / (m - 1)))


def girth_obstruction(h1: Graph, h2: Graph, m: int, p1) -> bool:
    """Necessary balance condition for girth-m pairs:
    c_m(h1)/(e(h1) p1^(m-1)) = c_m(h2)/(e(h2) p2^(m-1)).

    False proves (h1, h2) is not (p1, p2)-common.  Decided by `_balance`:
    exactly for a `Fraction` p1, within its relative tolerance for a float.
    """
    g1, c1 = girth_and_cycle_count(h1, m)
    g2, c2 = girth_and_cycle_count(h2, m)
    if g1 != m or g2 != m:
        raise ValueError(f"both graphs must have girth exactly {m}")
    if not 0 < p1 < 1:
        raise ValueError("p1 must lie in (0, 1)")
    return _balance((c1, h1.edge_count), (c2, h2.edge_count), m - 1, p1)[1]


# ---------------------------------------------------------------------------
# (D, K3 u K2) threshold machinery


def _dk3k2_domain_check(x: float):
    p = P_DIAMOND_PAIR
    if not -p < x < 1.0 - p:
        raise ValueError(f"x must lie in ({-p}, {1 - p})")


def dk3k2_f(x: float, y: float) -> float:
    """Objective whose minimum witnesses the diamond / K3+K2 pair threshold."""
    _dk3k2_domain_check(x)
    p = P_DIAMOND_PAIR
    a = p + x
    b = 1.0 - p - x
    return (a**3 + y) ** 2 / (5.0 * p**4 * a) + b * (b**3 - y) / (4.0 * (1.0 - p) ** 3)


def _dk3k2_y0(x: float) -> float:
    a = P_DIAMOND_PAIR + x
    return a * (2.0 * a - 1.0) - a**3


def _dk3k2_y1(x: float) -> float:
    p = P_DIAMOND_PAIR
    a = p + x
    return 5.0 * (1.0 - a) * a * p**4 / (8.0 * (1.0 - p) ** 3) - a**3


def dk3k2_functions(x: float, which: str) -> float:
    """Evaluate one of the named threshold functions at x: y0 and y1 are the
    constraint and stationary curves, g0 and g1 the objective along them."""
    _dk3k2_domain_check(x)
    if which == "y0":
        return _dk3k2_y0(x)
    if which == "y1":
        return _dk3k2_y1(x)
    if which == "g0":
        return dk3k2_f(x, _dk3k2_y0(x))
    if which == "g1":
        return dk3k2_f(x, _dk3k2_y1(x))
    raise ValueError(f"unknown function name {which!r}")


def _golden_min(fn, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimisation on [lo, hi] for unimodal fn."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def _grid_then_golden(fn, lo: float, hi: float, grid: int, tol: float = 1e-10):
    xs = np.linspace(lo, hi, grid)
    vals = [fn(float(x)) for x in xs]
    i = int(np.argmin(vals))
    a = xs[max(0, i - 1)]
    b = xs[min(grid - 1, i + 1)]
    return _golden_min(fn, float(a), float(b), tol)


def _fit_cubic(fn, lo: float, hi: float, points: int = 7) -> list[float]:
    xs = np.linspace(lo, hi, points)
    ys = [fn(float(x)) for x in xs]
    return [float(c) for c in np.polyfit(xs, ys, 3)]


def dk3k2_verify(pair_gap_seeds=range(20), max_blocks: int = 4) -> dict:
    """End-to-end verification of the diamond / K3+K2 threshold argument.

    (a) The restrictions g0, g1 of the objective along the constraint and
        stationary curves are cubics; fit them numerically and compare with
        their closed forms.
    (b) Minimise g0 on the open x-domain and g1 on [-0.6, 0.08]; the g0
        minimum must clear the threshold p/5 + (1-p)/4 and the g1 minimum
        must equal it, attained at x = 0.
    (c) Spot-check the pair gap of (diamond, K3 u K2) at the threshold p
        on sampled graphons.
    """
    p = P_DIAMOND_PAIR
    s10 = math.sqrt(10.0)
    threshold = (7.0 + 2.0 * s10) / 60.0

    g0 = lambda x: dk3k2_functions(x, "g0")
    g1 = lambda x: dk3k2_functions(x, "g1")

    g0_closed = [(1065.0 + 336.0 * s10) / 400.0,
                 (379.0 + 118.0 * s10) / 80.0,
                 -(135.0 + 72.0 * s10) / 320.0,
                 (52.0 - 3.0 * s10) / 160.0]
    g1_closed = [-(487.0 + 154.0 * s10) / 100.0,
                 (79.0 + 25.0 * s10) / 50.0,
                 0.0,
                 (7.0 + 2.0 * s10) / 60.0]
    g0_fit = _fit_cubic(g0, -p + 0.05, 1.0 - p - 0.05)
    g1_fit = _fit_cubic(g1, -0.55, 0.08)
    coeff_err = max(max(abs(a - b) for a, b in zip(g0_fit, g0_closed)),
                    max(abs(a - b) for a, b in zip(g1_fit, g1_closed)))

    # the closed cubic forms extend g0, g1 continuously past x = -p, which
    # the minimisation interval [-0.6, 0.08] for g1 requires
    g0_cubic = lambda x: ((g0_closed[0] * x + g0_closed[1]) * x + g0_closed[2]) * x + g0_closed[3]
    g1_cubic = lambda x: ((g1_closed[0] * x + g1_closed[1]) * x + g1_closed[2]) * x + g1_closed[3]
    eps = 1e-9
    g0_x, g0_min = _grid_then_golden(g0_cubic, -p + eps, 1.0 - p - eps, grid=2001)
    g1_x, g1_min = _grid_then_golden(g1_cubic, -0.6, 0.08, grid=2001)

    g1_at_zero = g1(0.0)
    crossover = (-425.0 + 140.0 * s10) / 246.0

    spec = CommonPairSpec(make_family("complete_minus_edge", 4),
                          disjoint_k3_k2(), p)
    worst_gap = math.inf
    for seed in pair_gap_seeds:
        worst_gap = min(worst_gap, pair_gap(spec, sample_graphon(seed, max_blocks)))

    report = {
        "p": p,
        "threshold": threshold,
        "g1_at_zero": g1_at_zero,
        "g1_at_zero_error": abs(g1_at_zero - threshold),
        "cubic_fit_max_error": coeff_err,
        "g0_fit": g0_fit,
        "g0_closed": g0_closed,
        "g1_fit": g1_fit,
        "g1_closed": g1_closed,
        "g0_min_x": g0_x,
        "g0_min_value": g0_min,
        "g0_clears_threshold": g0_min > threshold,
        "g1_min_x": g1_x,
        "g1_min_value": g1_min,
        "g1_min_at_zero": abs(g1_x) <= 1e-6 and abs(g1_min - threshold) <= 1e-9,
        "y1_ge_y0_crossover": crossover,
        "pair_gap_min": worst_gap,
        "pair_gap_ok": worst_gap >= -INEQUALITY_TOL,
    }
    report["passed"] = (report["g1_at_zero_error"] <= 1e-12
                        and coeff_err <= 1e-6
                        and report["g0_clears_threshold"]
                        and report["g1_min_at_zero"]
                        and report["pair_gap_ok"])
    return report


def disjoint_k3_k2() -> Graph:
    """The disjoint union of a triangle and a single edge."""
    from .graphs import disjoint_union
    return disjoint_union(make_family("complete", 3), make_family("path", 2))


# ---------------------------------------------------------------------------
# Generic convexity verification


def appendix_convexity_verify(f: Graph, e1: int, e2: int, k1: int, k2: int,
                              l1: int, l2: int, p1: float,
                              grid: int = 401) -> dict:
    """Numerically minimise the two-sided correlation objective
    ((p1+x)^ef - y)^k1 / ((p1+x)^l1 e1 p1^(e1-1)) + mirrored term
    over -p1 < x < p2 and -(p2-x)^ef <= y <= (p1+x)^ef, checking that the
    minimum is p1/e1 + p2/e2, attained at (0, 0).

    When k1 = k2 = 1 the objective does not depend on y and y is pinned at
    0; when exactly one k_i is 1, the y-interval is extended to include
    the analytic stationary point.
    """
    ef = f.edge_count
    p2 = 1.0 - p1
    if not 0.0 < p1 < 1.0:
        raise ValueError("p1 must lie in (0, 1)")
    if e1 < ef or e2 < ef:
        raise ValueError("e(H_i) >= e(F) is required")
    if e1 != k1 * ef - l1 or e2 != k2 * ef - l2:
        raise ValueError("e(H_i) = k_i e(F) - l_i is required")
    if not _balance((k1, e1), (k2, e2), ef - 1, p1)[1]:
        raise ValueError("the p-balance equation must hold")

    def objective(x: float, y: float) -> float:
        a = p1 + x
        b = p2 - x
        return ((a**ef - y) ** k1 / (a**l1 * e1 * p1 ** (e1 - 1))
                + (b**ef + y) ** k2 / (b**l2 * e2 * p2 ** (e2 - 1)))

    def min_over_y(x: float):
        if k1 == 1 and k2 == 1:
            return 0.0, objective(x, 0.0)
        a = p1 + x
        b = p2 - x
        y_lo, y_hi = -(b**ef), a**ef
        if k1 == 1 and k2 != 1:
            # stationary point of the (convex) second term against a linear first
            target = b**l2 * e2 * p2 ** (e2 - 1) / (k2 * e1 * p1 ** (e1 - 1))
            y_star = target ** (1.0 / (k2 - 1)) - b**ef
            y_lo, y_hi = min(y_lo, y_star), max(y_hi, y_star)
        elif k2 == 1 and k1 != 1:
            target = a**l1 * e1 * p1 ** (e1 - 1) / (k1 * e2 * p2 ** (e2 - 1))
            y_star = a**ef - target ** (1.0 / (k1 - 1))
            y_lo, y_hi = min(y_lo, y_star), max(y_hi, y_star)
        return _golden_min(lambda y: objective(x, y), y_lo, y_hi, tol=1e-11)

    margin = 1e-9
    xs = np.linspace(-p1 + margin, p2 - margin, grid)
    best_x, best = None, math.inf
    for x in xs:
        _, val = min_over_y(float(x))
        if val < best:
            best, best_x = val, float(x)
    step = float(xs[1] - xs[0])
    lo = max(-p1 + margin, best_x - step)
    hi = min(p2 - margin, best_x + step)
    x_min, value = _golden_min(lambda x: min_over_y(x)[1], lo, hi, tol=1e-9)
    y_min = min_over_y(x_min)[0]
    expected = p1 / e1 + p2 / e2
    # Bernoulli boundary values where one colour class saturates
    boundary = (1.0 / (e1 * p1 ** (e1 - 1)), 1.0 / (e2 * p2 ** (e2 - 1)))
    return {
        "min_value": value,
        "argmin_x": x_min,
        "argmin_y": y_min,
        "expected": expected,
        "value_error": abs(value - expected),
        "argmin_distance": max(abs(x_min), abs(y_min)),
        "boundary_values": boundary,
        "boundary_ok": all(v >= expected - INEQUALITY_TOL for v in boundary),
        "passed": (abs(value - expected) <= 1e-8
                   and max(abs(x_min), abs(y_min)) <= 1e-4
                   and all(v >= expected - INEQUALITY_TOL for v in boundary)),
    }


# ---------------------------------------------------------------------------
# Falsifier


class GapObjective:
    """A gap functional for `falsify` to minimise.

    `objective.batch(measures, values)` evaluates the gap formula on B
    graphons given as arrays of shape (B, q) and (B, q, q), and returns
    shape (B,); `objective(w)` evaluates it on one `StepKernel`, as the
    public gap function does.  A plain class: a dataclass would add ~1 ms
    to every import.
    """

    __slots__ = ("formula",)

    def __init__(self, formula: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.formula = formula

    def __call__(self, w: StepKernel) -> float:
        return float(self.formula(*kernel_arrays(w)))

    def batch(self, measures: np.ndarray, values: np.ndarray) -> np.ndarray:
        return self.formula(measures, values)


def common_gap_objective(h: Graph, budget: int = DEFAULT_WORK_BUDGET) -> GapObjective:
    return GapObjective(partial(_common_gap, h, budget=budget))


def strongly_common_objective(f: Graph) -> GapObjective:
    return GapObjective(partial(_strongly_common_gap, f, budget=DEFAULT_WORK_BUDGET))


def pair_gap_objective(spec: CommonPairSpec, budget: int = DEFAULT_WORK_BUDGET) -> GapObjective:
    return GapObjective(partial(_pair_gap, spec, budget=budget))


def _descend(objective: GapObjective, measures: np.ndarray, values: np.ndarray,
             max_sweeps: int):
    """Coordinate descent over block values and measures, B starts in lockstep.

    `measures` (B, q) and `values` (B, q, q) are updated in place.  Each
    start follows its own path, as if descended alone: moves in a fixed
    order, a per-start step delta halved after a sweep without improvement,
    and a start drops out once delta < 1e-6.  A move is scored by one
    `objective.batch` call over the starts for which it is not skipped.
    Returns each start's best value and its number of evaluations.
    """
    count, q = measures.shape
    best = objective.batch(measures, values)
    evals = np.ones(count, dtype=np.int64)
    delta = np.full(count, 0.25)
    live = np.arange(count)
    value_moves = [(i, j, sgn) for i in range(q) for j in range(i, q) for sgn in (1.0, -1.0)]
    measure_moves = [(i, j) for i in range(q) for j in range(q) if i != j]
    for _ in range(max_sweeps):
        if live.size == 0:
            break
        improved = np.zeros(count, dtype=bool)
        for i, j, sgn in value_moves:
            old = values[live, i, j]
            cand = np.minimum(1.0, np.maximum(0.0, old + sgn * delta[live]))
            moved = cand != old
            rows, cand = live[moved], cand[moved]
            if rows.size == 0:
                continue
            trial = values[rows]
            trial[:, i, j] = trial[:, j, i] = cand
            val = objective.batch(measures[rows], trial)
            evals[rows] += 1
            better = val < best[rows] - 1e-15
            rows = rows[better]
            best[rows] = val[better]
            improved[rows] = True
            values[rows, i, j] = values[rows, j, i] = cand[better]
        for i, j in measure_moves:
            amount = np.minimum(delta[live], measures[live, i])
            moved = amount > 0.0
            rows, amount = live[moved], amount[moved]
            if rows.size == 0:
                continue
            trial = measures[rows]
            trial[:, i] -= amount
            trial[:, j] += amount
            val = objective.batch(trial, values[rows])
            evals[rows] += 1
            better = val < best[rows] - 1e-15
            best[rows[better]] = val[better]
            improved[rows[better]] = True
            # undo a rejected move by the inverse update, which can leave a
            # measure one rounding away from its old value: the search path
            # is defined with that rounding, so restoring would change results
            trial[~better, i] += amount[~better]
            trial[~better, j] -= amount[~better]
            measures[rows] = trial
        stalled = live[~improved[live]]
        delta[stalled] *= 0.5
        live = live[delta[live] >= 1e-6]
    return best, evals


def falsify(objective: GapObjective, seed: int, restarts: int = 50, steps: int = 200,
            max_blocks: int = 4) -> SearchResult:
    """Random-restart coordinate descent minimising `objective` over step
    graphons with up to `max_blocks` blocks.

    `objective` is a `GapObjective`, such as `common_gap_objective(h)`: the
    descent scores moves with `objective.batch`, and the returned gap is
    `objective(best_kernel)`.  Restarts with the same block count descend in
    lockstep, each on its own path, at most `steps` sweeps each.

    Deterministic in (seed, restarts, steps): restart r draws its start from
    its own generator derived from the seed, and ties between restarts are
    broken by restart index, so any evaluation order gives the same result.
    """
    if not callable(getattr(objective, "batch", None)):
        raise TypeError("falsify needs an objective with a batch(measures, values) method, "
                        "such as common_gap_objective(h); got "
                        f"{type(objective).__name__}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    starts: dict[int, list] = {}
    for r in range(restarts):
        rng = np.random.default_rng((int(seed) * 0x9E3779B97F4A7C15 + r) % 2**64)
        q = int(rng.integers(2, max_blocks + 1)) if max_blocks > 1 else 1
        measures = rng.dirichlet(np.ones(q))
        raw = rng.uniform(size=(q, q))
        starts.setdefault(q, []).append((r, measures, np.triu(raw) + np.triu(raw, 1).T))
    finals = []
    evals = 0
    for group in starts.values():
        measures = np.array([m for _, m, _ in group])
        values = np.array([v for _, _, v in group])
        best, used = _descend(objective, measures, values, steps)
        evals += int(used.sum())
        finals += [(best[k], r, measures[k], values[k]) for k, (r, _, _) in enumerate(group)]
    _, _, measures, values = min(finals, key=lambda item: item[:2])
    best_kernel = StepKernel(tuple(float(m) for m in measures),
                             tuple(tuple(float(x) for x in row) for row in values),
                             graphon=True)
    return SearchResult(best_kernel, objective(best_kernel), evals, seed)
