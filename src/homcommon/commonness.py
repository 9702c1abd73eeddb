"""Gap evaluators and certifiers for common and (p1, p2)-common graph pairs.

Covers the weighted two-colour gap functional, the convexity-lemma
condition checker, template-based pair certification over odd cycles, the
balance-equation solver for simple cycle-trees, the girth obstruction, the
dedicated (D, K3 u K2) threshold verification, a generic numeric convexity
verifier, and a random-restart falsifier for (un)commonness.

Each gap formula is written once over arrays with leading batch axes
(`_common_gap`, `_pair_gap`, and `identities._strongly_common_gap`); the
public gap functions evaluate it on one kernel's arrays, and the objective
factories return the formula itself, which maps B graphons given as
measures (B, q) and values (B, q, q) to their B gaps.  `min_pair_gap` is
the one sampled pair-gap suite, shared by `dk3k2_verify` and the CLI.
`falsify` pads every restart to the largest block count drawn,
with zero-measure blocks, and descends all of them in lockstep by compass
search: one batched objective call per coordinate scores both step
directions of every restart from the same point.  Each restart still
draws its start from its own generator and follows the path it would
follow alone, so the result depends only on (seed, restarts, steps),
whatever the padding or evaluation order.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .cone import GoodnessCertificate, check_good
from .data import load_graph
from .gluing import GluingTemplate, build_j
from .graphs import (BALANCE_TOL, DEFAULT_WORK_BUDGET, INEQUALITY_TOL, Graph, components,
                     girth_and_cycle_count, make_family)
from .graphons import (StepKernel, _colours, densities, kernel_arrays, sample_graphon,
                       stack_kernels)
from .identities import _float_densities, score_kernels

_K2 = make_family("path", 2)
# restarts of `falsify` draw 2 to FALSIFY_MAX_BLOCKS blocks
FALSIFY_MAX_BLOCKS = 4

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
        # the gap divides t(h_i, .) <= 1 by e_i p_i^(e_i-1): a finite float only if normal
        for i, h, p in ((1, self.h1, self.p1), (2, self.h2, self.p2)):
            if h.edge_count * p ** (h.edge_count - 1) < sys.float_info.min:
                raise ValueError(f"e{i} p{i}^(e{i}-1) underflows at p{i} = {p!r}")
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
    objective_calls: int
    seed: int


def _pair_gap(spec: CommonPairSpec, measures: np.ndarray, values: np.ndarray,
              budget: int) -> np.ndarray:
    """`pair_gap` of graphons given as arrays with leading batch axes."""
    e1, e2 = spec.h1.edge_count, spec.h2.edge_count
    p1, p2 = spec.p1, spec.p2
    # w and 1 - w written once, each batch-last as `_contract` reads it, so
    # it copies neither (the colours of `_colours` lie interleaved, and
    # each contraction here reads one)
    k = values.ndim - 2
    both = np.empty((2,) + values.shape[-2:] + values.shape[:-2])
    both[0] = values.transpose(k, k + 1, *range(k))
    np.subtract(1.0, both[0], out=both[1])
    back = (*range(2, k + 2), 0, 1)
    return (densities(spec.h1, measures, both[0].transpose(back), budget) / (e1 * p1 ** (e1 - 1))
            + densities(spec.h2, measures, both[1].transpose(back), budget)
            / (e2 * p2 ** (e2 - 1))
            - p1 / e1 - p2 / e2)


def pair_gap(spec: CommonPairSpec, w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """Weighted two-colour gap; non-negative for every graphon w exactly
    when (h1, h2) is (p1, p2)-common.

    t(h1,w)/(e1 p1^(e1-1)) + t(h2,1-w)/(e2 p2^(e2-1)) - p1/e1 - p2/e2.
    """
    if not w.graphon:
        raise ValueError("pair_gap expects a graphon")
    return float(_pair_gap(spec, *kernel_arrays(w), budget))


def min_pair_gap(spec: CommonPairSpec, seeds, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """The smallest `pair_gap` of `spec` over `sample_graphon(s)` for s in
    `seeds`: sampled evidence for (p1, p2)-commonness, scored by
    `score_kernels`, one contraction of h1 and one of h2 per chunk."""
    worst = min(score_kernels(partial(_pair_gap, spec), (spec.h1, spec.h2),
                              map(sample_graphon, seeds), budget), default=None)
    if worst is None:
        raise ValueError("the pair-gap suite needs at least one seed")
    return worst


def _common_gap(h: Graph, measures: np.ndarray, values: np.ndarray,
                budget: int) -> np.ndarray:
    """`common_gap` of graphons given as arrays with leading batch axes."""
    if h.edge_count == 0:
        raise ValueError("h must be non-empty")
    t = densities(h, measures, _colours(values), budget)
    return t[0] + t[1] - 0.5 ** (h.edge_count - 1)


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


def _correlation_slacks(spec: CommonPairSpec, measures: np.ndarray, values: np.ndarray,
                        budget: int) -> list:
    """t(h_i,W) t(K2,W)^l_i - t(f,W)^k_i for i = 1, 2, of graphons given as
    arrays with leading batch axes, on Python floats (`_float_densities`)."""
    edge, tf, t1, t2 = _float_densities((_K2, spec.f, spec.h1, spec.h2), measures, values, budget)
    return [t1 * edge**spec.l1 - tf**spec.k1, t2 * edge**spec.l2 - tf**spec.k2]


def convexity_conditions(spec: CommonPairSpec, sample_seeds, max_blocks: int = 4) -> dict:
    """Check the four sufficient conditions tying (h1, h2) to a strongly
    common base graph f via (k_i, l_i).

    Conditions 1-3 are decided, condition 3 exactly for a `Fraction` p1;
    condition 4 (the correlation inequality t(h_i,W) t(K2,W)^l_i >=
    t(f,W)^k_i) is universally quantified, so sampling it only yields the
    "numerically_supported" assurance.  The sampled graphons are scored by
    `identities.score_kernels`: one contraction each of K2, f, h1 and h2.
    A certified verdict comes from `certify_pair_via_templates`, which
    builds each H_i from its template.
    """
    if spec.f is None:
        raise ValueError("convexity_conditions needs the (f, k, l) data")
    sample_seeds = list(sample_seeds)
    if not sample_seeds:
        raise ValueError("convexity_conditions needs at least one sample seed")
    f = spec.f
    ef = f.edge_count
    cond1 = spec.h1.edge_count >= ef and spec.h2.edge_count >= ef
    cond2 = (spec.h1.edge_count == spec.k1 * ef - spec.l1
             and spec.h2.edge_count == spec.k2 * ef - spec.l2)
    residual, cond3 = _balance((spec.k1, spec.h1.edge_count), (spec.k2, spec.h2.edge_count),
                               ef - 1, spec.p1)
    kernels = (sample_graphon(seed, max_blocks) for seed in sample_seeds)
    worst = min(score_kernels(partial(_correlation_slacks, spec), (_K2, f, spec.h1, spec.h2),
                              kernels))
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
        # in a simple graph a two-vertex component is one edge
        if sum(len(c) == 2 for c in components(j)) < l:
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


def dk3k2_verify(pair_gap_seeds=range(20), budget: int = DEFAULT_WORK_BUDGET) -> dict:
    """End-to-end verification of the diamond / K3+K2 threshold argument.

    (a) The restrictions g0, g1 of the objective along the constraint and
        stationary curves are cubics; fit them numerically and compare with
        their closed forms.
    (b) Minimise g0 on the open x-domain and g1 on [-0.6, 0.08]; the g0
        minimum must clear the threshold p/5 + (1-p)/4 and the g1 minimum
        must equal it, attained at x = 0.
    (c) Spot-check the pair gap of (diamond, K3 u K2) at the threshold p
        on sampled graphons, each density within `budget`.
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

    spec = CommonPairSpec(make_family("complete_minus_edge", 4), load_graph("k3_plus_k2"), p)
    worst_gap = min_pair_gap(spec, pair_gap_seeds, budget=budget)

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


# ---------------------------------------------------------------------------
# Generic convexity verification


def appendix_convexity_verify(f: Graph, e1: int, e2: int, k1: int, k2: int,
                              l1: int, l2: int, p1: float) -> dict:
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
    x_min, value = _grid_then_golden(lambda x: min_over_y(x)[1], -p1 + margin, p2 - margin,
                                     grid=401, tol=1e-9)
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


# A gap objective maps B graphons, as measures (B, q) and values (B, q, q),
# to their gaps, of shape (B,).
Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]


def common_gap_objective(h: Graph, budget: int = DEFAULT_WORK_BUDGET) -> Objective:
    return partial(_common_gap, h, budget=budget)


def pair_gap_objective(spec: CommonPairSpec, budget: int = DEFAULT_WORK_BUDGET) -> Objective:
    return partial(_pair_gap, spec, budget=budget)


def _descend(objective: Objective, measures: np.ndarray, values: np.ndarray,
             blocks: np.ndarray, max_sweeps: int):
    """Compass search over block values and measures, B starts in lockstep.

    `measures` (B, Q) and `values` (B, Q, Q) are updated in place; start k
    uses its first `blocks[k]` blocks, and its other blocks have measure 0
    and value 0, which add exact zeros to every density.  Each start
    follows its own path, as if descended alone on its own blocks.  A
    sweep polls each coordinate in a fixed order, in both directions from
    the same point: first the value entries (i, j >= i), with candidates
    min(1, v + delta) and max(0, v - delta), then the measure pairs i < j,
    with candidates that move min(delta, m_i) from i to j and
    min(delta, m_j) from j to i.  A coordinate applies only to the starts
    with j < blocks[k], and a candidate equal to the current point is not
    scored: it is not counted, and its value is masked with inf.  One
    `objective` call evaluates both candidates of every start, masked ones
    included, since a row's value does not depend on its batch; no scored
    subset is gathered.  A start takes its lower candidate (the first on a
    tie) if it is below its best by more than 1e-15, and otherwise keeps
    its arrays untouched.  A per-start step delta is halved after a sweep
    without improvement, and a start drops out once delta < 1e-6.  Returns
    each start's best value and its number of evaluations.
    """
    count, q = measures.shape
    best = objective(measures, values)
    evals = np.ones(count, dtype=np.int64)
    delta = np.full(count, 0.25)
    live = np.arange(count)
    coordinates = ([(True, i, j) for i in range(q) for j in range(i, q)]
                   + [(False, i, j) for i in range(q) for j in range(i + 1, q)])
    for _ in range(max_sweeps):
        if live.size == 0:
            break
        improved = np.zeros(count, dtype=bool)
        live_blocks = blocks[live]
        # per column j, fixed within a sweep: the starts it applies to, each
        # twice (candidates [:n] step up or i -> j, [n:] step down or j -> i),
        # their steps, and their measures, which the value polls keep
        columns = []
        for j in range(q):
            rows = live[j < live_blocks]
            both = np.concatenate((rows, rows))
            columns.append((rows, both, delta[both], measures[both], np.arange(rows.size)))
        for is_value, i, j in coordinates:
            rows, both, step, held, index = columns[j]
            n = rows.size
            if n == 0:
                continue
            if is_value:
                trial_m, trial_v = held, values[both]
                old = trial_v[:, i, j]
                new = np.concatenate((np.minimum(1.0, old[:n] + step[:n]),
                                      np.maximum(0.0, old[n:] - step[n:])))
                scored = new != old  # before the write: `old` is a view of trial_v
                trial_v[:, i, j] = trial_v[:, j, i] = new
            else:
                trial_m, trial_v = measures[both], values[both]
                # the signed mass moved from i to j; negation is exact
                amount = np.concatenate((np.minimum(step[:n], trial_m[:n, i]),
                                         -np.minimum(step[n:], trial_m[n:, j])))
                trial_m[:, i] -= amount
                trial_m[:, j] += amount
                scored = amount != 0.0
            if not scored.any():
                continue
            val = np.where(scored, objective(trial_m, trial_v), np.inf)
            evals[rows] += scored.reshape(2, n).sum(0)
            pick = index + n * (val[n:] < val[:n])
            better = val[pick] < best[rows] - 1e-15
            moved, pick = rows[better], pick[better]
            best[moved] = val[pick]
            improved[moved] = True
            if is_value:
                values[moved] = trial_v[pick]
            else:
                measures[moved] = trial_m[pick]
        stalled = live[~improved[live]]
        delta[stalled] *= 0.5
        live = live[delta[live] >= 1e-6]
    return best, evals


def falsify(objective: Objective, seed: int, restarts: int = 50,
            steps: int = 200) -> SearchResult:
    """Random-restart coordinate descent minimising `objective` over step
    graphons with 2 to `FALSIFY_MAX_BLOCKS` blocks.

    `objective` is a batched gap formula, such as `common_gap_objective(h)`:
    the descent scores candidates with it, and the returned gap is its
    value on the arrays of `best_kernel`.  Every start is padded with
    zero-measure, zero-value blocks to Q, the largest block count drawn,
    and all restarts descend in one lockstep `_descend`, each on its own
    path over its own blocks, at most `steps` sweeps each.  A sweep polls the Q(Q+1)/2 value
    entries and the Q(Q-1)/2 measure pairs, each in both directions in one
    batched call.  `evaluations` counts the scored candidates, and
    `objective_calls` the batched calls: one for the starts, then at most
    Q^2 per sweep (16 on 4 blocks).  The witness keeps only the blocks its
    restart drew.  The budget is charged for Q blocks per kernel.

    Deterministic in (seed, restarts, steps): restart r draws
    its start from its own generator derived from the seed, and ties
    between restarts are broken by restart index, so any evaluation order
    gives the same result.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if steps < 0:
        raise ValueError("steps must be at least 0")
    drawn = []
    for r in range(restarts):
        rng = np.random.default_rng((int(seed) * 0x9E3779B97F4A7C15 + r) % 2**64)
        q = int(rng.integers(2, FALSIFY_MAX_BLOCKS + 1))
        drawn.append((rng.dirichlet(np.ones(q)), rng.uniform(size=(q, q))))
    blocks = np.array([len(m) for m, _ in drawn])
    measures, raw = stack_kernels(drawn)
    values = np.where(np.tri(raw.shape[-1], dtype=bool), raw.transpose(0, 2, 1), raw)
    calls = 0

    def counted(measures, values):
        nonlocal calls
        calls += 1
        return objective(measures, values)

    best, used = _descend(counted, measures, values, blocks, steps)
    k = int(np.argmin(best))
    q = int(blocks[k])
    best_kernel = StepKernel(tuple(float(m) for m in measures[k, :q]),
                             tuple(tuple(float(x) for x in row[:q]) for row in values[k, :q]),
                             graphon=True)
    return SearchResult(best_kernel, float(objective(*kernel_arrays(best_kernel))),
                        int(used.sum()), calls, seed)
