"""The float side of commonness: gap evaluators, sampled suites, pair
certification and a falsifier for common and (p1, p2)-common graph pairs.

Covers the weighted two-colour gap functional, the convexity-lemma
condition checker, template-based pair certification over odd cycles with
the p1 each pair balances at (`balancing_p`), and a random-restart
falsifier for (un)commonness.  The exact side (the balance equation
`exact._balance` and its root, the girth obstruction, and the two exact
verifiers over Q(√10) and Q) lives in `exact`; `P_DIAMOND_PAIR` is the
float nearest its exact threshold.

Each gap formula is written once over arrays with leading batch axes
(`_common_gap`, `_pair_gap`, and `identities._strongly_common_gap`); the
public gap functions evaluate it on one kernel's arrays, and the objective
factories return the formula itself, which maps B graphons given as
measures (B, q) and values (B, q, q) to their B gaps.  `min_pair_gap` is
the one sampled pair-gap suite, behind `common pair-gap` and criterion 8.
`falsify` pads every restart to the largest block count drawn,
with zero-measure blocks, and descends all of them in lockstep by compass
search: one batched objective call per coordinate scores both step
directions of every restart from the same point.  Each restart still
draws its start from its own generator and follows the path it would
follow alone, so the result depends only on (seed, restarts, steps),
whatever the padding or evaluation order.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import exact
from .cone import GoodnessCertificate, check_good
from .gluing import GluingTemplate, build_j
from .graphs import DEFAULT_WORK_BUDGET, INEQUALITY_TOL, Graph, components, make_family
from .graphons import (StepKernel, _array_kernel, _colours, _draw, _sample_arrays, densities,
                       kernel_arrays, stack_kernels)
from .identities import _float_densities, score_kernels

_K2 = make_family("path", 2)
# restarts of `falsify` draw 2 to FALSIFY_MAX_BLOCKS blocks
FALSIFY_MAX_BLOCKS = 4

# the diamond / K3+K2 threshold probability (8 - 2√10)/3 as its nearest float
P_DIAMOND_PAIR = float(exact.P_DIAMOND_EXACT)


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
                if h.edge_count != exact._convexity_edges(self.f.edge_count, k, l):
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
    `seeds`: sampled evidence for (p1, p2)-commonness, scored on their arrays
    by `score_kernels`, one contraction of h1 and one of h2 per chunk."""
    worst = min(score_kernels(partial(_pair_gap, spec), (spec.h1, spec.h2),
                              map(_sample_arrays, seeds), budget), default=None)
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
    condition 2 (e(h_i) = k_i e(f) - l_i) holds for every spec, which
    `CommonPairSpec` refuses otherwise, so it is reported as True;
    condition 4 (the correlation inequality t(h_i,W) t(K2,W)^l_i >=
    t(f,W)^k_i) is universally quantified, so sampling it only yields the
    "numerically_supported" assurance.  The sampled graphons' arrays are scored by
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
    residual, cond3 = exact._balance((spec.k1, spec.h1.edge_count),
                                     (spec.k2, spec.h2.edge_count), ef - 1, spec.p1)
    worst = min(score_kernels(partial(_correlation_slacks, spec), (_K2, f, spec.h1, spec.h2),
                              (_sample_arrays(s, max_blocks) for s in sample_seeds)))
    cond4 = worst >= -INEQUALITY_TOL
    return {
        "edge_floor": cond1,
        "edge_arithmetic": True,
        "balance": cond3,
        "balance_residual": residual,
        "correlation": cond4,
        "correlation_min_slack": worst,
        "correlation_assurance": "numerically_supported",
        "all_pass": cond1 and cond3 and cond4,
    }


def _is_odd_cycle(g: Graph) -> bool:
    """Connected, with every degree 2 and an odd number of vertices, at least 3."""
    return (g.vertex_count >= 3 and g.vertex_count % 2 == 1
            and all(len(s) == 2 for s in g.neighbor_sets()) and len(components(g)) == 1)


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


def _pair_sides(t1: GluingTemplate, l1: int, t2: GluingTemplate, l2: int
                ) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(m - 1, (e1 + l1, e1), (e2 + l2, e2)), the balance equation as
    `exact._balance` reads it, for H_i, the generalized tree J(t_i) less l_i
    two-vertex components and all isolated vertices, and e_i = e(H_i).
    ValueError unless the templates share an odd-cycle base C_m, l_i >= 0,
    J(t_i) has l_i two-vertex components, and e_i >= m."""
    base = t1.base
    if base != t2.base:
        raise ValueError("both templates must share the same base cycle")
    if not _is_odd_cycle(base):
        raise ValueError("base graph must be an odd cycle")
    m = base.vertex_count
    if l1 < 0 or l2 < 0:
        raise ValueError("l1 and l2 must be non-negative")
    sides = []
    for t, l in ((t1, l1), (t2, l2)):
        j, _ = build_j(t)
        # in a simple graph a two-vertex component is one edge
        if sum(len(c) == 2 for c in components(j)) < l:
            raise ValueError(f"J has fewer than {l} two-vertex components")
        e_h = j.edge_count - l
        if e_h < m:
            raise ValueError("each H_i must have at least m edges")
        sides.append((e_h + l, e_h))
    return m - 1, sides[0], sides[1]


def balancing_p(t1: GluingTemplate, l1: int, t2: GluingTemplate, l2: int) -> float:
    """The float p1 solving (e1+l1)/(e1 p1^(m-1)) = (e2+l2)/(e2 p2^(m-1))
    for the pair (H1, H2) of `_pair_sides`."""
    n, a1, a2 = _pair_sides(t1, l1, t2, l2)
    return exact._balance_root(a1, a2, n)


def certify_pair_via_templates(t1: GluingTemplate, l1: int,
                               t2: GluingTemplate, l2: int,
                               p1: float, budget: int = DEFAULT_WORK_BUDGET
                               ) -> PairTemplateVerdict:
    """Certify (H1, H2) of `_pair_sides` as (p1, p2)-common from two good
    odd-cycle templates.

    Certification needs both goodness certificates and the balance
    equation (e1+l1)/(e1 p1^(m-1)) = (e2+l2)/(e2 p2^(m-1)), decided exactly
    for a `Fraction` p1; `balancing_p` is its root.  `_pair_sides` refuses
    its inputs before either goodness check, whose generator enumeration
    `budget` bounds, so an invalid l_i is a ValueError at any budget.
    """
    if not 0 < p1 < 1:
        raise ValueError("p1 must lie in (0, 1)")
    n, a1, a2 = _pair_sides(t1, l1, t2, l2)
    m, e1, e2 = n + 1, a1[1], a2[1]
    cert1 = check_good(t1, budget=budget)
    cert2 = check_good(t2, budget=budget)
    residual, balanced = exact._balance(a1, a2, n, p1)
    if cert1.verdict != "good" or cert2.verdict != "good":
        return PairTemplateVerdict(False, "template not good", p1, m, e1, e2,
                                   residual, cert1, cert2)
    if not balanced:
        return PairTemplateVerdict(False, "balance violated", p1, m, e1, e2,
                                   residual, cert1, cert2)
    return PairTemplateVerdict(True, "certified (p1,p2)-common via good odd-cycle templates",
                               p1, m, e1, e2, residual, cert1, cert2)


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

    Deterministic in (seed, restarts, steps): restart r draws its start
    (`graphons._draw`) from its own generator derived from the seed, and ties
    between restarts are broken by restart index, so any evaluation order
    gives the same result.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if steps < 0:
        raise ValueError("steps must be at least 0")
    drawn = [_draw(np.random.default_rng((int(seed) * 0x9E3779B97F4A7C15 + r) % 2**64),
                   2, FALSIFY_MAX_BLOCKS) for r in range(restarts)]
    blocks = np.array([len(m) for m, _ in drawn])
    measures, values = stack_kernels(drawn)
    calls = 0

    def counted(measures, values):
        nonlocal calls
        calls += 1
        return objective(measures, values)

    best, used = _descend(counted, measures, values, blocks, steps)
    k = int(np.argmin(best))
    q = int(blocks[k])
    best_kernel = _array_kernel(measures[k, :q], values[k, :q, :q], graphon=True)
    return SearchResult(best_kernel, float(objective(*kernel_arrays(best_kernel))),
                        int(used.sum()), calls, seed)
