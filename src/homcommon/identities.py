"""Residual evaluators for exact density identities and commonness gaps.

Each residual is mathematically zero (or sign-constrained) for every valid
input, so any excess beyond rounding tolerance indicates a bug in the
density machinery.  Residuals are returned signed so that tests can spot
systematic bias rather than just magnitude.  Each two-colour residual is
a batched formula over kernels given as arrays, contracting each of its
graphs once on w and 1 - w stacked.  `IDENTITY_SUITES` names the sampled
identity suites, and `max_identity_residual` runs one of them; the
goodman and c5goodman suites score all their graphons through
`score_kernels`, padded to one block count, one contraction per graph and
chunk.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph, _charge, _contract,
                     make_family)
from .graphons import (StepKernel, _colours, densities, density, kernel_arrays, one_minus,
                       sample_graphon, stack_kernels)

_K2 = make_family("path", 2)
_P3 = make_family("path", 3)
_P4 = make_family("path", 4)
_P5 = make_family("path", 5)
_K3 = make_family("complete", 3)
_C5 = make_family("cycle", 5)
_EXPANSION_GRAPHS = (_K2, _P3, _K3, _C5, make_family("complete_minus_edge", 4))
# the graphs each identity contracts, on w and 1 - w stacked
_GOODMAN_GRAPHS = (_K3, _K2, _P3)
_C5_GOODMAN_GRAPHS = (_C5, _K2, _P5, _P4)
_SUBSET_CHUNK = 2**10
_CHUNK_TERMS = 2**20


def _subset_densities(h: Graph, measures: np.ndarray, u: np.ndarray, bits: np.ndarray,
                      budget: int) -> np.ndarray:
    """t(h[E_S], u) for each column S of the 0/1 array `bits`, of shape
    (e(h), n), whose row k marks edge k of sorted(h.edges): one contraction
    over h's own plan, in which edge k reads u where S has it and the
    all-ones matrix, a factor 1, elsewhere."""
    stack = np.where(bits[..., None, None] == 1, u, 1.0)
    return np.broadcast_to(_contract(h, stack, measures, budget, "expansion_residual"),
                           bits.shape[1:])


def expansion_residual(h: Graph, w: StepKernel, p: float,
                       budget: int = DEFAULT_WORK_BUDGET) -> float:
    """t(h,w) minus its expansion over edge subsets of h against u = w - p.

    Expanding every edge factor of t(h, w) as (u + p) gives
    t(h,w) = sum over E of p^(e(h)-|E|) * t(h[E], u); the return value is
    the difference of the two sides and is zero up to rounding.  The
    2^e(h) edge subsets are charged against `budget` before any density
    is computed.  `_subset_densities` scores them in chunks, each of at most
    `_SUBSET_CHUNK` subsets and `_CHUNK_TERMS` terms (one subset if a single
    one needs more), which bounds the memory in e(h) and in the block count,
    and each contraction charges every subset's work against `budget` too.
    """
    e = h.edge_count
    if 2**e > budget:
        raise BudgetExceededError(
            f"expansion_residual: 2^{e} edge subsets exceed the work budget of {budget}")
    lhs = density(h, w, budget)  # plans h, so a too-wide step is refused as "density:"
    measures, values = kernel_arrays(w)
    work = max(1, _charge(h, len(measures), budget, "density"))
    chunk = max(1, min(_SUBSET_CHUNK, _CHUNK_TERMS // work))
    total = 0.0
    for start in range(0, 2**e, chunk):
        bits = np.arange(start, min(start + chunk, 2**e)) >> np.arange(e)[:, None] & 1
        total += p ** (e - bits.sum(0)) @ _subset_densities(h, measures, values - p, bits, budget)
    return lhs - float(total)


def _float_densities(graphs, measures: np.ndarray, values: np.ndarray,
                     budget: int) -> list[np.ndarray]:
    """`densities` of each graph of `graphs`, as object arrays of Python
    floats: a formula's powers are then Python's, which give a kernel the
    same bits in any batch (numpy's array power need not)."""
    return [densities(h, measures, values, budget).astype(object) for h in graphs]


def _colour_densities(graphs, measures: np.ndarray, values: np.ndarray,
                      budget: int) -> list[np.ndarray]:
    """t(h, w) and t(h, 1 - w) of kernels given as arrays with leading batch
    axes, one contraction per graph h of `graphs`, each of shape (2, ...),
    as `_float_densities`."""
    return _float_densities(graphs, measures, _colours(values), budget)


def _goodman(k3, edge, p3):
    """The triangle identity's residual from the densities of K3, K2 and P3,
    each of shape (2, ...): on w, then on 1 - w."""
    side = edge**3 + 1.5 * (p3 - edge**2)
    return k3[0] + k3[1] - (side[0] + side[1])


def _goodman_residuals(measures: np.ndarray, values: np.ndarray, budget: int):
    """`goodman_residual` of graphons given as arrays with leading batch axes."""
    return _goodman(*_colour_densities(_GOODMAN_GRAPHS, measures, values, budget))


def _c5_goodman_residuals(measures: np.ndarray, values: np.ndarray, budget: int):
    """`c5_goodman_residual` of graphons given as arrays with leading batch axes."""
    c5, edge, p5, p4 = _colour_densities(_C5_GOODMAN_GRAPHS, measures, values, budget)
    side = edge**5 + 5.0 * edge * p5 - 5.0 * edge**2 * p4
    return c5[0] + c5[1] - (side[0] + side[1])


def goodman_residual(w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """Two-sided triangle identity residual for the pair (w, 1-w).

    With w1 = w and w2 = 1 - w, the classical Goodman formula states
    t(K3,w1) + t(K3,w2) = sum_i [t(K2,wi)^3 + (3/2)(t(P3,wi) - t(K2,wi)^2)].
    One graphon makes six `density` calls, on w and on `one_minus(w)`: the
    spans that `bench/test_reference.py` counts under this residual.  The
    goodman suite contracts each graph once on w and 1 - w stacked, with
    the same bits.
    """
    if not w.graphon:
        raise ValueError("goodman_residual is defined for graphons")
    colours = (w, one_minus(w))
    return float(_goodman(*(np.array([density(h, wi, budget) for wi in colours], dtype=object)
                            for h in _GOODMAN_GRAPHS)))


def c5_goodman_residual(w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """Five-cycle analogue of the triangle identity, residual form.

    t(C5,w1) + t(C5,w2) = sum_i [t(K2,wi)^5 + 5 t(K2,wi) t(P5,wi)
                                 - 5 t(K2,wi)^2 t(P4,wi)]  with w2 = 1 - w1.
    Four contractions, each of C5, K2, P5 and P4 on w and 1 - w stacked.
    """
    if not w.graphon:
        raise ValueError("c5_goodman_residual is defined for graphons")
    return float(_c5_goodman_residuals(*kernel_arrays(w), budget))


def score_kernels(formula, graphs, kernels, budget: int = DEFAULT_WORK_BUDGET):
    """Yield the values of a batched formula on `kernels`, chunk by chunk.

    `formula(measures, values, budget)` maps kernels given as measures
    (B, Q) and values (B, Q, Q) to an array whose last axis is the batch,
    and `graphs` lists the contractions it makes per kernel (a two-colour
    formula's graphs twice).  `kernels` is read once, in chunks that
    `stack_kernels` pads to one block count.  Whenever a kernel has more
    blocks than any before it, every graph is charged for that count, as
    `densities` charges it, before any further contraction: a suite is
    refused exactly when its largest kernel is, and as soon as it is read.
    A chunk's contractions total at most `_CHUNK_TERMS` terms at the
    largest count read (one kernel if it alone needs more), which bounds
    the memory of a long suite; no value depends on the chunks or on the
    padding.
    """
    chunk, q, work = [], 0, 0
    for w in kernels:
        if w.block_count > q:
            q = w.block_count
            work = sum(_charge(h, q, budget, "density") for h in graphs)
        if chunk and (len(chunk) + 1) * work > _CHUNK_TERMS:
            yield from np.ravel(formula(*stack_kernels(chunk), budget)).tolist()
            chunk = []
        chunk.append(kernel_arrays(w))
    if chunk:
        yield from np.ravel(formula(*stack_kernels(chunk), budget)).tolist()


def _expansion_residuals(w: StepKernel, budget: int) -> list[float]:
    """The expansion suite on w: each of `_EXPANSION_GRAPHS` at the shifts
    0, 0.3 and t(K2, w)."""
    shifts = (0.0, 0.3, density(_K2, w, budget))
    return [expansion_residual(h, w, p, budget) for h in _EXPANSION_GRAPHS for p in shifts]


# suite name -> the residuals it checks on an iterable of graphons, within a
# budget; the expansion's shift t(K2, w) differs per graphon, so it scores
# them one by one
IDENTITY_SUITES = {
    "goodman": partial(score_kernels, _goodman_residuals, _GOODMAN_GRAPHS * 2),
    "c5goodman": partial(score_kernels, _c5_goodman_residuals, _C5_GOODMAN_GRAPHS * 2),
    "expansion": lambda kernels, budget: (r for w in kernels
                                          for r in _expansion_residuals(w, budget)),
}


def max_identity_residual(name: str, seeds, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """The largest |residual| of the suite `IDENTITY_SUITES[name]` over
    `sample_graphon(s)` for s in `seeds`; raises `ValueError` for no seeds."""
    suite = IDENTITY_SUITES[name]
    worst = max((abs(r) for r in suite(map(sample_graphon, seeds), budget)), default=None)
    if worst is None:
        raise ValueError(f"the {name} suite needs at least one seed")
    return worst


def _strongly_common_gap(f: Graph, measures: np.ndarray, values: np.ndarray,
                         budget: int) -> np.ndarray:
    """`strongly_common_gap` of kernels given as arrays with leading batch axes."""
    if f.edge_count == 0:
        raise ValueError("f must have at least one edge")
    tf, edge = _colour_densities((f, _K2), measures, values, budget)
    e = f.edge_count
    # float64, as a gap objective returns
    return np.asarray(tf[0] + tf[1] - edge[0]**e - edge[1]**e, dtype=np.float64)


def strongly_common_gap(f: Graph, w: StepKernel,
                        budget: int = DEFAULT_WORK_BUDGET) -> float:
    """t(f,w) + t(f,1-w) - t(K2,w)^e(f) - t(K2,1-w)^e(f).

    Accepts arbitrary kernels, with 1-w taken value-wise; f is strongly
    common exactly when this is non-negative for every graphon (for odd
    cycles it is non-negative for every kernel).
    """
    return float(_strongly_common_gap(f, *kernel_arrays(w), budget))
