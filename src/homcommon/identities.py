"""Residual evaluators for exact density identities and commonness gaps.

Each residual is mathematically zero (or sign-constrained) for every valid
input, so any excess beyond rounding tolerance indicates a bug in the
density machinery.  Residuals are returned signed so that tests can spot
systematic bias rather than just magnitude.  `IDENTITY_SUITES` names the
sampled identity suites, and `max_identity_residual` runs one of them.
"""

from __future__ import annotations

import numpy as np

from .graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph, _contract, _plan,
                     make_family)
from .graphons import StepKernel, densities, density, kernel_arrays, one_minus, sample_graphon

_K2 = make_family("path", 2)
_P3 = make_family("path", 3)
_P4 = make_family("path", 4)
_P5 = make_family("path", 5)
_K3 = make_family("complete", 3)
_C5 = make_family("cycle", 5)
_EXPANSION_GRAPHS = (_K2, _P3, _K3, _C5, make_family("complete_minus_edge", 4))
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
    work = max(1, sum(len(measures)**width for width in _plan(h).widths))
    chunk = max(1, min(_SUBSET_CHUNK, _CHUNK_TERMS // work))
    total = 0.0
    for start in range(0, 2**e, chunk):
        bits = np.arange(start, min(start + chunk, 2**e)) >> np.arange(e)[:, None] & 1
        total += p ** (e - bits.sum(0)) @ _subset_densities(h, measures, values - p, bits, budget)
    return lhs - float(total)


def goodman_residual(w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """Two-sided triangle identity residual for the pair (w, 1-w).

    With w1 = w and w2 = 1 - w, the classical Goodman formula states
    t(K3,w1) + t(K3,w2) = sum_i [t(K2,wi)^3 + (3/2)(t(P3,wi) - t(K2,wi)^2)].
    """
    if not w.graphon:
        raise ValueError("goodman_residual is defined for graphons")
    lhs = 0.0
    rhs = 0.0
    for wi in (w, one_minus(w)):
        lhs += density(_K3, wi, budget)
        edge = density(_K2, wi, budget)
        rhs += edge**3 + 1.5 * (density(_P3, wi, budget) - edge**2)
    return lhs - rhs


def c5_goodman_residual(w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """Five-cycle analogue of the triangle identity, residual form.

    t(C5,w1) + t(C5,w2) = sum_i [t(K2,wi)^5 + 5 t(K2,wi) t(P5,wi)
                                 - 5 t(K2,wi)^2 t(P4,wi)]  with w2 = 1 - w1.
    """
    if not w.graphon:
        raise ValueError("c5_goodman_residual is defined for graphons")
    lhs = 0.0
    rhs = 0.0
    for wi in (w, one_minus(w)):
        lhs += density(_C5, wi, budget)
        edge = density(_K2, wi, budget)
        rhs += (edge**5
                + 5.0 * edge * density(_P5, wi, budget)
                - 5.0 * edge**2 * density(_P4, wi, budget))
    return lhs - rhs


def _expansion_residuals(w: StepKernel, budget: int) -> list[float]:
    """The expansion suite on w: each of `_EXPANSION_GRAPHS` at the shifts
    0, 0.3 and t(K2, w)."""
    shifts = (0.0, 0.3, density(_K2, w, budget))
    return [expansion_residual(h, w, p, budget) for h in _EXPANSION_GRAPHS for p in shifts]


# suite name -> the residuals it checks on one graphon, within a budget
IDENTITY_SUITES = {
    "goodman": lambda w, budget: [goodman_residual(w, budget)],
    "c5goodman": lambda w, budget: [c5_goodman_residual(w, budget)],
    "expansion": _expansion_residuals,
}


def max_identity_residual(name: str, seeds, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """The largest |residual| of the suite `IDENTITY_SUITES[name]` over
    `sample_graphon(s)` for s in `seeds` (0.0 for no seeds)."""
    suite = IDENTITY_SUITES[name]
    return max((abs(r) for s in seeds for r in suite(sample_graphon(s), budget)), default=0.0)


def _strongly_common_gap(f: Graph, measures: np.ndarray, values: np.ndarray,
                         budget: int) -> np.ndarray:
    """`strongly_common_gap` of kernels given as arrays with leading batch axes."""
    if f.edge_count == 0:
        raise ValueError("f must have at least one edge")
    both = np.stack((values, 1.0 - values))
    tf = densities(f, measures, both, budget)
    edge = densities(_K2, measures, both, budget)
    e = f.edge_count
    return tf[0] + tf[1] - edge[0]**e - edge[1]**e


def strongly_common_gap(f: Graph, w: StepKernel,
                        budget: int = DEFAULT_WORK_BUDGET) -> float:
    """t(f,w) + t(f,1-w) - t(K2,w)^e(f) - t(K2,1-w)^e(f).

    Accepts arbitrary kernels, with 1-w taken value-wise; f is strongly
    common exactly when this is non-negative for every graphon (for odd
    cycles it is non-negative for every kernel).
    """
    return float(_strongly_common_gap(f, *kernel_arrays(w), budget))
