"""Residual evaluators for exact density identities and commonness gaps.

Each residual is mathematically zero (or sign-constrained) for every valid
input, so any excess beyond rounding tolerance indicates a bug in the
density machinery.  Residuals are returned signed so that tests can spot
systematic bias rather than just magnitude.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph,
                     make_family, subgraph_on_edges)
from .graphons import StepKernel, densities, density, kernel_arrays, one_minus, shift

_K2 = make_family("path", 2)
_P3 = make_family("path", 3)
_P4 = make_family("path", 4)
_P5 = make_family("path", 5)
_K3 = make_family("complete", 3)
_C5 = make_family("cycle", 5)


def expansion_residual(h: Graph, w: StepKernel, p: float,
                       budget: int = DEFAULT_WORK_BUDGET) -> float:
    """t(h,w) minus its expansion over edge subsets of h against u = w - p.

    Expanding every edge factor of t(h, w) as (u + p) gives
    t(h,w) = sum over E of p^(e(h)-|E|) * t(h[E], u); the return value is
    the difference of the two sides and is zero up to rounding.  The
    2^e(h) edge subsets are charged against `budget` before any density
    is computed, and each density is then bounded by `budget` as well.
    """
    if 2 ** h.edge_count > budget:
        raise BudgetExceededError(
            f"expansion_residual: 2^{h.edge_count} edge subsets exceed the work budget "
            f"of {budget}")
    u = shift(w, p)
    lhs = density(h, w, budget)
    edges = sorted(h.edges)
    total = 0.0
    for size in range(len(edges) + 1):
        for keep in combinations(edges, size):
            total += p ** (h.edge_count - size) * density(subgraph_on_edges(h, keep), u, budget)
    return lhs - total


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


def _strongly_common_gap(f: Graph, measures: np.ndarray, values: np.ndarray,
                         budget: int) -> np.ndarray:
    """`strongly_common_gap` of kernels given as arrays with leading batch axes."""
    if f.edge_count == 0:
        raise ValueError("f must have at least one edge")
    complement = 1.0 - values
    e = f.edge_count
    return (densities(f, measures, values, budget) + densities(f, measures, complement, budget)
            - densities(_K2, measures, values, budget)**e
            - densities(_K2, measures, complement, budget)**e)


def strongly_common_gap(f: Graph, w: StepKernel,
                        budget: int = DEFAULT_WORK_BUDGET) -> float:
    """t(f,w) + t(f,1-w) - t(K2,w)^e(f) - t(K2,1-w)^e(f).

    Accepts arbitrary kernels, with 1-w taken value-wise; f is strongly
    common exactly when this is non-negative for every graphon (for odd
    cycles it is non-negative for every kernel).
    """
    return float(_strongly_common_gap(f, *kernel_arrays(w), budget))


def supersaturation_gap(w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """t(K3,w) - t(K2,w)(2 t(K2,w) - 1); non-negative for every graphon."""
    edge = density(_K2, w, budget)
    return density(_K3, w, budget) - edge * (2.0 * edge - 1.0)
