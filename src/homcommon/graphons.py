"""Step kernels and graphons: homomorphism densities, 1 - w, sampling.

A step kernel is a symmetric q x q block matrix together with block
measures summing to 1.  Graphons are the kernels flagged as having all
values in [0, 1].  Densities are the finite sum over block assignments,
contracted vertex by vertex along an elimination order planned once per
graph (see `graphs`), with float64 operands.  `densities` takes the same
kernels as arrays with leading batch axes, so one contraction scores many
kernels; `density` is its one-kernel form, with the bits of any batch row.
`stack_kernels` pads kernels of different block counts into one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import DEFAULT_WORK_BUDGET, Graph, _contract, _json_shaped

_MEASURE_TOL = 1e-12


@dataclass(frozen=True)
class StepKernel:
    """Symmetric block kernel with block measures; `graphon` marks 0..1 values."""

    measures: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    graphon: bool = False

    def __post_init__(self):
        q = len(self.measures)
        if q < 1:
            raise ValueError("need at least one block")
        if not all(map(math.isfinite, self.measures)):
            raise ValueError("block measures must be finite")
        if abs(math.fsum(self.measures) - 1.0) > _MEASURE_TOL:
            raise ValueError("block measures must sum to 1")
        if any(m < 0 for m in self.measures):
            raise ValueError("block measures must be non-negative")
        if len(self.values) != q or any(len(row) != q for row in self.values):
            raise ValueError("values must be a q x q matrix")
        if not all(math.isfinite(v) for row in self.values for v in row):
            raise ValueError("values must be finite")
        for i in range(q):
            for j in range(q):
                if self.values[i][j] != self.values[j][i]:
                    raise ValueError("values must be symmetric")
        if self.graphon:
            for row in self.values:
                if any(v < 0.0 or v > 1.0 for v in row):
                    raise ValueError("graphon values must lie in [0, 1]")

    @property
    def block_count(self) -> int:
        return len(self.measures)


def constant_kernel(p: float) -> StepKernel:
    return StepKernel((1.0,), ((p,),), graphon=0.0 <= p <= 1.0)


def kernel_from_graph(g: Graph) -> StepKernel:
    """Encode a graph as a step kernel: one block per vertex, 0/1 values."""
    n = g.vertex_count
    if n == 0:
        raise ValueError("cannot encode the empty graph as a kernel")
    vals = [[0.0] * n for _ in range(n)]
    for u, v in g.edges:
        vals[u][v] = vals[v][u] = 1.0
    return StepKernel(tuple(1.0 / n for _ in range(n)),
                      tuple(tuple(row) for row in vals), graphon=True)


def kernel_arrays(w: StepKernel) -> tuple[np.ndarray, np.ndarray]:
    """The measures (q,) and values (q, q) of w as float64 arrays."""
    return np.asarray(w.measures, dtype=np.float64), np.asarray(w.values, dtype=np.float64)


def stack_kernels(arrays) -> tuple[np.ndarray, np.ndarray]:
    """Stack kernels given as (measures (q,), values (q, q)) array pairs, such
    as `kernel_arrays` gives, into measures (B, Q) and values (B, Q, Q), Q
    the largest q: each kernel is padded with blocks of measure 0 and value
    0, which add exact zeros to every density, so a row's densities have
    its kernel's bits (of 1 - w too, whose padded values 1 meet measure 0)."""
    arrays = list(arrays)
    top = max(len(m) for m, _ in arrays)
    measures = np.zeros((len(arrays), top))
    values = np.zeros((len(arrays), top, top))
    for k, (m, v) in enumerate(arrays):
        q = len(m)
        measures[k, :q] = m
        values[k, :q, :q] = v
    return measures, values


def densities(h: Graph, measures: np.ndarray, values: np.ndarray,
              budget: int = DEFAULT_WORK_BUDGET) -> np.ndarray:
    """t(h, .) of step kernels given as float64 arrays, measures (..., q) and
    values (..., q, q); leading axes are a batch and the result has their
    shape.  No validation: callers pass arrays of kernels they built."""
    return _contract(h, values[None], measures, budget, "density")


def _colours(values: np.ndarray) -> np.ndarray:
    """w and 1 - w of kernels given as values (..., q, q), stacked as
    (2, ..., q, q): a view of one array laid out (q, q, 2, ...), the
    batch-last order `_contract` reads, so contracting the stack copies
    neither."""
    k = values.ndim - 2
    both = np.empty(values.shape[-2:] + (2,) + values.shape[:-2])
    both[:, :, 0] = values.transpose(k, k + 1, *range(k))
    np.subtract(1.0, both[:, :, 0], out=both[:, :, 1])
    return both.transpose(*range(2, k + 3), 0, 1)


def density(h: Graph, w: StepKernel, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """Homomorphism density t(h, w) = sum over maps phi: V(h) -> blocks of
    prod_v measure[phi v] * prod_uv value[phi u, phi v].

    Computed by the elimination contraction shared with `hom_count`; the
    budget bounds the contraction's terms, sum over steps of q^|scope|.
    """
    return float(densities(h, *kernel_arrays(w), budget))


def one_minus(w: StepKernel) -> StepKernel:
    """Value-wise 1 - w for arbitrary kernels; keeps the graphon flag."""
    vals = tuple(tuple(1.0 - x for x in row) for row in w.values)
    return StepKernel(w.measures, vals, graphon=w.graphon)


def sample_graphon(seed: int, max_blocks: int = 4) -> StepKernel:
    """Seeded random step graphon: uniform block count, Dirichlet(1) measures,
    i.i.d. uniform values mirrored across the diagonal."""
    if max_blocks < 1:
        raise ValueError("max_blocks must be at least 1")
    rng = np.random.default_rng(int(seed) % 2**64)
    q = int(rng.integers(1, max_blocks + 1))
    measures = rng.dirichlet(np.ones(q))
    raw = rng.uniform(size=(q, q))
    vals = np.where(np.tri(q, dtype=bool), raw.T, raw)
    return StepKernel(tuple(float(m) for m in measures),
                      tuple(tuple(float(x) for x in row) for row in vals),
                      graphon=True)


def sample_kernel(seed: int, max_blocks: int = 4) -> StepKernel:
    """Seeded random kernel, not a graphon: `sample_graphon(seed, max_blocks)`
    with each value x mapped to 3x - 1, in [-1, 2]."""
    base = sample_graphon(seed, max_blocks)
    vals = tuple(tuple(-1.0 + 3.0 * x for x in row) for row in base.values)
    return replace(base, values=vals, graphon=False)


def kernel_to_json(w: StepKernel) -> dict:
    return {"measures": list(w.measures),
            "values": [list(row) for row in w.values],
            "graphon": w.graphon}


def kernel_from_json(obj: dict) -> StepKernel:
    obj = _json_shaped(obj, dict, "kernel JSON")
    measures = _json_shaped(obj.get("measures"), [(int, float)], "kernel 'measures'")
    values = _json_shaped(obj.get("values"), [[(int, float)]], "kernel 'values'")
    return StepKernel(tuple(map(float, measures)), tuple(tuple(map(float, row)) for row in values),
                      graphon=_json_shaped(obj.get("graphon", False), bool, "kernel 'graphon'"))
