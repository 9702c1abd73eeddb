"""Finite simple graphs: family constructors, automorphisms, exact hom counts.

Vertices are contiguous integers starting at 0.  All types are immutable
values and every function is pure, so concurrent callers are safe.

Homomorphism counts here and step-graphon densities in `graphons` share one
engine: variable elimination over V(h) along a greedy min-degree order,
planned once per graph h and cached (Diaz-Serna-Thilikos, counting
H-colourings of bounded treewidth).  Its cost is sum over elimination steps
of q^|scope| rather than q^v(h), so graphs of treewidth 2, such as glued
odd-cycle trees, cost O(v(h) q^3).  Every step runs as `np.einsum` calls of
exactly three operands, numpy's fast loop: a step of more factors first
multiplies its two narrowest ones.  Each edge of h reads its own matrix
operand, so one contraction also scores products of different matrices,
such as every edge subset of h at once.
"""

from __future__ import annotations

import heapq
import math
import random
import re
import string
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

DEFAULT_WORK_BUDGET = 10**8
# float tolerances for exact identities, sampled inequalities and balance equations
IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-9
BALANCE_TOL = 1e-12
# a falsifier gap below -FALSIFY_THRESHOLD is reported as a violation
FALSIFY_THRESHOLD = 1e-4
_EINSUM_LETTERS = string.ascii_letters


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured work budget."""


def _sorted_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple labelled graph; edges are (u, v) pairs with u < v."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range or not sorted")

    @classmethod
    def from_edges(cls, vertex_count: int, edge_list) -> "Graph":
        """Build a graph accepting edge endpoints in either order."""
        return cls(vertex_count, frozenset(_sorted_edge(u, v) for u, v in edge_list))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbor_sets(self) -> list[set[int]]:
        nbrs: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(s) for s in self.neighbor_sets()))


FAMILY_KINDS = ("cycle", "path", "complete", "complete_minus_edge")
_FAMILY_RE = re.compile(r"([CPKcpk])(\d+)")
_FAMILY_LETTERS = {"C": "cycle", "P": "path", "K": "complete"}


def make_family(kind: str, n: int) -> Graph:
    """Named graph families with canonical labels 0..n-1.

    Cycles are labelled in cyclic order, paths in path order, and
    complete_minus_edge removes the edge between the two largest labels
    (n = 4 gives the diamond).
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycles need n >= 3")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "complete":
        return Graph.from_edges(n, combinations(range(n), 2))
    if n < 2:
        raise ValueError("complete_minus_edge needs n >= 2")
    edges = set(combinations(range(n), 2))
    edges.discard((n - 2, n - 1))
    return Graph.from_edges(n, edges)


def parse_family(spec: str) -> Graph | None:
    """The graph a family string such as "C5", "P4" or "K3" names (either
    letter case), or None when spec is not of that form."""
    m = _FAMILY_RE.fullmatch(spec)
    if m is None:
        return None
    return make_family(_FAMILY_LETTERS[m.group(1).upper()], int(m.group(2)))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union with b's labels shifted past a's."""
    offset = a.vertex_count
    edges = set(a.edges)
    edges.update((u + offset, v + offset) for u, v in b.edges)
    return Graph.from_edges(a.vertex_count + b.vertex_count, edges)


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    nbrs = g.neighbor_sets()
    seen = [False] * g.vertex_count
    out = []
    for s in range(g.vertex_count):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def automorphisms(g: Graph, budget: int = DEFAULT_WORK_BUDGET) -> Iterator[tuple[int, ...]]:
    """Yield every adjacency-preserving bijection of g as its image tuple,
    by backtracking, in lexicographic order of the tuples.

    The search is factorial in the worst case; each node it visits (one
    partial bijection) is charged against `budget` as the generator reaches
    it, so a caller that stops early pays only for what it consumed.
    """
    n = g.vertex_count
    adj = [[False] * n for _ in range(n)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = True
    deg = [sum(row) for row in adj]
    image = [-1] * n
    used = [False] * n
    nodes = 0

    def extend(v: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"automorphisms: searching a {n}-vertex graph "
                                      f"needs more nodes than budget {budget}")
        if v == n:
            yield tuple(image)
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if all(adj[v][u] == adj[w][image[u]] for u in range(v)):
                image[v] = w
                used[w] = True
                yield from extend(v + 1)
                used[w] = False
        image[v] = -1

    return extend(0)


class _Plan(NamedTuple):
    """Variable elimination over V(h), fixed by h alone.

    Operand k is the matrix of edge k of sorted(h.edges), operand e(h) the
    vertex-weight vector, operand e(h) + 1 + k the result of elimination
    step k, and operand e(h) + 1 + v(h) + j the j-th product that a step of
    more than three factors multiplies first (see `_three_operand_calls`).
    `calls` runs the steps in order as `np.einsum` calls, each of three
    operands, the missing ones factors `...` for `_contract` to bind to 1.
    A step whose output has no indices closes a component of h; the
    contraction is the product of those scalars.  Every subscript ends
    with `...`, so trailing batch axes pass through.
    """

    calls: tuple[tuple[str, tuple[int, ...], int], ...]  # (subscripts, operands, result)
    widths: tuple[int, ...]      # |scope| of each step, eliminated vertex included
    scalars: tuple[int, ...]


def _three_operand_calls(terms: list[str], ids: list[int], out: str, result: int,
                         product: int) -> list[tuple[str, tuple[int, ...], int]]:
    """The `np.einsum` calls, as `_Plan.calls`, that sum one elimination step:
    the product of factors with plain subscripts `terms` and operand `ids`,
    summed to the subscript `out` as operand `result`.

    While more than three factors are left, the two narrowest (fewest
    indices, then first listed) are multiplied, summing nothing, into
    operand `product`, `product` + 1, ..., listed last; then one call sums
    the three or fewer left.  Each product is over part of the step's
    scope, so it has at most the q^|scope| terms the step is charged.  With
    three operands numpy's einsum runs its three-operand loop, several times
    faster than its generic one.
    """
    calls = []
    while len(terms) > 3:
        a, b = sorted(range(len(terms)), key=lambda i: (len(terms[i]), i))[:2]
        joint = "".join(sorted(set(terms[a] + terms[b]), key=_EINSUM_LETTERS.index))
        calls.append((f"{terms[a]}...,{terms[b]}...,...->{joint}...", (ids[a], ids[b]), product))
        keep = [i for i in range(len(terms)) if i != a and i != b]
        terms = [terms[i] for i in keep] + [joint]
        ids = [ids[i] for i in keep] + [product]
        product += 1
    calls.append(("...,".join(terms) + "..." + ",..." * (3 - len(terms)) + "->" + out + "...",
                  tuple(ids), result))
    return calls


@lru_cache(maxsize=512)
def _plan(h: Graph) -> _Plan:
    """Greedy min-degree elimination order (ties to the lower label).

    Each vertex carries one weight factor and each edge one matrix factor;
    eliminating v sums out v from the product of the factors that mention
    it.  The scope of that step is v plus its neighbours in the graph
    filled in by earlier eliminations, so the plan's cost is sum q^|scope|;
    the step's einsum calls come from `_three_operand_calls`, and add no
    vertex to a scope.  The next vertex is popped from a heap of (degree,
    vertex) entries, one pushed whenever a degree may have changed (stale
    ones are skipped), and each vertex indexes the factors that mention it,
    so planning costs the steps' scopes and factors, not v(h) per step.
    """
    n, e = h.vertex_count, h.edge_count
    adj = h.neighbor_sets()
    # factor positions: edge k at k, the weight of vertex v at e + v, then
    # step results in order; a step reads its factors in position order
    scopes: list[tuple[int, ...]] = sorted(h.edges) + [(v,) for v in range(n)]
    ids = list(range(e)) + [e] * n
    at = [{e + v} for v in range(n)]
    for k in range(e):
        u, v = scopes[k]
        at[u].add(k)
        at[v].add(k)
    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    done = [False] * n
    calls, widths, scalars = [], [], []
    while heap:
        degree, v = heapq.heappop(heap)
        nbrs = adj[v]
        if done[v] or degree != len(nbrs):
            continue
        done[v] = True
        out = sorted(nbrs)
        scope = sorted(out + [v])
        if len(scope) > len(_EINSUM_LETTERS):
            raise BudgetExceededError(
                f"elimination step over {len(scope)} vertices exceeds einsum's "
                f"{len(_EINSUM_LETTERS)} indices")
        letter = dict(zip(scope, _EINSUM_LETTERS)).__getitem__
        touching = sorted(at[v])
        terms = []
        for pos in touching:
            vertices = scopes[pos]
            terms.append("".join(map(letter, vertices)))
            for u in vertices:
                if u != v:
                    at[u].discard(pos)
        result_id = e + 1 + len(widths)
        calls += _three_operand_calls(terms, [ids[pos] for pos in touching],
                                      "".join(map(letter, out)), result_id,
                                      e + 1 + n + len(calls) - len(widths))
        widths.append(len(scope))
        if out:
            for u in out:
                at[u].add(len(scopes))
            scopes.append(tuple(out))
            ids.append(result_id)
        else:
            scalars.append(result_id)
        for a in out:
            fill = adj[a]
            fill |= nbrs
            fill.discard(a)
            fill.discard(v)
            heapq.heappush(heap, (len(fill), a))
    return _Plan(tuple(calls), tuple(widths), tuple(scalars))


def _charge(h: Graph, q: int, budget: int, caller: str) -> int:
    """The terms of contracting h over q values, sum over steps of q^|scope|,
    per kernel; raises `BudgetExceededError`, naming `caller`, when they
    exceed `budget`.  v(h) q > `budget` is refused before planning (each
    step has q or more terms)."""
    work = h.vertex_count * q
    if work <= budget:
        try:
            plan = _plan(h)
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"{caller}: {exc}") from None
        work = sum(q**width for width in plan.widths)
    if work > budget:
        raise BudgetExceededError(
            f"{caller}: contracting a {h.vertex_count}-vertex graph over {q} values "
            f"needs at least {work} terms, budget {budget}")
    return work


def _contract(h: Graph, matrices: np.ndarray, vector: np.ndarray, budget: int, caller: str):
    """sum over maps phi: V(h) -> [q] of prod_v vector[phi v] * prod_k matrices[k][phi u, phi v],
    edge k = (u, v) of sorted(h.edges).

    `matrices` has shape (E, ..., q, q), with E either e(h), one matrix per
    edge, or 1, one matrix shared by every edge; `vector` has shape
    (..., q).  The axes between E and (q, q) are a batch, broadcast against
    the vector's leading axes, and the result has their shape.  `_charge`
    charges each kernel of the batch against `budget`.  Unbatched operands
    give a numpy scalar of the operands' dtype, or a Python int for object
    operands.

    The operands are contracted with the batch axes last (one contiguous
    copy of each, none when they are already laid out so), so every
    einsum's inner loop runs over the whole batch.  Every einsum call has
    exactly three operands, the missing ones a 0-d 1: numpy's three-operand
    loop multiplies and adds every kernel alike, in block order, so a
    kernel alone (a batch with no axes) gives the bits of its row in any
    batch.  A shared matrix runs the same einsum calls on the same bits as
    e(h) copies of it.
    """
    _charge(h, vector.shape[-1], budget, caller)
    plan = _plan(h)
    nd = matrices.ndim
    matrices = np.ascontiguousarray(matrices.transpose(0, nd - 2, nd - 1, *range(1, nd - 2)))
    vector = np.ascontiguousarray(vector.transpose(vector.ndim - 1, *range(vector.ndim - 1)))
    ones = (np.array(1, dtype=matrices.dtype),) * 2
    edges = [matrices[0]] * h.edge_count if len(matrices) == 1 else list(matrices)
    operands = edges + [vector] + [None] * len(plan.calls)
    for subscripts, ids, result in plan.calls:
        operands[result] = np.einsum(subscripts, *[operands[i] for i in ids],
                                     *ones[len(ids) - 1:])
    total = 1
    for i in plan.scalars:
        total = total * operands[i]
    return total


def hom_count(h: Graph, g: Graph, budget: int = DEFAULT_WORK_BUDGET) -> int:
    """Exact number of edge-preserving maps V(h) -> V(g), by `_hom_counts` on one graph."""
    adj = np.zeros((g.vertex_count, g.vertex_count), dtype=np.uint8)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1
    return _hom_counts(h, adj, budget, "hom_count")[0]


def _hom_counts(h: Graph, adj: np.ndarray, budget: int, caller: str) -> list[int]:
    """hom_count(h, g) for each graph g of the 0/1 adjacency stack `adj`, of
    shape (..., n, n), as a flat list: one contraction, each graph's charged
    against `budget`.  Every partial sum counts maps of a subset of V(h), so
    int64 is exact while n^v(h) < 2^63; larger instances use Python ints."""
    n = adj.shape[-1]
    dtype = np.int64 if n**h.vertex_count < 2**63 else object
    counts = _contract(h, adj.astype(dtype)[None], np.ones(n, dtype=dtype), budget, caller)
    return [int(c) for c in np.broadcast_to(counts, adj.shape[:-2]).flat]


def _count_cycles(h: Graph, length: int, budget: int) -> int:
    """Unlabelled cycles of the given length, by direct DFS path enumeration."""
    if length < 3 or length > h.vertex_count:
        return 0
    nbrs = h.neighbor_sets()
    count = 0
    steps = 0
    visited = set()

    def dfs(start: int, current: int, remaining: int):
        nonlocal count, steps
        steps += 1
        if steps > budget:
            raise BudgetExceededError(f"girth_and_cycle_count: enumerating {length}-cycles "
                                      f"needs more steps than budget {budget}")
        if remaining == 0:
            if start in nbrs[current]:
                count += 1
            return
        for w in nbrs[current]:
            if w > start and w not in visited:
                visited.add(w)
                dfs(start, w, remaining - 1)
                visited.remove(w)

    for s in range(h.vertex_count):
        visited = {s}
        dfs(s, s, length - 1)
    # each cycle is traced once per direction
    return count // 2


def girth_and_cycle_count(h: Graph, m: int, budget: int = DEFAULT_WORK_BUDGET):
    """(girth, c_m): least cycle length present (math.inf for forests) and
    the number of unlabelled m-cycles."""
    if m < 3:
        raise ValueError("cycle length must be at least 3")
    girth: float = math.inf
    for k in range(3, h.vertex_count + 1):
        if _count_cycles(h, k, budget) > 0:
            girth = k
            break
    return girth, _count_cycles(h, m, budget)


def random_graph(n: int, seed: int, edge_probability: float = 0.5) -> Graph:
    """Seeded Erdos-Renyi style labelled graph; deterministic in seed."""
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < edge_probability]
    return Graph.from_edges(n, edges)


def all_labelled_graphs(n: int):
    """Yield every labelled graph on exactly n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def _mask_adjacency(n: int, masks) -> np.ndarray:
    """The 0/1 adjacency stack of the n-vertex graphs whose edge masks, in
    `all_labelled_graphs` order, are `masks`."""
    rows, cols = np.triu_indices(n, 1)
    raw = b"".join(m.to_bytes(len(rows) // 8 + 1, "little") for m in masks)
    adj = np.zeros((len(masks), n, n), dtype=np.uint8)
    adj[:, rows, cols] = adj[:, cols, rows] = np.unpackbits(
        np.frombuffer(raw, np.uint8).reshape(len(masks), -1), axis=1, count=len(rows),
        bitorder="little")
    return adj


def graph_to_json(g: Graph) -> dict:
    return {"n": g.vertex_count, "edges": [list(e) for e in sorted(g.edges)]}


def _json_shaped(x, shape, what: str):
    """x if it has the JSON shape `shape`: a type (int, float, bool, list or dict), a
    tuple of types, or [shape] for a list of that shape; neither true nor 1.0 is an int."""
    if isinstance(shape, list):
        for v in _json_shaped(x, list, what):
            _json_shaped(v, shape[0], what)
        return x
    kinds = shape if isinstance(shape, tuple) else (shape,)
    if type(x) not in kinds:
        names = " or ".join(t.__name__ for t in kinds)
        raise ValueError(f"{what}: expected JSON {names}, found {x!r}")
    return x


def graph_from_json(obj: dict) -> Graph:
    obj = _json_shaped(obj, dict, "graph JSON")
    return Graph.from_edges(_json_shaped(obj.get("n"), int, "graph 'n'"),
                            _json_shaped(obj.get("edges"), [[int]], "graph 'edges'"))
