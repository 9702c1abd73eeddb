"""Reference computations for the benchmark's output checks.

Written apart from homcommon and importing nothing from it: homomorphism
densities and counts as plain numpy contractions (one index per vertex of
H, one operand per vertex measure and per edge), cycle counts as the trace
of A^m, and goodness certificates over cycle bases re-derived in Fractions
with dihedral-orbit canonicalisation.  Graphs are passed as
(vertex_count, edges) pairs, kernels as (measures, values) sequences and
certificates as the package's documented JSON form.
"""

from __future__ import annotations

import math
import string
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

_LETTERS = string.ascii_letters


def _subscripts(vertex_count: int, edges, batch: str = "") -> str:
    if vertex_count > len(_LETTERS) - 1:
        raise ValueError(f"at most {len(_LETTERS) - 1} vertices supported")
    ops = [_LETTERS[v] for v in range(vertex_count)]
    ops += [batch + _LETTERS[u] + _LETTERS[v] for u, v in edges]
    return ",".join(ops) + "->" + batch


def density(vertex_count: int, edges, measures, values) -> float:
    """t(H, W): sum over maps phi of prod mu(phi(v)) * prod W(phi(u), phi(v))."""
    if vertex_count == 0:
        return 1.0
    mu = np.asarray(measures, dtype=np.float64)
    w = np.asarray(values, dtype=np.float64)
    operands = [mu] * vertex_count + [w] * len(edges)
    return float(np.einsum(_subscripts(vertex_count, edges), *operands, optimize="greedy"))


def one_minus(values):
    return [[1.0 - x for x in row] for row in values]


def common_gap(vertex_count: int, edges, measures, values) -> float:
    """t(H,W) + t(H,1-W) - (1/2)^(e(H)-1)."""
    return (density(vertex_count, edges, measures, values)
            + density(vertex_count, edges, measures, one_minus(values))
            - 0.5 ** (len(edges) - 1))


def pair_gap(h1, h2, p1: float, measures, values) -> float:
    """t(H1,W)/(e1 p1^(e1-1)) + t(H2,1-W)/(e2 p2^(e2-1)) - p1/e1 - p2/e2."""
    (n1, e1), (n2, e2) = h1, h2
    p2 = 1.0 - p1
    return (density(n1, e1, measures, values) / (len(e1) * p1 ** (len(e1) - 1))
            + density(n2, e2, measures, one_minus(values)) / (len(e2) * p2 ** (len(e2) - 1))
            - p1 / len(e1) - p2 / len(e2))


def strongly_common_gap(vertex_count: int, edges, measures, values) -> float:
    """t(F,W) + t(F,1-W) - t(K2,W)^e(F) - t(K2,1-W)^e(F)."""
    comp = one_minus(values)
    e = len(edges)
    k2 = [(0, 1)]
    return (density(vertex_count, edges, measures, values)
            + density(vertex_count, edges, measures, comp)
            - density(2, k2, measures, values) ** e
            - density(2, k2, measures, comp) ** e)


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# exact homomorphism counts


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def hom_counts(vertex_count: int, edges, adjacencies: np.ndarray) -> list[int]:
    """hom(H, G) for a stack of n x n adjacency matrices, by an int64
    contraction with a leading batch index."""
    adjs = np.asarray(adjacencies, dtype=np.int64)
    batch, n, _ = adjs.shape
    if vertex_count == 0:
        return [1] * batch
    if n ** vertex_count >= 2**62:
        raise OverflowError("hom count may not fit in int64")
    ones = np.ones(n, dtype=np.int64)
    z = _LETTERS[-1]
    operands = [ones] * vertex_count + [adjs] * len(edges)
    if edges:
        out = np.einsum(_subscripts(vertex_count, edges, z), *operands, optimize="greedy")
    else:
        out = np.full(batch, n ** vertex_count, dtype=np.int64)
    return [int(x) for x in out]


def cycle_hom_counts(m: int, adjacencies: np.ndarray) -> list[int]:
    """hom(C_m, G) = trace(A^m) for each adjacency matrix in the stack."""
    adjs = np.asarray(adjacencies, dtype=np.int64)
    power = np.linalg.matrix_power(adjs, m)
    return [int(x) for x in np.trace(power, axis1=1, axis2=2)]


def all_labelled_graphs(n: int):
    """Every labelled graph on vertices 0..n-1, as sorted edge lists."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def binomial_check(j_vertex_count: int, j_edges, m: int, graphs) -> dict:
    """t(J,G) >= t(C_m,G)^(e(J)/m) for every graph (n, edges), compared
    exactly in integers; also the least float slack t(J) - t(C_m)^ratio."""
    ratio = Fraction(len(j_edges), m)
    a, b = ratio.numerator, ratio.denominator
    by_n: dict[int, list] = {}
    for n, edges in graphs:
        by_n.setdefault(n, []).append(adjacency(n, edges))
    all_hold = True
    min_slack = math.inf
    checked = 0
    for n, adjs in by_n.items():
        stack = np.stack(adjs)
        hj = hom_counts(j_vertex_count, j_edges, stack)
        hf = cycle_hom_counts(m, stack)
        for x, y in zip(hj, hf):
            if x**b * n ** (m * a) < y**a * n ** (j_vertex_count * b):
                all_hold = False
            t_j = Fraction(x, n**j_vertex_count)
            t_f = Fraction(y, n**m)
            min_slack = min(min_slack, float(t_j) - float(t_f) ** float(ratio))
            checked += 1
    return {"all_hold": all_hold, "min_slack": min_slack, "checked": checked}


# ---------------------------------------------------------------------------
# goodness certificates over cycle bases


@lru_cache(maxsize=None)
def _cycle_class_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Canonical representative of every subset mask of V(C_m): the least
    sorted tuple over the dihedral group (rotations and reflections)."""
    group = [tuple((k + s * v) % m for v in range(m)) for k in range(m) for s in (1, -1)]
    table = []
    for mask in range(1 << m):
        members = [v for v in range(m) if mask >> v & 1]
        table.append(min(tuple(sorted(g[v] for v in members)) for g in group))
    return tuple(table)


def _mask(subset) -> int:
    out = 0
    for v in subset:
        out |= 1 << int(v)
    return out


def _cycle_length(f: dict) -> int:
    """m for a base graph given as C_m in cyclic labels; ValueError otherwise."""
    m = int(f["n"])
    edges = {tuple(sorted(e)) for e in f["edges"]}
    if m < 3 or edges != {tuple(sorted((i, (i + 1) % m))) for i in range(m)}:
        raise ValueError("reference certificates cover cycle bases in cyclic labels only")
    return m


def glued_counts(f: dict, tree: dict, psi_nodes: dict, psi_edges: dict) -> tuple[int, int]:
    """(v(J), e(J)) of the glued graph, by identifying (node, label) pairs."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nodes = int(tree["nodes"])
    psi = [set(int(v) for v in psi_nodes.get(str(s), [])) for s in range(nodes)]
    for s in range(nodes):
        for v in psi[s]:
            parent[(s, v)] = (s, v)
    for key, subset in psi_edges.items():
        s, _, t = key.partition("-")
        for v in subset:
            ra, rb = find((int(s), int(v))), find((int(t), int(v)))
            parent[ra] = rb
    edges = set()
    for s in range(nodes):
        for u, v in f["edges"]:
            if u in psi[s] and v in psi[s]:
                edges.add(frozenset((find((s, u)), find((s, v)))))
    return len({find(x) for x in parent}), len(edges)


def _class_vector(table, obj: dict) -> dict:
    """Re-key a JSON class vector onto this module's canonical classes."""
    out: dict = {}
    for key, val in obj.items():
        rep = table[_mask(int(x) for x in key.split(","))]
        out[rep] = out.get(rep, Fraction(0)) + Fraction(val)
    return {k: v for k, v in out.items() if v != 0 and k}


def _add_unit(acc: dict, table, mask: int, coeff: Fraction):
    rep = table[mask]
    if rep:
        acc[rep] = acc.get(rep, Fraction(0)) + coeff


def check_certificate(cert: dict) -> list[str]:
    """Re-derive a goodness certificate given in JSON form; returns the
    problems found (empty when the certificate holds).

    Good: coefficients non-negative and z + sum(c * x) = target.
    Not good: witness . (target - z) > 0 and witness . x <= 0 for every
    x-vector over disjoint triples (r1, r2, r3) with r1, r3 nonempty.
    """
    tmpl = cert["template"]
    m = _cycle_length(tmpl["F"])
    table = _cycle_class_table(m)
    full = (1 << m) - 1
    problems = []
    jv, je = glued_counts(tmpl["F"], tmpl["tree"], tmpl.get("psi_nodes", {}),
                           tmpl.get("psi_edges", {}))
    if (jv, je) != (cert["j_vertex_count"], cert["j_edge_count"]):
        problems.append(f"glued J is {jv}v/{je}e, certificate says "
                        f"{cert['j_vertex_count']}v/{cert['j_edge_count']}e")
    target = {table[full]: Fraction(je, m)}
    if _class_vector(table, cert["target"]) != target:
        problems.append("target vector differs from (e(J)/e(F)) e_V(F)")
    z: dict = {}
    for s in range(int(tmpl["tree"]["nodes"])):
        _add_unit(z, table, _mask(tmpl.get("psi_nodes", {}).get(str(s), [])), Fraction(1))
    for subset in tmpl.get("psi_edges", {}).values():
        _add_unit(z, table, _mask(subset), Fraction(-1))
    if cert["verdict"] == "good":
        acc = dict(z)
        for g in cert["generators_used"]:
            r1, r2, r3 = _mask(g["r1"]), _mask(g["r2"]), _mask(g["r3"])
            c = Fraction(g["coeff"])
            if c < 0:
                problems.append(f"negative cone coefficient {c}")
            if r1 & r2 or r1 & r3 or r2 & r3 or not r1 or not r3:
                problems.append(f"generator {g} is not a disjoint triple with r1, r3 nonempty")
            for mask, sign in ((r1 | r2 | r3, 1), (r2 | r3, -1), (r1 | r2, -1), (r2, 1)):
                _add_unit(acc, table, mask, sign * c)
        if {k: v for k, v in acc.items() if v != 0} != target:
            problems.append("z + sum(c x) differs from the target")
        return problems
    if cert["verdict"] != "not_good":
        return problems + [f"unknown verdict {cert['verdict']!r}"]
    if cert.get("farkas_witness") is None:
        return problems + ["not-good certificate without a Farkas witness"]
    witness = _class_vector(table, cert["farkas_witness"])
    gap = sum(witness.get(k, 0) * v for k, v in target.items())
    gap -= sum(witness.get(k, 0) * v for k, v in z.items())
    if gap <= 0:
        problems.append("witness . (target - z) is not positive")
    # the witness scaled to integers: signs of inner products are unchanged
    scale = math.lcm(*(v.denominator for v in witness.values())) if witness else 1
    weight = [int(witness.get(table[mask], 0) * scale) for mask in range(1 << m)]
    for r1 in range(1, full + 1):
        rest1 = full & ~r1
        r3 = rest1
        while r3:
            rest3 = rest1 & ~r3
            r2 = rest3
            while True:
                inner = (weight[r1 | r2 | r3] - weight[r2 | r3]
                         - weight[r1 | r2] + weight[r2])
                if inner > 0:
                    return problems + [f"witness . x > 0 for triple masks {(r1, r2, r3)}"]
                if r2 == 0:
                    break
                r2 = (r2 - 1) & rest3
            r3 = (r3 - 1) & rest1
    return problems
