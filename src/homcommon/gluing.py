"""Gluing templates over a base graph F and their class-indexed vectors.

A template is a tree T with subsets of V(F) attached to its nodes and
edges (edge sets contained in both endpoint sets).  Gluing the induced
subgraphs F[psi(s)] along shared labels yields the generalized F-tree.
Subset classes are orbits of 2^V(F) under Aut(F), looked up in a table
indexed by subset bitmask; a class vector is a dict from canonical class
representatives (sorted vertex tuples) to nonzero coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph, _json_shaped,
                     automorphisms, components, graph_from_json, orbit_minima, parse_family)

_CANONICAL_TABLES: dict[Graph, tuple[int, ...]] = {}


def _as_subset(f: Graph, s) -> frozenset[int]:
    out = frozenset(int(v) for v in s)
    for v in out:
        if not 0 <= v < f.vertex_count:
            raise ValueError(f"vertex {v} not in the base graph")
    return out


def _lex_submasks(n: int) -> tuple[list[list[int]], list[int]]:
    """For every mask r < 2^n, the submasks of r in lexicographic order of
    their sorted vertex tuples (the empty set, then the sets whose least
    vertex is the least vertex v of r, then those of r - {v} without the
    empty set); and for every mask, its rank in that order over all of V."""
    lex = [[0]]
    for r in range(1, 1 << n):
        low = r & -r
        rest = lex[r ^ low]
        lex.append([0] + [low | s for s in rest] + rest[1:])
    rank = [0] * (1 << n)
    for i, mask in enumerate(lex[-1]):
        rank[mask] = i
    return lex, rank


def _mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a subset mask as a sorted tuple."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _canonical_table(f: Graph, budget: int, caller: str) -> tuple[int, ...]:
    """Indexed by subset mask of V(f): the mask of its canonical
    representative, the lexicographically least sorted tuple over Aut(f).

    Built once per base graph and process.  The automorphism search charges
    its nodes against `budget`, and each automorphism it yields charges
    2^v(f) subset images; the table is refused as soon as the images exceed
    `budget` (before the search, for the identity's), and before any is
    built.  Errors name `caller`.  The table is `orbit_minima`, by lex rank.
    """
    table = _CANONICAL_TABLES.get(f)
    if table is not None:
        return table
    n = f.vertex_count
    perms = []
    try:
        images = 1 << n
        if images <= budget:
            for perm in automorphisms(f, budget):
                perms.append(perm)
                images = len(perms) << n
                if images > budget:
                    break
        if images > budget:
            raise BudgetExceededError(
                f"canonicalising subsets of a {n}-vertex base takes at least "
                f"{images} subset images, budget {budget}")
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{caller}: {exc}") from None
    table = tuple(orbit_minima(n, perms, _lex_submasks(n)[1]).tolist())
    _CANONICAL_TABLES[f] = table
    return table


def canonical_class(f: Graph, s, budget: int = DEFAULT_WORK_BUDGET) -> frozenset[int]:
    """Least subset (in sorted-list lexicographic order) equivalent to s
    under the automorphism group of f."""
    mask = sum(1 << v for v in _as_subset(f, s))
    return frozenset(_mask_vertices(_canonical_table(f, budget, "canonical_class")[mask]))


@dataclass(frozen=True)
class GluingTemplate:
    """Tree T plus subset assignments on nodes and edges of T.

    psi_nodes is indexed by node; psi_edges maps sorted tree edges to
    subsets with psi(st) contained in psi(s) and psi(t).
    """

    base: Graph
    tree_nodes: int
    tree_edges: frozenset[tuple[int, int]]
    psi_nodes: tuple[frozenset[int], ...]
    psi_edges: tuple[tuple[tuple[int, int], frozenset[int]], ...]

    def __post_init__(self):
        k = self.tree_nodes
        if k < 1:
            raise ValueError("template tree needs at least one node")
        if len(self.tree_edges) != k - 1:
            raise ValueError("template tree must have exactly n-1 edges")
        for s, t in self.tree_edges:
            if not (0 <= s < t < k):
                raise ValueError(f"tree edge ({s},{t}) out of range")
        # k - 1 distinct edges form a tree exactly when they connect all k nodes
        if len(components(Graph(k, self.tree_edges))) != 1:
            raise ValueError("tree edges contain a cycle")
        if len(self.psi_nodes) != k:
            raise ValueError("psi_nodes must cover every tree node")
        if sorted(e for e, _ in self.psi_edges) != sorted(self.tree_edges):
            raise ValueError("psi_edges must name each tree edge once, and no other")
        for (s, t), subset in self.psi_edges:
            if not subset <= (self.psi_nodes[s] & self.psi_nodes[t]):
                raise ValueError(
                    f"psi({s},{t}) must be contained in psi({s}) and psi({t})")

    @classmethod
    def make(cls, base: Graph, tree_nodes: int, tree_edges,
             psi_nodes: dict, psi_edges: dict) -> "GluingTemplate":
        """Build from mappings; missing psi entries default to the empty set."""
        edges = frozenset(tuple(sorted((int(s), int(t)))) for s, t in tree_edges)
        if len(edges) != tree_nodes - 1:
            raise ValueError("template tree must have exactly n-1 edges")
        nodes = tuple(_as_subset(base, psi_nodes.get(i, ())) for i in range(tree_nodes))
        unknown = set(psi_nodes) - set(range(tree_nodes))
        if unknown:
            raise ValueError(f"psi_nodes refers to unknown tree nodes {sorted(unknown)}")
        edge_psis = {}
        for key, subset in psi_edges.items():
            e = tuple(sorted((int(key[0]), int(key[1]))))
            if e not in edges:
                raise ValueError(f"psi_edges refers to non-tree edge {e}")
            if e in edge_psis:
                raise ValueError(f"psi_edges names tree edge {e} more than once")
            edge_psis[e] = _as_subset(base, subset)
        full = tuple(sorted((e, edge_psis.get(e, frozenset())) for e in edges))
        return cls(base, tree_nodes, edges, nodes, full)


def build_j(t: GluingTemplate):
    """Glue the copies F[psi(s)] along the tree into the generalized F-tree.

    Identification is the transitive closure of the per-edge label
    matchings: the components of the graph on the (node, label) pairs, in
    lexicographic order, that links (s, v) to (u, v) for each v in
    psi(s, u).  Glued vertex ids follow the components' least pairs, and
    coincident edges merge.  Returns the glued graph and, per tree node,
    the map from original F-labels to glued vertex ids.
    """
    pairs = sorted((s, v) for s in range(t.tree_nodes) for v in t.psi_nodes[s])
    index = {pair: i for i, pair in enumerate(pairs)}
    links = [(index[(s, v)], index[(u, v)]) for (s, u), subset in t.psi_edges for v in subset]
    comps = components(Graph(len(pairs), frozenset(links)))
    glued = {pairs[i]: c for c, comp in enumerate(comps) for i in comp}
    node_vertex_maps = [{v: glued[(s, v)] for v in t.psi_nodes[s]} for s in range(t.tree_nodes)]
    edges = set()
    for s in range(t.tree_nodes):
        mapping = node_vertex_maps[s]
        for u, v in combinations(sorted(t.psi_nodes[s]), 2):
            if (u, v) in t.base.edges:
                a, b = mapping[u], mapping[v]
                edges.add((a, b) if a < b else (b, a))
    return Graph(len(comps), frozenset(edges)), node_vertex_maps


def _class_counts(f: Graph, terms) -> dict[tuple[int, ...], int]:
    """sum(w * e(s)) over the (int w, subset s) terms, as nonzero ints keyed by
    nonempty canonical class, read from f's class table (cached, else built)."""
    canon = _canonical_table(f, DEFAULT_WORK_BUDGET, "class_counts")
    counts: dict[int, int] = {}
    for w, s in terms:
        k = canon[sum(1 << v for v in s)]
        counts[k] = counts.get(k, 0) + w
    return {_mask_vertices(k): v for k, v in counts.items() if k and v}


def _z_terms(t: GluingTemplate, w: int = 1) -> list[tuple[int, frozenset[int]]]:
    """w times z as terms: w per tree node's subset, -w per tree edge's."""
    return [(w, s) for s in t.psi_nodes] + [(-w, s) for _, s in t.psi_edges]


def _x_terms(f: Graph, r1, r2, r3) -> tuple[tuple[int, frozenset[int]], ...]:
    """x's terms; ValueError unless r1, r2, r3 are pairwise disjoint subsets of V(f)."""
    r1, r2, r3 = _as_subset(f, r1), _as_subset(f, r2), _as_subset(f, r3)
    if r1 & r2 or r1 & r3 or r2 & r3:
        raise ValueError("r1, r2, r3 must be pairwise disjoint")
    return (1, r1 | r2 | r3), (-1, r2 | r3), (-1, r1 | r2), (1, r2)


def x_vector(f: Graph, r1, r2, r3) -> dict[tuple[int, ...], int]:
    """e(r1|r2|r3) - e(r2|r3) - e(r1|r2) + e(r2) for pairwise disjoint parts,
    as nonzero integer coefficients keyed by canonical class.

    May be the zero vector, {} (always when r1 or r3 is empty).
    """
    return _class_counts(f, _x_terms(f, r1, r2, r3))


def template_to_json(t: GluingTemplate) -> dict:
    return {
        "F": {"n": t.base.vertex_count, "edges": [list(e) for e in sorted(t.base.edges)]},
        "tree": {"nodes": t.tree_nodes, "edges": [list(e) for e in sorted(t.tree_edges)]},
        "psi_nodes": {str(i): sorted(t.psi_nodes[i]) for i in range(t.tree_nodes)},
        "psi_edges": {f"{s}-{u}": sorted(subset) for (s, u), subset in t.psi_edges},
    }


def _node_label(key: str, what: str) -> int:
    """The tree node a psi map key names; only str(n), as template_to_json
    writes it, names node n."""
    if not (key.isascii() and key.isdigit() and key == str(int(key))):
        raise ValueError(f"{what}: {key!r} is not a tree node label")
    return int(key)


def template_from_json(obj: dict) -> GluingTemplate:
    """Parse the template JSON format; the base graph may be a family
    string such as "C5" or an inline graph object."""
    if not isinstance(obj, dict) or "F" not in obj or "tree" not in obj:
        raise ValueError("template JSON needs 'F' and 'tree' fields")
    raw_f = obj["F"]
    if isinstance(raw_f, str):
        base = parse_family(raw_f)
        if base is None:
            raise ValueError(f"unrecognised base graph string {raw_f!r}")
    else:
        base = graph_from_json(raw_f)
    tree = _json_shaped(obj["tree"], dict, "template 'tree'")
    nodes = _json_shaped(tree.get("nodes"), int, "template tree 'nodes'")
    edges = _json_shaped(tree.get("edges"), [[int]], "template tree 'edges'")
    psi_nodes = {_node_label(k, "psi_nodes"): _json_shaped(v, [int], f"psi_nodes[{k!r}]")
                 for k, v in _json_shaped(obj.get("psi_nodes", {}), dict, "psi_nodes").items()}
    psi_edges = {}
    for key, subset in _json_shaped(obj.get("psi_edges", {}), dict, "psi_edges").items():
        s, _, u = key.partition("-")
        what = f"psi_edges[{key!r}]"
        psi_edges[(_node_label(s, what), _node_label(u, what))] = _json_shaped(subset, [int], what)
    return GluingTemplate.make(base, nodes, edges, psi_nodes, psi_edges)
