import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcommon import gluing
from homcommon.gluing import (_CANONICAL_TABLES, GluingTemplate, _canonical_table,
                              _class_counts, _z_terms, build_j, canonical_class,
                              template_from_json, template_to_json, x_vector)
from homcommon.graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph, automorphisms,
                              components, disjoint_union, make_family)

C3 = make_family("cycle", 3)
C5 = make_family("cycle", 5)
K3 = make_family("complete", 3)
P3 = make_family("path", 3)
P4 = make_family("path", 4)


def class_count(f, budget=DEFAULT_WORK_BUDGET):
    """Number of Aut(f)-orbits of subsets of V(f), the empty class included."""
    return len(set(_canonical_table(f, budget, "class_count")))


def test_canonical_class_examples():
    assert canonical_class(C5, {2}) == frozenset({0})
    assert canonical_class(C5, {1, 3}) == frozenset({0, 2})
    assert canonical_class(C5, range(5)) == frozenset(range(5))
    # orbit of {1,3} under the dihedral group, brute force
    orbit = {tuple(sorted(p[v] for v in (1, 3))) for p in automorphisms(C5)}
    assert min(orbit) == (0, 2)


def test_canonical_class_idempotent_and_invariant():
    for f in (C3, C5, P4):
        perms = list(automorphisms(f))
        for mask in range(1 << f.vertex_count):
            s = {v for v in range(f.vertex_count) if mask >> v & 1}
            rep = canonical_class(f, s)
            assert canonical_class(f, rep) == rep
            for p in perms:
                assert canonical_class(f, frozenset(p[v] for v in s)) == rep


def test_class_count():
    assert class_count(C5) == 8
    assert class_count(K3) == 4
    assert class_count(P3) == 6
    # Burnside cross-check: average number of fixed subsets over Aut(C5)
    perms = list(automorphisms(C5))
    fixed = 0
    for p in perms:
        for mask in range(1 << 5):
            s = frozenset(v for v in range(5) if mask >> v & 1)
            if frozenset(p[v] for v in s) == s:
                fixed += 1
    assert fixed // len(perms) == 8


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_class_table_matches_brute_force_orbits(f):
    n = f.vertex_count
    perms = [p for p in permutations(range(n))
             if {tuple(sorted((p[u], p[v]))) for u, v in f.edges} == f.edges]
    reps = set()
    for mask in range(1 << n):
        s = [v for v in range(n) if mask >> v & 1]
        rep = min(tuple(sorted(p[v] for v in s)) for p in perms)
        assert canonical_class(f, s) == frozenset(rep)
        reps.add(rep)
    assert class_count(f) == len(reps)


def test_template_invariants():
    with pytest.raises(ValueError):  # not a tree: cycle
        GluingTemplate.make(C5, 3, [(0, 1), (1, 2), (0, 2)], {}, {})
    with pytest.raises(ValueError):  # disconnected
        GluingTemplate.make(C5, 4, [(0, 1), (2, 3), (0, 1)], {}, {})
    with pytest.raises(ValueError):  # psi(st) not inside psi(s) & psi(t)
        GluingTemplate.make(C5, 2, [(0, 1)], {0: [0, 1], 1: [2]}, {(0, 1): [0]})
    with pytest.raises(ValueError):  # psi key for a non-edge
        GluingTemplate.make(C5, 3, [(0, 1), (1, 2)], {0: [0], 1: [0], 2: [0]},
                            {(0, 2): [0]})


def test_a_tree_edge_named_twice_is_refused():
    # build_j would glue along both subsets, but the certificate's JSON keeps one
    full = frozenset(range(5))
    with pytest.raises(ValueError, match="each tree edge once"):
        GluingTemplate(C5, 2, frozenset({(0, 1)}), (full, full),
                       (((0, 1), frozenset({0})), ((0, 1), frozenset())))
    with pytest.raises(ValueError, match="more than once"):
        GluingTemplate.make(C5, 2, [(0, 1)], {0: full, 1: full}, {(0, 1): [0], (1, 0): []})
    with pytest.raises(ValueError, match="more than once"):
        template_from_json({"F": "C5", "tree": {"nodes": 2, "edges": [[0, 1]]},
                            "psi_nodes": {"0": [0, 1, 2, 3, 4], "1": [0, 1, 2, 3, 4]},
                            "psi_edges": {"0-1": [0], "1-0": []}})
    # named once in either order, it is one edge
    t = GluingTemplate.make(C5, 2, [(0, 1)], {0: full, 1: full}, {(1, 0): [0]})
    assert t.psi_edges == (((0, 1), frozenset({0})),)


def test_make_checks_the_edge_count_before_any_psi_subset(monkeypatch):
    calls = []
    as_subset = gluing._as_subset
    monkeypatch.setattr(gluing, "_as_subset", lambda *a: calls.append(a) or as_subset(*a))
    with pytest.raises(ValueError, match="n-1 edges"):
        template_from_json({"F": "C5", "tree": {"nodes": 1000, "edges": []}})
    assert calls == []


def test_build_j_single_and_disjoint():
    single = GluingTemplate.make(C5, 1, [], {0: range(5)}, {})
    j, maps = build_j(single)
    assert j == C5
    assert maps[0] == {v: v for v in range(5)}
    two = GluingTemplate.make(C5, 2, [(0, 1)], {0: range(5), 1: range(5)},
                              {(0, 1): []})
    j2, _ = build_j(two)
    assert j2 == disjoint_union(C5, C5)


def _component_signature(g):
    return sorted((len(c), sum(1 for (u, v) in g.edges if u in c and v in c))
                  for c in components(g))


def test_build_j_chain_template():
    t = GluingTemplate.make(
        C5, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        {0: range(5), 1: range(5), 2: [0, 1, 2], 3: range(5), 4: [0, 1], 5: [0]},
        {(0, 1): [1, 2, 3, 4], (1, 2): [0], (2, 3): [2], (3, 4): [], (4, 5): []})
    j, _ = build_j(t)
    assert (j.vertex_count, j.edge_count) == (15, 15)
    assert _component_signature(j) == [(1, 0), (2, 1), (12, 14)]


def _random_template(f, rng):
    nodes = rng.randint(1, 5)
    edges = [(rng.randint(0, s - 1), s) for s in range(1, nodes)]
    psi_nodes = {}
    for s in range(nodes):
        psi_nodes[s] = [v for v in range(f.vertex_count) if rng.random() < 0.6]
    psi_edges = {}
    for (a, b) in edges:
        common = sorted(set(psi_nodes[a]) & set(psi_nodes[b]))
        psi_edges[(a, b)] = [v for v in common if rng.random() < 0.5]
    return GluingTemplate.make(f, nodes, edges, psi_nodes, psi_edges)


def _union_find_build_j(t):
    """Reference glue: union-find over (node, label) pairs, each class
    represented by its least pair, classes numbered in order of that pair."""
    parent = {(s, v): (s, v) for s in range(t.tree_nodes) for v in t.psi_nodes[s]}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (s, u), subset in t.psi_edges:
        for v in subset:
            a, b = sorted((find((s, v)), find((u, v))))
            parent[b] = a
    index = {root: i for i, root in enumerate(sorted({find(x) for x in parent}))}
    maps = [{v: index[find((s, v))] for v in t.psi_nodes[s]} for s in range(t.tree_nodes)]
    edges = {tuple(sorted((maps[s][u], maps[s][v])))
             for s in range(t.tree_nodes)
             for u, v in combinations(sorted(t.psi_nodes[s]), 2) if (u, v) in t.base.edges}
    return Graph(len(index), frozenset(edges)), maps


@st.composite
def _templates(draw):
    f = draw(st.sampled_from((C3, C5, make_family("cycle", 7))))
    n = f.vertex_count
    nodes = draw(st.integers(1, 7))
    order = draw(st.permutations(range(nodes)))
    edges = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, nodes)]
    psi_nodes = {s: draw(st.sets(st.integers(0, n - 1))) for s in range(nodes)}
    psi_edges = {(a, b): draw(st.sets(st.sampled_from(sorted(psi_nodes[a] & psi_nodes[b]))))
                 if psi_nodes[a] & psi_nodes[b] else set() for a, b in edges}
    return GluingTemplate.make(f, nodes, edges, psi_nodes, psi_edges)


@settings(max_examples=200, deadline=None)
@given(_templates())
def test_build_j_matches_union_find_reference(t):
    j, maps = build_j(t)
    assert (j, maps) == _union_find_build_j(t)


def test_build_j_vertex_count_formula():
    rng = random.Random(97)
    for _ in range(50):
        f = C3 if rng.random() < 0.5 else C5
        t = _random_template(f, rng)
        j, _ = build_j(t)
        expect = (sum(len(t.psi_nodes[s]) for s in range(t.tree_nodes))
                  - sum(len(sub) for _, sub in t.psi_edges))
        assert j.vertex_count == expect


def z(t):
    """z as integer counts per class, as the goodness check reads it."""
    return _class_counts(t.base, _z_terms(t))


def test_z_vector_examples():
    simple = GluingTemplate.make(C5, 3, [(0, 1), (0, 2)],
                                 {0: range(5), 1: range(5), 2: [0]},
                                 {(0, 1): [0], (0, 2): []})
    j, _ = build_j(simple)
    assert z(simple) == {tuple(range(5)): Fraction(j.edge_count, 5)}

    chain = GluingTemplate.make(C5, 5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                                {0: range(5), 1: range(5), 2: range(5),
                                 3: [0, 1], 4: [0, 1]},
                                {(0, 1): [4], (1, 2): [1, 2, 3], (2, 3): [], (3, 4): []})
    assert z(chain) == {tuple(range(5)): Fraction(3),
                        (0, 1): Fraction(2),
                        (0,): Fraction(-1),
                        (0, 1, 2): Fraction(-1)}

    lone = GluingTemplate.make(C5, 1, [], {0: [0]}, {})
    assert z(lone) == {(0,): Fraction(1)}


def test_x_vector_examples():
    assert x_vector(C5, (), {1}, {2}) == {}
    assert x_vector(C5, {0}, {1}, {2}) == {(0, 1, 2): 1, (0, 1): -2, (0,): 1}
    assert x_vector(C5, {0}, {1, 2}, {3}) == {(0, 1, 2, 3): 1, (0, 1, 2): -2, (0, 1): 1}
    with pytest.raises(ValueError):
        x_vector(C5, {0}, {0, 1}, {2})


def test_x_vector_symmetric_in_outer_parts():
    rng = random.Random(5)
    for _ in range(40):
        parts = [[], [], []]
        for v in range(5):
            slot = rng.randint(0, 3)
            if slot < 3:
                parts[slot].append(v)
        a = x_vector(C5, parts[0], parts[1], parts[2])
        b = x_vector(C5, parts[2], parts[1], parts[0])
        assert a == b


def test_template_json_round_trip():
    t = GluingTemplate.make(C5, 4, [(0, 1), (1, 2), (0, 3)],
                            {0: range(5), 1: [0, 1, 4], 2: [0, 1, 4], 3: [0, 1]},
                            {(0, 1): [4], (1, 2): [1, 4], (0, 3): []})
    assert template_from_json(template_to_json(t)) == t
    short = template_from_json({"F": "C5", "tree": {"nodes": 1, "edges": []},
                                "psi_nodes": {"0": [0, 1]}, "psi_edges": {}})
    assert short.base == C5
    with pytest.raises(ValueError):
        template_from_json({"F": "X9", "tree": {"nodes": 1, "edges": []}})


def test_build_j_merges_coincident_edges():
    """Two cycle copies glued along a shared edge keep that edge once."""
    t = GluingTemplate.make(C5, 2, [(0, 1)], {0: range(5), 1: range(5)},
                            {(0, 1): [0, 1]})
    j, maps = build_j(t)
    assert (j.vertex_count, j.edge_count) == (8, 9)
    assert maps[0][0] == maps[1][0] and maps[0][1] == maps[1][1]


def test_canonical_class_of_p13():
    p13 = make_family("path", 13)
    assert canonical_class(p13, {12}) == frozenset({0})
    assert canonical_class(p13, {5, 11}) == frozenset({1, 7})
    assert class_count(p13) == (2**13 + 2**7) // 2  # Burnside over the reflection


def test_class_table_budget_names_caller_and_charges_once():
    k6 = make_family("complete", 6)
    _CANONICAL_TABLES.pop(k6, None)
    # the table takes 6! * 2^6 images, at least the identity's 2^6 > 6, so
    # budget 6 is refused before the search; the search visits 1957 nodes and
    # finds the identity at its 7th, and the table is refused as soon as the
    # automorphisms found so far need more, 2 * 2^6 > 100, 157 * 2^6 > 10000
    with pytest.raises(BudgetExceededError,
                       match="^canonical_class: .* at least 64 subset images, budget 6$"):
        canonical_class(k6, {0}, budget=6)
    with pytest.raises(BudgetExceededError,
                       match="^canonical_class: .* at least 128 subset images, budget 100$"):
        canonical_class(k6, {0}, budget=100)
    with pytest.raises(BudgetExceededError,
                       match="^class_count: .* 10048 subset images, budget 10000$"):
        class_count(k6, budget=10_000)
    assert class_count(k6, budget=46_080) == 7
    assert canonical_class(k6, {3, 5}, budget=1) == frozenset({0, 1})
