import math
import time
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from homcommon.graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph,
                              _hom_counts, all_labelled_graphs, automorphisms,
                              components, disjoint_union,
                              girth_and_cycle_count, graph_from_json,
                              graph_to_json, hom_count, make_family,
                              random_graph)
from homcommon import graphs
from homcommon.data import load_template
from homcommon.gluing import build_j
from homcommon.graphs import _mask_adjacency

K2 = make_family("path", 2)
K3 = make_family("complete", 3)
C5 = make_family("cycle", 5)


def brute_hom_count(h, g):
    """Oracle: enumerate every map V(h) -> V(g) directly."""
    count = 0
    for img in product(range(g.vertex_count), repeat=h.vertex_count):
        if all(img[u] != img[v] and tuple(sorted((img[u], img[v]))) in g.edges
               for u, v in h.edges):
            count += 1
    return count


def _adjacency(g):
    """g's 0/1 adjacency matrix, filled edge by edge."""
    adj = np.zeros((g.vertex_count, g.vertex_count), dtype=np.int64)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1
    return adj


def test_make_family_examples():
    c5 = make_family("cycle", 5)
    assert c5.vertex_count == 5
    assert c5.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})
    d = make_family("complete_minus_edge", 4)
    assert d.vertex_count == 4 and d.edge_count == 5
    assert d.degree_sequence() == (2, 2, 3, 3)
    p1 = make_family("path", 1)
    assert p1.vertex_count == 1 and p1.edge_count == 0


def test_make_family_rejects_bad_input():
    with pytest.raises(ValueError):
        make_family("cycle", 2)
    with pytest.raises(ValueError):
        make_family("path", 0)
    with pytest.raises(ValueError):
        make_family("complete_minus_edge", 1)
    with pytest.raises(ValueError):
        make_family("wheel", 5)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # endpoints must be sorted


def test_disjoint_union_counts():
    ku = disjoint_union(K3, K2)
    assert ku.vertex_count == 5 and ku.edge_count == 4
    empty = Graph(0, frozenset())
    assert disjoint_union(C5, empty) == C5
    kk = disjoint_union(K2, K2)
    assert kk.vertex_count == 4 and kk.edge_count == 2


def brute_automorphisms(g):
    out = []
    for img in permutations(range(g.vertex_count)):
        mapped = frozenset(tuple(sorted((img[u], img[v]))) for u, v in g.edges)
        if mapped == g.edges:
            out.append(img)
    return sorted(out)


@pytest.mark.parametrize("g,expected", [
    (C5, 10),
    (make_family("path", 4), 2),
    (disjoint_union(K3, K2), 12),
])
def test_automorphism_counts(g, expected):
    perms = list(automorphisms(g))
    assert len(perms) == expected
    assert sorted(perms) == brute_automorphisms(g)


def test_automorphisms_form_a_group():
    perms = list(automorphisms(disjoint_union(K3, K2)))
    images = set(perms)
    for p in perms:
        inverse = [0] * len(p)
        for v, w in enumerate(p):
            inverse[w] = v
        assert tuple(inverse) in images
        for q in perms:
            assert tuple(p[q[v]] for v in range(len(p))) in images


def test_automorphism_budget_names_caller():
    p11 = make_family("path", 11)
    with pytest.raises(BudgetExceededError, match="^automorphisms: .*budget 5$"):
        list(automorphisms(p11, budget=5))
    assert len(list(automorphisms(p11))) == 2


def test_hom_count_examples():
    assert hom_count(K2, K3) == 6
    assert hom_count(K3, C5) == 0
    # closed-walk oracle: hom(C5, K3) equals the trace of A^5
    a = np.ones((3, 3)) - np.eye(3)
    assert hom_count(C5, K3) == round(np.trace(np.linalg.matrix_power(a, 5)))
    assert hom_count(C5, K3) == 30


def test_hom_count_against_brute_force():
    for hs in range(20):
        h = random_graph(4, 300 + hs)
        g = random_graph(4, 800 + hs)
        assert hom_count(h, g) == brute_hom_count(h, g)


def test_hom_count_multiplicative_over_components():
    for s in range(10):
        a = random_graph(3, 50 + s)
        b = random_graph(4, 150 + s)
        g = random_graph(4, 250 + s)
        assert hom_count(disjoint_union(a, b), g) == hom_count(a, g) * hom_count(b, g)


def test_hom_count_closed_walk_identity():
    for m in range(3, 8):
        cm = make_family("cycle", m)
        for n in range(2, 6):
            kn = make_family("complete", n)
            a = np.ones((n, n)) - np.eye(n)
            assert hom_count(cm, kn) == round(np.trace(np.linalg.matrix_power(a, m)))


@settings(max_examples=150, deadline=None)
@given(small_graphs(5), small_graphs(5))
def test_hom_count_matches_brute_force(h, g):
    assert hom_count(h, g) == brute_hom_count(h, g)


def test_hom_count_python_int_path_is_exact():
    # 5^30 > 2^63, so the count is carried in Python ints
    assert hom_count(make_family("path", 30), make_family("complete", 5)) == 5 * 4**29
    assert hom_count(make_family("cycle", 31), make_family("complete", 5)) == 4**31 - 4


def _walk_count(g, length):
    """Walks of `length` edges in g, in Python ints: the path hom count."""
    nbrs = g.neighbor_sets()
    ends = [1] * g.vertex_count
    for _ in range(length):
        ends = [sum(ends[u] for u in nbrs[v]) for v in range(g.vertex_count)]
    return sum(ends)


@pytest.mark.parametrize("h,exact", [(C5, "int64"), (make_family("complete", 4), "int64"),
                                     (make_family("path", 30), "object")])
def test_batched_hom_counts_are_exact_in_either_dtype(h, exact):
    # 40 graphs on 5 vertices in one batch; P30 needs 5^30 > 2^63, so Python ints
    gs = [random_graph(5, 900 + s) for s in range(40)]
    counts = _hom_counts(h, np.stack([_adjacency(g) for g in gs]), DEFAULT_WORK_BUDGET, "test")
    assert all(type(c) is int for c in counts)
    assert counts == [hom_count(h, g) for g in gs]
    if exact == "object":
        assert counts == [_walk_count(g, 29) for g in gs]
    else:
        assert counts[:8] == [brute_hom_count(h, g) for g in gs[:8]]


def test_hom_count_budget():
    with pytest.raises(BudgetExceededError):
        hom_count(make_family("path", 8), make_family("complete", 5), budget=10)


def test_contract_refuses_v_times_q_terms_before_planning(monkeypatch):
    # every vertex is summed out in a step of at least q terms
    planned = []
    plan = graphs._plan
    monkeypatch.setattr(graphs, "_plan", lambda h: planned.append(h) or plan(h))
    p8, k5 = make_family("path", 8), make_family("complete", 5)
    with pytest.raises(BudgetExceededError, match="^hom_count: contracting a 8-vertex graph "
                       "over 5 values needs at least 40 terms, budget 39$"):
        hom_count(p8, k5, budget=39)
    assert planned == []
    # at 40 the plan is made, and its 7 steps of 25 terms and one of 5 need more
    with pytest.raises(BudgetExceededError, match="^hom_count: .* 180 terms, budget 40$"):
        hom_count(p8, k5, budget=40)
    assert planned == [p8]
    assert hom_count(p8, k5, budget=180) == 5 * 4**7


def _quadratic_plan(h):
    """The planner as it was before its heap: each step scans every remaining
    vertex for the least (degree, label) and every factor for the ones that
    mention it.  Its steps run as `graphs._three_operand_calls`."""
    letters = graphs._EINSUM_LETTERS
    adj = h.neighbor_sets()
    factors = list(enumerate(sorted(h.edges)))
    factors += [(h.edge_count, (v,)) for v in range(h.vertex_count)]
    remaining = set(range(h.vertex_count))
    calls, widths, scalars = [], [], []
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        scope = sorted(adj[v] | {v})
        letter = dict(zip(scope, letters))
        touching = [f for f in factors if v in f[1]]
        factors = [f for f in factors if v not in f[1]]
        out = tuple(u for u in scope if u != v)
        terms = ["".join(letter[u] for u in f[1]) for f in touching]
        result_id = h.edge_count + 1 + len(widths)
        calls += graphs._three_operand_calls(
            terms, [f[0] for f in touching], "".join(letter[u] for u in out), result_id,
            h.edge_count + 1 + h.vertex_count + len(calls) - len(widths))
        widths.append(len(scope))
        if out:
            factors.append((result_id, out))
        else:
            scalars.append(result_id)
        for a in adj[v]:
            adj[a] |= adj[v] - {a}
            adj[a].discard(v)
        remaining.discard(v)
    return graphs._Plan(tuple(calls), tuple(widths), tuple(scalars))


@settings(max_examples=300, deadline=None)
@given(h=small_graphs(9))
def test_plan_matches_the_quadratic_planner(h):
    # the same steps, operand order and widths
    assert graphs._plan.__wrapped__(h) == _quadratic_plan(h)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(10, 40), seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([0.05, 0.1, 0.2, 0.5]))
def test_plan_matches_the_quadratic_planner_on_larger_graphs(n, seed, p):
    h = random_graph(n, seed, p)
    assert graphs._plan.__wrapped__(h) == _quadratic_plan(h)


def _einsum_operand_counts(h, q=3):
    """(subscript inputs, operands) of each `np.einsum` call in one
    contraction of h over a batch of two random q-block kernels, and the
    calls of h's plan."""
    calls = []
    einsum = np.einsum

    def recorded(subscripts, *operands, **kwargs):
        calls.append((subscripts.count(",") + 1, len(operands)))
        return einsum(subscripts, *operands, **kwargs)

    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "einsum", recorded)
        graphs._contract(h, rng.uniform(size=(1, 2, q, q)), rng.uniform(size=(2, q)),
                         DEFAULT_WORK_BUDGET, "test")
    return calls, graphs._plan(h).calls


@settings(max_examples=200, deadline=None)
@given(h=small_graphs(9))
def test_every_einsum_call_has_three_operands(h):
    calls, planned = _einsum_operand_counts(h)
    assert calls == [(3, 3)] * len(planned)


@pytest.mark.parametrize("h", [make_family("complete", 6),
                               build_j(load_template("gen_c5_tree_a"))[0]],
                         ids=["K6", "J(gen_c5_tree_a)"])
def test_every_einsum_call_has_three_operands_on_wide_steps(h):
    calls, planned = _einsum_operand_counts(h, q=2)
    assert calls == [(3, 3)] * len(planned)
    # some step has four or more factors, so it runs products first
    assert len(planned) > len(graphs._plan(h).widths)


def test_three_operand_calls_multiply_the_narrowest_factors_first():
    # paw's hub step: the two weight vectors, then the sum with both edges
    assert graphs._three_operand_calls(["ab", "ac", "a", "a"], [10, 11, 12, 13], "bc",
                                       20, 30) == [("a...,a...,...->a...", (12, 13), 30),
                                                   ("ab...,ac...,a...->bc...", (10, 11, 30), 20)]
    assert graphs._three_operand_calls(["ab", "a"], [0, 1], "b", 5, 9) == [
        ("ab...,a...,...->b...", (0, 1), 5)]
    # K5's first step: five factors, two products, each over part of the scope
    assert graphs._three_operand_calls(["ab", "ac", "ad", "ae", "a"], [0, 1, 2, 3, 10],
                                       "bcde", 11, 16) == [
        ("a...,ab...,...->ab...", (10, 0), 16), ("ac...,ad...,...->acd...", (1, 2), 17),
        ("ae...,ab...,acd...->bcde...", (3, 16, 17), 11)]


def test_plan_of_a_long_path_is_linear():
    # the quadratic planner took ~17 s on P10000
    start = time.perf_counter()
    plan = graphs._plan.__wrapped__(make_family("path", 10_000))
    assert time.perf_counter() - start < 2.0
    assert plan.widths == (2,) * 9_999 + (1,)


def test_hom_count_elimination_width_limit():
    # eliminating a vertex of K53 sums over 53 indices, more than einsum names
    with pytest.raises(BudgetExceededError, match="53 vertices"):
        hom_count(make_family("complete", 53), make_family("complete", 1))


def test_girth_and_cycle_count():
    ku = disjoint_union(K3, K2)
    assert girth_and_cycle_count(ku, 3) == (3, 1)
    d = make_family("complete_minus_edge", 4)
    # oracle: enumerate vertex triples of the diamond directly
    triangles = sum(1 for t in combinations(range(4), 3)
                    if all(tuple(sorted(p)) in d.edges for p in combinations(t, 2)))
    assert girth_and_cycle_count(d, 3) == (3, triangles) == (3, 2)
    girth, c3 = girth_and_cycle_count(make_family("path", 4), 3)
    assert math.isinf(girth) and c3 == 0
    assert girth_and_cycle_count(make_family("cycle", 7), 7) == (7, 1)


def _canonical_form(g):
    pairs = list(combinations(range(g.vertex_count), 2))
    best = None
    for img in permutations(range(g.vertex_count)):
        mapped = frozenset(tuple(sorted((img[u], img[v]))) for u, v in g.edges)
        mask = tuple(1 if p in mapped else 0 for p in pairs)
        if best is None or mask < best:
            best = mask
    return best


def test_square_attachment_hom_inequality_all_small_graphs():
    """hom(J, G) >= hom(C5, G)^2 for J = pentagon+square graph plus K2,
    over every graph on at most 5 vertices (checked per isomorphism class,
    which covers all labelled graphs since hom counts are invariants)."""
    pent_sq = Graph.from_edges(8, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
                                   (4, 5), (4, 7), (5, 6), (6, 7)])
    j = disjoint_union(pent_sq, K2)
    reps = {}
    for n in range(1, 6):
        for g in all_labelled_graphs(n):
            reps.setdefault((n, _canonical_form(g)), g)
    assert len([k for k in reps if k[0] == 5]) == 34
    for g in reps.values():
        assert hom_count(j, g) >= hom_count(C5, g) ** 2


def test_components():
    ku = disjoint_union(K3, K2)
    assert components(ku) == [[0, 1, 2], [3, 4]]


def test_random_graph_deterministic():
    assert random_graph(5, 123) == random_graph(5, 123)
    assert random_graph(5, 123) != random_graph(5, 124)


def test_graph_json_round_trip():
    for s in range(5):
        g = random_graph(6, s)
        assert graph_from_json(graph_to_json(g)) == g
    # either endpoint order accepted on input
    g = graph_from_json({"n": 3, "edges": [[2, 0], [0, 1]]})
    assert g.edges == frozenset({(0, 2), (0, 1)})
    with pytest.raises(ValueError):
        graph_from_json({"edges": []})


@pytest.mark.parametrize("n", range(6))
def test_mask_adjacency_matches_all_labelled_graphs(n):
    labelled = list(all_labelled_graphs(n))
    stack = _mask_adjacency(n, list(range(len(labelled))))
    assert stack.shape == (len(labelled), n, n)
    for row, g in zip(stack, labelled):
        assert (row == _adjacency(g)).all()


def test_hom_count_contracts_one_unbatched_matrix(monkeypatch):
    shapes = []
    contract = graphs._contract

    def recorded(h, matrix, *rest):
        shapes.append(matrix.shape)
        return contract(h, matrix, *rest)

    monkeypatch.setattr(graphs, "_contract", recorded)
    assert hom_count(C5, K3) == 30
    assert shapes == [(1, 3, 3)]
