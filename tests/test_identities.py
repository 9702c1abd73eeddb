import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from homcommon import identities
from homcommon.graphs import DEFAULT_WORK_BUDGET, random_graph
from homcommon.graphons import kernel_from_graph
from homcommon.identities import _subset_densities

from homcommon.graphs import Graph, make_family
from homcommon.graphons import (StepKernel, constant_kernel, density,
                                one_minus, sample_graphon, sample_kernel)
from homcommon.identities import (IDENTITY_SUITES, BudgetExceededError,
                                  c5_goodman_residual, expansion_residual,
                                  goodman_residual, max_identity_residual,
                                  score_kernels, strongly_common_gap)
from homcommon.graphs import _plan

K2 = make_family("path", 2)
P3 = make_family("path", 3)
K3 = make_family("complete", 3)
C5 = make_family("cycle", 5)
D = make_family("complete_minus_edge", 4)

IDENTITY_TOL = 1e-10


def test_expansion_residual_trivial_cases():
    w = sample_graphon(11, 4)
    assert abs(expansion_residual(K2, w, 0.7)) < 1e-12
    assert abs(expansion_residual(K3, constant_kernel(0.5), 0.5)) < 1e-12
    assert abs(expansion_residual(C5, sample_graphon(7, 4), 0.3)) < IDENTITY_TOL


def test_expansion_residual_suite(small_suite):
    k4 = make_family("complete", 4)
    for w in small_suite:
        shifts = (0.0, 0.3, density(K2, w), 1.0)
        for h in (K2, P3, K3, make_family("path", 4), C5, D, k4):
            for p in shifts:
                assert abs(expansion_residual(h, w, p)) < IDENTITY_TOL


def test_expansion_residual_charges_edge_subsets():
    big = make_family("complete", 6)  # 15 edges: 2^15 subsets
    with pytest.raises(BudgetExceededError, match="expansion_residual") as exc:
        expansion_residual(big, constant_kernel(0.5), 0.5, budget=2**15 - 1)
    assert str(2**15 - 1) in str(exc.value)


def test_expansion_residual_thirteen_edges():
    # K6 minus two disjoint edges: 2^13 subsets, within the default budget
    h = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                             if (u, v) not in ((0, 1), (2, 3))])
    assert h.edge_count == 13
    assert abs(expansion_residual(h, constant_kernel(0.5), 0.3)) < IDENTITY_TOL


def test_expansion_residual_thirteen_edges_several_chunks():
    # 2^13 subsets take several chunks of at most 2^10, each contracted on 4 blocks
    h = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                             if (u, v) not in ((0, 1), (2, 3))])
    w = sample_graphon(2, 4)
    assert w.block_count == 4
    for p in (0.3, density(K2, w)):
        assert abs(expansion_residual(h, w, p)) < IDENTITY_TOL


@pytest.mark.parametrize("h", [Graph(0, frozenset()), Graph(3, frozenset())])
def test_expansion_residual_without_edges(h):
    # one subset, the empty one; a graph without vertices has no plan steps
    assert abs(expansion_residual(h, sample_graphon(2, 4), 0.3)) < 1e-15


def test_expansion_residual_bounds_terms_per_contraction(monkeypatch):
    # K4 on 16 blocks: 16^4 + 16^3 + 16^2 + 16 = 69904 terms per subset, so
    # at most 2^20 // 69904 = 15 of the 64 subsets per contraction
    batches = []
    contract = identities._contract

    def recorded(h, matrices, *rest):
        batches.append(matrices.shape[1])
        return contract(h, matrices, *rest)

    monkeypatch.setattr(identities, "_contract", recorded)
    w = kernel_from_graph(random_graph(16, 5))
    assert abs(expansion_residual(make_family("complete", 4), w, 0.3)) < IDENTITY_TOL
    assert sum(batches) == 64 and max(batches) == 15


@settings(max_examples=40, deadline=None)
@given(h=small_graphs(5), seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3))
def test_subset_densities_match_per_subgraph_densities(h, seed, q):
    """t(h[E_S], u) from the one contraction over h equals `density` of the
    spanning subgraph h[E_S] on its own plan, for every edge subset S and u
    in [-1, 2].  The two sum in different orders, so the tolerance allows
    e(h) + v(h) (q + 3) roundings per term, taken relative to the sum of
    |terms|, t(h[E_S], |u|), as terms here may cancel."""
    rng = np.random.default_rng(seed)
    measures = rng.dirichlet(np.ones(q))
    raw = rng.uniform(-1.0, 2.0, size=(q, q))
    u = np.where(np.tri(q, dtype=bool), raw.T, raw)
    edges = sorted(h.edges)
    bits = np.arange(2 ** len(edges)) >> np.arange(len(edges))[:, None] & 1
    got = _subset_densities(h, measures, u, bits, DEFAULT_WORK_BUDGET)
    kernel = StepKernel(tuple(measures), tuple(map(tuple, u)))
    magnitude = StepKernel(tuple(measures), tuple(map(tuple, np.abs(u))))
    rounding = (h.edge_count + h.vertex_count * (q + 3)) * np.finfo(float).eps
    for s in range(2 ** len(edges)):
        sub = Graph(h.vertex_count, frozenset(e for k, e in enumerate(edges) if s >> k & 1))
        assert abs(got[s] - density(sub, kernel)) <= rounding * density(sub, magnitude)


def test_goodman_residual():
    for p in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert abs(goodman_residual(constant_kernel(p))) < 1e-12
    # 2-block bipartite graphon: t(K3) vanishes on one side
    w = StepKernel((0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)), graphon=True)
    assert density(K3, w) == 0.0
    assert abs(goodman_residual(w)) < 1e-12
    with pytest.raises(ValueError):
        goodman_residual(sample_kernel(0, 3))


def test_goodman_residual_suite(graphon_suite):
    assert max(abs(goodman_residual(w)) for w in graphon_suite) < IDENTITY_TOL


def test_c5_residual():
    for p in (0.0, 0.3, 0.5, 1.0):
        assert abs(c5_goodman_residual(constant_kernel(p))) < 1e-12
    with pytest.raises(ValueError):
        c5_goodman_residual(sample_kernel(0, 3))


def test_c5_residual_suite(graphon_suite):
    assert max(abs(c5_goodman_residual(w)) for w in graphon_suite) < IDENTITY_TOL


def test_strongly_common_gap_basics():
    assert abs(strongly_common_gap(K3, constant_kernel(0.35))) < 1e-12
    with pytest.raises(ValueError):
        strongly_common_gap(Graph(3, frozenset()), constant_kernel(0.5))


def test_strongly_common_odd_cycles(graphon_suite):
    for m in (3, 5, 7):
        cm = make_family("cycle", m)
        assert min(strongly_common_gap(cm, w) for w in graphon_suite) >= -1e-9


def test_strongly_common_odd_cycles_kernel_form():
    kernels = [sample_kernel(s, 4) for s in range(100)]
    for m in (3, 5, 7):
        cm = make_family("cycle", m)
        assert min(strongly_common_gap(cm, w) for w in kernels) >= -1e-9


def test_k3_gap_matches_rearranged_identity(graphon_suite):
    for w in graphon_suite[:40]:
        wc = one_minus(w)
        expect = (1.5 * (density(P3, w) - density(K2, w) ** 2)
                  + 1.5 * (density(P3, wc) - density(K2, wc) ** 2))
        assert strongly_common_gap(K3, w) == pytest.approx(expect, abs=IDENTITY_TOL)


def _supersaturation_gap(w):
    """t(K3,w) - t(K2,w)(2 t(K2,w) - 1); non-negative for every graphon."""
    edge = density(K2, w)
    return density(K3, w) - edge * (2.0 * edge - 1.0)


def test_supersaturation_gap(graphon_suite):
    assert _supersaturation_gap(constant_kernel(0.5)) == pytest.approx(0.125, abs=1e-15)
    assert _supersaturation_gap(constant_kernel(1.0)) == pytest.approx(0.0, abs=1e-15)
    assert min(_supersaturation_gap(w) for w in graphon_suite) >= -1e-9


P4 = make_family("path", 4)
P5 = make_family("path", 5)


def _goodman_loop(w):
    """The goodman residual of one kernel, one `density` call per graph and
    colour, summed over w and 1 - w in Python floats."""
    lhs = rhs = 0.0
    for wi in (w, one_minus(w)):
        lhs += density(K3, wi)
        edge = density(K2, wi)
        rhs += edge**3 + 1.5 * (density(P3, wi) - edge**2)
    return lhs - rhs


def _c5_goodman_loop(w):
    lhs = rhs = 0.0
    for wi in (w, one_minus(w)):
        lhs += density(C5, wi)
        edge = density(K2, wi)
        rhs += edge**5 + 5.0 * edge * density(P5, wi) - 5.0 * edge**2 * density(P4, wi)
    return lhs - rhs


def _bits(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("name, loop", [("goodman", _goodman_loop),
                                        ("c5goodman", _c5_goodman_loop)])
@pytest.mark.parametrize("sample", [sample_graphon, sample_kernel])
def test_batched_identity_suites_match_the_per_graphon_loop(name, loop, sample):
    # 1 to 4 blocks, so most rows are padded; kernels take values in [-1, 2]
    kernels = [sample(s) for s in range(80)]
    assert {w.block_count for w in kernels} == {1, 2, 3, 4}
    got = IDENTITY_SUITES[name](kernels, DEFAULT_WORK_BUDGET)
    assert _bits(got) == _bits(loop(w) for w in kernels)


def test_identity_suites_match_the_one_graphon_residuals(graphon_suite):
    for name, residual in (("goodman", goodman_residual), ("c5goodman", c5_goodman_residual)):
        assert _bits(IDENTITY_SUITES[name](graphon_suite, DEFAULT_WORK_BUDGET)) == _bits(
            residual(w) for w in graphon_suite)
        assert max_identity_residual(name, range(100)) == max(
            abs(residual(w)) for w in graphon_suite)


@pytest.mark.parametrize("name, residual, graphs", [
    ("goodman", goodman_residual, (K3, K2, P3)),
    ("c5goodman", c5_goodman_residual, (C5, K2, P5, P4)),
])
def test_identity_suite_budget_is_its_largest_graphons_charge(name, residual, graphs):
    seeds = range(10)
    q = max(sample_graphon(s).block_count for s in seeds)
    assert q == 4
    charge = max(sum(q**width for width in _plan(h).widths) for h in graphs)
    max_identity_residual(name, seeds, budget=charge)
    for w in map(sample_graphon, seeds):
        residual(w, charge)
    with pytest.raises(BudgetExceededError, match="^density: "):
        max_identity_residual(name, seeds, budget=charge - 1)
    with pytest.raises(BudgetExceededError, match="^density: "):
        for w in map(sample_graphon, seeds):
            residual(w, charge - 1)


def test_suite_spanning_chunks_equals_one_chunk(monkeypatch):
    graphs = identities._C5_GOODMAN_GRAPHS * 2

    def work(q):
        return sum(sum(q**width for width in _plan(h).widths) for h in graphs)

    kernels = [sample_graphon(s) for s in range(40)]
    whole = list(score_kernels(identities._c5_goodman_residuals, graphs, kernels))
    for terms in (8 * work(4) - 1, 3 * work(2), work(1), 1):
        monkeypatch.setattr(identities, "_CHUNK_TERMS", terms)
        seen = []

        def spy(measures, values, budget):
            seen.append(measures.shape)
            return identities._c5_goodman_residuals(measures, values, budget)

        # read once, as a generator
        assert _bits(score_kernels(spy, graphs, iter(kernels))) == _bits(whole)
        assert sum(rows for rows, _ in seen) == len(kernels) and len(seen) > 1
        # each chunk within the bound at the largest block count read so far
        top = 0
        for rows, q in seen:
            top = max(top, q)
            assert rows == 1 or rows * work(top) <= terms


@pytest.mark.parametrize("name", sorted(IDENTITY_SUITES))
def test_identity_suites_reject_an_empty_seed_list(name):
    for seeds in ([], range(0), iter(())):
        with pytest.raises(ValueError, match=f"the {name} suite needs at least one seed"):
            max_identity_residual(name, seeds)
