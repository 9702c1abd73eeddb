import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digest, small_graphs
from homcommon import data
from homcommon.gluing import build_j
from homcommon.graphs import (BudgetExceededError, disjoint_union, hom_count,
                              make_family, random_graph)
from homcommon.graphs import DEFAULT_WORK_BUDGET, _contract, _plan
from homcommon.graphons import (StepKernel, _sample_arrays, constant_kernel, densities,
                                density, kernel_arrays, kernel_from_graph,
                                kernel_from_json, kernel_to_json, one_minus,
                                sample_graphon, sample_kernel, stack_kernels)

K2 = make_family("path", 2)
K3 = make_family("complete", 3)
C5 = make_family("cycle", 5)


def test_kernel_invariants():
    with pytest.raises(ValueError):
        StepKernel((0.5, 0.4), ((0.1, 0.2), (0.2, 0.3)))  # measures sum != 1
    with pytest.raises(ValueError):
        StepKernel((0.5, 0.5), ((0.1, 0.2), (0.3, 0.4)))  # asymmetric
    with pytest.raises(ValueError):
        StepKernel((1.0,), ((1.5,),), graphon=True)  # graphon value out of range
    StepKernel((1.0,), ((1.5,),))  # fine as a plain kernel


@pytest.mark.parametrize("measures", [(math.nan, 1.0), (math.inf, 0.5), (0.5, -math.inf)])
def test_kernel_rejects_non_finite_measures(measures):
    with pytest.raises(ValueError, match="measures must be finite"):
        StepKernel(measures, ((0.5, 0.5), (0.5, 0.5)), graphon=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("graphon", [False, True])
def test_kernel_rejects_non_finite_values(bad, graphon):
    # a NaN on the diagonal is rejected as non-finite, not as asymmetric
    with pytest.raises(ValueError, match="values must be finite"):
        StepKernel((0.5, 0.5), ((bad, 0.5), (0.5, 0.5)), graphon=graphon)
    with pytest.raises(ValueError, match="values must be finite"):
        StepKernel((0.5, 0.5), ((0.5, bad), (bad, 0.5)), graphon=graphon)


def test_density_constant_kernels():
    assert density(K2, constant_kernel(0.37)) == pytest.approx(0.37, abs=1e-15)
    assert density(C5, constant_kernel(0.5)) == pytest.approx(1 / 32, abs=1e-15)
    assert density(make_family("path", 1), constant_kernel(0.3)) == 1.0


def test_density_matches_hom_counts():
    w = kernel_from_graph(K3)
    assert density(K3, w) == pytest.approx(hom_count(K3, K3) / 3**3, abs=1e-12)
    for s in range(10):
        g = random_graph(4, 40 + s)
        w = kernel_from_graph(g)
        for h in (K2, K3, C5, make_family("path", 4)):
            expect = hom_count(h, g) / g.vertex_count**h.vertex_count
            assert density(h, w) == pytest.approx(expect, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(small_graphs(6), small_graphs(5).filter(lambda g: g.vertex_count > 0))
def test_density_of_graph_kernel_scales_to_hom_count(h, g):
    hom = hom_count(h, g)
    scaled = density(h, kernel_from_graph(g)) * g.vertex_count**h.vertex_count
    assert abs(scaled - hom) <= 1e-12 * hom


def test_density_in_unit_interval_and_multiplicative(graphon_suite):
    p3 = make_family("path", 3)
    both = disjoint_union(K3, p3)
    for w in graphon_suite[:30]:
        d = density(both, w)
        assert -1e-12 <= d <= 1 + 1e-12
        assert d == pytest.approx(density(K3, w) * density(p3, w), abs=1e-12)


@st.composite
def step_kernels(draw, min_blocks, max_blocks, low, high):
    """Kernels with positive block measures and values in [low, high]."""
    q = draw(st.integers(min_blocks, max_blocks))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=q, max_size=q))
    total = math.fsum(raw)
    vals = [[0.0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            vals[i][j] = vals[j][i] = draw(st.floats(low, high))
    return StepKernel(tuple(r / total for r in raw), tuple(tuple(row) for row in vals),
                      graphon=low >= 0.0 and high <= 1.0)


def brute_density_terms(h, w):
    """Oracle: one term per map V(h) -> blocks."""
    q = w.block_count
    for phi in product(range(q), repeat=h.vertex_count):
        term = math.prod(w.measures[b] for b in phi)
        yield term * math.prod(w.values[phi[u]][phi[v]] for u, v in h.edges)


@settings(max_examples=80, deadline=None)
@given(small_graphs(6), step_kernels(1, 4, -1.0, 2.0))
def test_density_matches_brute_force(h, w):
    terms = list(brute_density_terms(h, w))
    # float64 contraction in another summation order: error ~ eps * sum |terms|
    tol = 1e-12 * max(1.0, math.fsum(abs(t) for t in terms))
    assert abs(density(h, w) - math.fsum(terms)) <= tol


def _split_block(w, i, share):
    """w with block i replaced by two twin blocks of measures share * m_i and
    (1 - share) * m_i; t(h, w) is unchanged for every h."""
    order = list(range(w.block_count)) + [i]
    measures = list(w.measures) + [(1.0 - share) * w.measures[i]]
    measures[i] *= share
    values = tuple(tuple(w.values[a][b] for b in order) for a in order)
    return StepKernel(tuple(measures), values, graphon=w.graphon)


@settings(max_examples=20, deadline=None)
@given(step_kernels(3, 3, 0.0, 1.0), st.integers(0, 2), st.floats(0.05, 0.95))
def test_density_invariant_under_twin_block_split(w, i, share):
    j, _ = build_j(data.load_template("gen_c5_tree_a"))
    assert j.vertex_count == 15  # 4^15 terms: beyond the budget of a plain sum
    split = _split_block(w, i, share)
    assert split.block_count == 4
    assert density(j, split) == pytest.approx(density(j, w), rel=1e-12, abs=1e-300)


def test_density_budget():
    with pytest.raises(BudgetExceededError):
        density(C5, sample_graphon(0, 4), budget=3)


def test_complement():
    half = constant_kernel(0.5)
    assert one_minus(half) == half
    w = constant_kernel(0.3)
    assert one_minus(w).values == ((0.7,),)
    g = sample_graphon(5, 4)
    assert one_minus(one_minus(g)) == g


def test_sample_graphon_deterministic_and_valid():
    for seed in range(100):
        w = sample_graphon(seed, 4)
        assert w == sample_graphon(seed, 4)
        assert w.graphon
        assert 1 <= w.block_count <= 4
        assert abs(math.fsum(w.measures) - 1.0) < 1e-12
    assert sample_graphon(0, 4) != sample_graphon(1, 4)


def test_sample_kernel_range():
    for seed in range(20):
        w = sample_kernel(seed, 4)
        assert not w.graphon
        assert all(-1.0 <= v <= 2.0 for row in w.values for v in row)
        assert w == sample_kernel(seed, 4)


# digest([sample(s, k) for s in range(200)]) for k = 1..6, recorded at commit
# 8dd3916, when `sample_graphon`, `sample_kernel` and `falsify` each wrote out
# the draw that `graphons._draw` now makes once
_SAMPLE_DIGESTS = {
    "sample_graphon": {1: "08e656209c854bbf", 2: "78106115aa6cb06f", 3: "b6ddd5503d1d8e6f",
                       4: "9d7dd5446c3087ee", 5: "20f5ebee41f1639d", 6: "5152384410cb8fd6"},
    "sample_kernel": {1: "680dce8067b7d767", 2: "f2a6def404376978", 3: "4f51ff6de068e69b",
                      4: "fadbaeaee447f577", 5: "b2e5424e75208269", 6: "3d948497a1664857"},
}


@pytest.mark.parametrize("sample", [sample_graphon, sample_kernel])
def test_samplers_keep_their_recorded_bits(sample):
    got = {k: digest([sample(s, k) for s in range(200)]) for k in range(1, 7)}
    assert got == _SAMPLE_DIGESTS[sample.__name__]


def test_sample_arrays_are_the_arrays_of_sample_graphon():
    for seed, k in product(range(50), (1, 4, 6)):
        measures, values = _sample_arrays(seed, k)
        m, v = kernel_arrays(sample_graphon(seed, k))
        assert measures.tobytes() == m.tobytes() and values.tobytes() == v.tobytes()
    for sample in (_sample_arrays, sample_graphon, sample_kernel):
        with pytest.raises(ValueError, match="^max_blocks must be at least 1$"):
            sample(0, 0)


def test_path_inequalities(graphon_suite):
    """Odd-ended path power inequalities plus the t(P5) >= t(K2) t(P4) corollary."""
    paths = {k: make_family("path", k) for k in (1, 2, 3, 4, 5)}
    for w in graphon_suite:
        t = {k: density(p, w) for k, p in paths.items()}
        assert t[1] == pytest.approx(1.0, abs=1e-12)
        assert t[1] ** 3 * t[5] - t[2] ** 4 >= -1e-9
        assert t[1] * t[5] ** 3 - t[4] ** 4 >= -1e-9
        assert t[3] * t[5] - t[4] ** 2 >= -1e-9
        assert t[5] - t[2] * t[4] >= -1e-9


def test_one_minus_on_kernels():
    w = sample_kernel(7, 3)
    v = one_minus(w)
    assert v.values[0][0] == pytest.approx(1.0 - w.values[0][0])
    assert not v.graphon
    assert one_minus(sample_graphon(7, 3)).graphon


def test_kernel_json_round_trip():
    for seed in range(5):
        w = sample_graphon(seed, 4)
        assert kernel_from_json(kernel_to_json(w)) == w
    with pytest.raises(ValueError):
        kernel_from_json({"measures": [1.0]})
    # 'graphon' must be a JSON boolean, measures and values lists of numbers
    for broken in ({"measures": [1.0], "values": [[0.5]], "graphon": "false"},
                   {"measures": [1.0], "values": [[0.5]], "graphon": 0},
                   {"measures": "1", "values": [[0.5]]},
                   {"measures": [True], "values": [[0.5]]},
                   {"measures": [1.0], "values": ["1"]},
                   {"measures": [1.0], "values": [["0.5"]]}):
        with pytest.raises(ValueError):
            kernel_from_json(broken)


@settings(max_examples=80, deadline=None)
@given(h=small_graphs(5), seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4),
       pad=st.integers(1, 3))
def test_zero_measure_padding_keeps_densities(h, seed, q, pad):
    """Blocks of measure 0 and value 0 appended to a batch of graphons, as
    `falsify` pads its restarts, leave every density unchanged."""
    rng = np.random.default_rng(seed)
    measures = rng.dirichlet(np.ones(q), size=3)
    raw = rng.uniform(size=(3, q, q))
    values = np.triu(raw) + np.swapaxes(np.triu(raw, 1), 1, 2)
    padded_m = np.zeros((3, q + pad))
    padded_v = np.zeros((3, q + pad, q + pad))
    padded_m[:, :q] = measures
    padded_v[:, :q, :q] = values
    plain = densities(h, measures, values)
    padded = densities(h, padded_m, padded_v)
    assert np.all(np.abs(padded - plain) <= 1e-15 * np.abs(plain))


def test_stack_kernels_pads_to_the_largest_block_count():
    kernels = [sample_kernel(s) for s in range(12)]
    measures, values = stack_kernels(kernel_arrays(w) for w in kernels)
    top = max(w.block_count for w in kernels)
    assert measures.shape == (12, top) and values.shape == (12, top, top)
    both = densities(C5, measures, np.stack((values, 1.0 - values)))
    for k, w in enumerate(kernels):
        q = w.block_count
        m, v = kernel_arrays(w)
        assert np.array_equal(measures[k, :q], m) and np.array_equal(values[k, :q, :q], v)
        assert not measures[k, q:].any()
        assert not values[k, q:].any() and not values[k, :, q:].any()
        # padded rows keep the bits of w and of 1 - w, alone
        assert both[0, k] == density(C5, w) and both[1, k] == density(C5, one_minus(w))


@settings(max_examples=60, deadline=None)
@given(h=small_graphs(6), seed=st.integers(0, 2**32 - 1), q=st.integers(1, 9),
       count=st.integers(33, 48), stacked=st.booleans(), pad=st.integers(1, 3),
       data=st.data())
def test_densities_rows_do_not_depend_on_their_batch(h, seed, q, count, stacked, pad, data):
    """A graphon's densities are the same bits whatever batch it is scored
    in: any contiguous sub-batch, alone as a batch of one, or padded with
    zero-measure, zero-value blocks as `falsify` pads its restarts.  Stacked
    batches are w and 1 - w of shape (2, count), as `_common_gap` scores
    them.  Rows also equal one-kernel calls, which are batches with no axes."""
    rng = np.random.default_rng(seed)
    measures = rng.dirichlet(np.ones(q), size=count)
    raw = rng.uniform(size=(count, q, q))
    values = np.triu(raw) + np.swapaxes(np.triu(raw, 1), 1, 2)
    padded_m = np.zeros((count, q + pad))
    padded_v = np.zeros((count, q + pad, q + pad))
    padded_m[:, :q] = measures
    padded_v[:, :q, :q] = values
    if stacked:
        values, padded_v = np.stack((values, 1 - values)), np.stack((padded_v, 1 - padded_v))
    lead = values.shape[:-3]
    # broadcast: a graph without vertices has density 1, a scalar
    full = np.broadcast_to(densities(h, measures, values), lead + (count,))
    padded = densities(h, padded_m, padded_v)
    assert np.array_equal(np.broadcast_to(padded, lead + (count,)), full)
    start = data.draw(st.integers(0, count - 1), label="start")
    stop = data.draw(st.integers(start + 1, count), label="stop")
    sub = densities(h, measures[start:stop], values[..., start:stop, :, :])
    assert np.array_equal(np.broadcast_to(sub, lead + (stop - start,)), full[..., start:stop])
    for k in range(count):
        row = densities(h, measures[k:k + 1], values[..., k:k + 1, :, :])
        assert np.array_equal(np.broadcast_to(row, lead + (1,))[..., 0], full[..., k])
        alone = np.broadcast_to(densities(h, measures[k], values[..., k, :, :]), lead)
        assert np.array_equal(alone, full[..., k])


@settings(max_examples=80, deadline=None)
@given(h=small_graphs(5), seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3),
       count=st.integers(1, 3))
def test_contract_per_edge_matrices_match_brute_force(h, seed, q, count):
    """Edge k of sorted(h.edges) reads matrix k: the contraction equals the
    sum over all q^v(h) maps, within 1e-12 of the sum of the terms' absolute
    values, and each kernel's unbatched call gives its batch row bit for
    bit."""
    rng = np.random.default_rng(seed)
    edges = sorted(h.edges)
    matrices = rng.uniform(-1.0, 2.0, size=(len(edges), count, q, q))
    vector = rng.uniform(size=(count, q))
    got = np.broadcast_to(_contract(h, matrices, vector, DEFAULT_WORK_BUDGET, "test"), (count,))
    for b in range(count):
        alone = _contract(h, matrices[:, b], vector[b], DEFAULT_WORK_BUDGET, "test")
        assert np.array_equal(alone, got[b])
        total = size = 0.0
        for phi in product(range(q), repeat=h.vertex_count):
            term = math.prod(vector[b][phi[v]] for v in range(h.vertex_count))
            term *= math.prod(matrices[k, b][phi[u], phi[v]] for k, (u, v) in enumerate(edges))
            total += term
            size += abs(term)
        assert abs(got[b] - total) <= 1e-12 * size


@settings(max_examples=80, deadline=None)
@given(h=small_graphs(5), seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3),
       batch=st.sampled_from([(), (3,)]))
def test_contract_shared_matrix_gives_densities_bits(h, seed, q, batch):
    """One matrix for every edge, as an edge axis of length 1 or as e(h)
    copies, gives `densities` bit for bit."""
    rng = np.random.default_rng(seed)
    measures = rng.dirichlet(np.ones(q), size=batch)
    raw = rng.uniform(-1.0, 2.0, size=batch + (q, q))
    values = np.where(np.tri(q, dtype=bool), np.swapaxes(raw, -1, -2), raw)
    expected = np.broadcast_to(densities(h, measures, values), batch)
    for matrices in (values[None], np.repeat(values[None], h.edge_count, axis=0)):
        got = _contract(h, matrices, measures, DEFAULT_WORK_BUDGET, "test")
        assert np.array_equal(np.broadcast_to(got, batch), expected)


@pytest.mark.parametrize("name", ["paw", "diamond", "K4", "J(pentagon_square)"])
@pytest.mark.parametrize("count", [2, 7, 64, 480])
def test_one_kernel_density_is_its_batch_row_with_wide_steps(name, count):
    """Graphs with an elimination step of four or more factors, whose
    products run before the step's sum: each kernel's density alone has
    the bits of its row in a batch of up to 480, as many as `falsify`
    scores at once, for w and for 1 - w."""
    h = (build_j(data.load_template("pentagon_square"))[0] if name.startswith("J")
         else data.parse_graph_spec(name))
    assert len(_plan(h).calls) > len(_plan(h).widths)
    rng = np.random.default_rng(count)
    measures = rng.dirichlet(np.ones(4), size=count)
    raw = rng.uniform(size=(count, 4, 4))
    values = np.triu(raw) + np.swapaxes(np.triu(raw, 1), 1, 2)
    both = densities(h, measures, np.stack((values, 1.0 - values)))
    for k in range(count):
        w = StepKernel(tuple(measures[k]), tuple(map(tuple, values[k])), graphon=True)
        assert density(h, w) == both[0, k] and density(h, one_minus(w)) == both[1, k]
