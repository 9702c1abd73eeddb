import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcommon import data
from homcommon.commonness import (FALSIFY_MAX_BLOCKS, CommonPairSpec, P_DIAMOND_PAIR,
                                  appendix_convexity_verify,
                                  certify_pair_via_templates, common_gap,
                                  common_gap_objective, convexity_conditions,
                                  dk3k2_f, dk3k2_functions, dk3k2_verify,
                                  falsify, girth_obstruction,
                                  min_pair_gap, pair_gap, pair_gap_objective,
                                  solve_simple_tree_p, _balance, _correlation_slacks,
                                  _descend, _pair_gap)
from homcommon.graphons import (StepKernel, constant_kernel, density, kernel_arrays,
                                sample_graphon, sample_kernel)
from homcommon.gluing import build_j
from homcommon.graphs import DEFAULT_WORK_BUDGET, BudgetExceededError, Graph, _plan, make_family
from homcommon.identities import _strongly_common_gap, score_kernels, strongly_common_gap

K3 = make_family("complete", 3)
C5 = make_family("cycle", 5)
D = make_family("complete_minus_edge", 4)
S10 = math.sqrt(10.0)


def test_pair_spec_validation():
    with pytest.raises(ValueError):
        CommonPairSpec(K3, K3, 0.0)
    with pytest.raises(ValueError):
        CommonPairSpec(K3, K3, 0.5, f=K3, k1=2, k2=1, l1=0, l2=0)
    spec = CommonPairSpec(K3, K3, 0.25)
    assert spec.p2 == 0.75
    # the gap weights 1/(e_i p_i^(e_i-1)) must be finite floats
    for p1 in (1e-320, 1e-200, 1e-161):
        with pytest.raises(ValueError, match=r"^e1 p1\^\(e1-1\) underflows"):
            CommonPairSpec(K3, K3, p1)
    with pytest.raises(ValueError, match=r"^e2 p2\^\(e2-1\) underflows"):
        CommonPairSpec(K3, make_family("path", 1101), 0.5)
    assert CommonPairSpec(K3, make_family("path", 1000), 1e-150).p1 == 1e-150


def test_pair_gap_constant_graphon_is_tight():
    for p1 in (0.3, 0.5, P_DIAMOND_PAIR):
        spec = CommonPairSpec(D, data.load_graph("k3_plus_k2"), p1)
        assert pair_gap(spec, constant_kernel(p1)) == pytest.approx(0.0, abs=1e-12)


def test_pair_gap_recovers_common_gap(graphon_suite):
    h = C5
    spec = CommonPairSpec(h, h, 0.5)
    scale = h.edge_count * 0.5 ** (h.edge_count - 1)
    for w in graphon_suite[:30]:
        assert pair_gap(spec, w) * scale == pytest.approx(common_gap(h, w), abs=1e-10)


def test_pair_gap_diamond_k3k2_suite(graphon_suite):
    spec = CommonPairSpec(D, data.load_graph("k3_plus_k2"), P_DIAMOND_PAIR)
    assert min(pair_gap(spec, w) for w in graphon_suite) >= -1e-9


def test_convexity_conditions_triangle_identity_case():
    spec = CommonPairSpec(K3, K3, 0.5, f=K3, k1=1, k2=1, l1=0, l2=0)
    rep = convexity_conditions(spec, range(20))
    assert rep["all_pass"]
    # condition 4 collapses to t(K3,W) >= t(K3,W): exact equality
    assert rep["correlation_min_slack"] == pytest.approx(0.0, abs=1e-15)
    assert rep["correlation_assurance"] == "numerically_supported"


def test_convexity_conditions_square_attachment_case():
    pent_sq = data.load_graph("pentagon_square")
    spec = CommonPairSpec(pent_sq, pent_sq, 0.5, f=C5, k1=2, k2=2, l1=1, l2=1)
    rep = convexity_conditions(spec, range(20))
    assert rep["all_pass"]
    assert rep["correlation_assurance"] == "numerically_supported"
    t = data.load_template("pentagon_square")
    assert certify_pair_via_templates(t, 1, t, 1, 0.5).certified


def test_convexity_conditions_never_certify_by_edge_counts():
    # nine disjoint edges match pentagon_square's H in e(H) = 2 e(C5) - 1,
    # but t(9 K2) t(K2) = t(K2)^10 falls below t(C5)^2 on sampled graphons
    matching = Graph.from_edges(18, [(2 * i, 2 * i + 1) for i in range(9)])
    spec = CommonPairSpec(matching, matching, 0.5, f=C5, k1=2, k2=2, l1=1, l2=1)
    rep = convexity_conditions(spec, range(20))
    assert rep["edge_arithmetic"] and rep["balance"]
    assert rep["correlation"] is False and rep["correlation_min_slack"] < 0
    assert rep["correlation_assurance"] == "numerically_supported"


def test_convexity_conditions_requires_fkl():
    with pytest.raises(ValueError):
        convexity_conditions(CommonPairSpec(K3, K3, 0.5), range(5))


def test_convexity_conditions_rejects_empty_seed_list():
    # the sampled minimum over no seeds is inf, which would pass condition 4
    spec = CommonPairSpec(K3, K3, 0.5, f=K3, k1=1, k2=1, l1=0, l2=0)
    for seeds in ([], range(0), iter(())):
        with pytest.raises(ValueError, match="seed"):
            convexity_conditions(spec, seeds)


def _bits(values):
    return [float(x).hex() for x in values]


def _glued_pair_spec():
    ja = build_j(data.load_template("gen_c5_tree_a"))[0]
    jb = build_j(data.load_template("gen_c5_tree_b"))[0]
    return CommonPairSpec(ja, jb, 0.5, f=C5, k1=3, k2=3, l1=0, l2=0)


def _slack_loop(spec, w):
    """Condition 4's two slacks on one kernel, one `density` call per graph."""
    tk2 = density(make_family("path", 2), w)
    tf = density(spec.f, w)
    return [density(h, w) * tk2**l - tf**k
            for h, k, l in ((spec.h1, spec.k1, spec.l1), (spec.h2, spec.k2, spec.l2))]


@pytest.mark.parametrize("spec", [
    _glued_pair_spec(),
    CommonPairSpec(data.load_graph("pentagon_square"), data.load_graph("pentagon_square"), 0.5,
                   f=C5, k1=2, k2=2, l1=1, l2=1),
], ids=["glued J pair", "pentagon_square"])
def test_batched_convexity_slack_matches_the_per_graphon_loop(spec):
    seeds = range(40)
    for sample in (sample_graphon, sample_kernel):
        kernels = [sample(s) for s in seeds]
        batched = score_kernels(partial(_correlation_slacks, spec),
                                (make_family("path", 2), spec.f, spec.h1, spec.h2), kernels)
        loop = [_slack_loop(spec, w) for w in kernels]
        # the batched list holds side 1 of every kernel, then side 2
        assert _bits(batched) == _bits([s[0] for s in loop] + [s[1] for s in loop])
    rep = convexity_conditions(spec, seeds, max_blocks=3)
    loop = [x for s in seeds for x in _slack_loop(spec, sample_graphon(s, 3))]
    assert rep["correlation_min_slack"].hex() == min(loop).hex()


def test_batched_pair_gap_suite_matches_the_per_graphon_loop():
    spec = CommonPairSpec(D, data.load_graph("k3_plus_k2"), P_DIAMOND_PAIR)
    seeds = range(80)
    assert min_pair_gap(spec, seeds).hex() == min(
        pair_gap(spec, sample_graphon(s)) for s in seeds).hex()
    kernels = [sample_kernel(s) for s in seeds]
    batched = score_kernels(partial(_pair_gap, spec), (spec.h1, spec.h2), kernels)
    assert _bits(batched) == _bits(_pair_gap(spec, *kernel_arrays(w), DEFAULT_WORK_BUDGET)
                                   for w in kernels)


def test_pair_gap_suite_budget_is_its_largest_graphons_charge():
    spec = CommonPairSpec(D, data.load_graph("k3_plus_k2"), P_DIAMOND_PAIR)
    seeds = range(10)
    q = max(sample_graphon(s).block_count for s in seeds)
    charge = max(sum(q**width for width in _plan(h).widths) for h in (spec.h1, spec.h2))
    min_pair_gap(spec, seeds, budget=charge)
    with pytest.raises(BudgetExceededError, match="^density: "):
        min_pair_gap(spec, seeds, budget=charge - 1)
    with pytest.raises(BudgetExceededError, match="^density: "):
        for s in seeds:
            pair_gap(spec, sample_graphon(s), charge - 1)


def test_certify_pair_square_attachment_vs_c5():
    t_sq = data.load_template("pentagon_square")
    t_single = data.load_template("simple_c5_vertex")
    # balance: 10/(9 p^4) = 2/p2^4 for the vertex-glued double pentagon
    p1 = solve_simple_tree_p(9, 8, 10, 9, 5)
    verdict = certify_pair_via_templates(t_sq, 1, t_single, 0, p1)
    assert verdict.certified
    assert abs(verdict.balance_residual) < 1e-10
    assert verdict.certificate1.verdict == "good"
    bad = certify_pair_via_templates(t_sq, 1, t_single, 0, 0.4)
    assert not bad.certified and bad.reason == "balance violated"


def test_certify_pair_symmetric_simple_tree():
    t = data.load_template("simple_c5_vertex")
    verdict = certify_pair_via_templates(t, 0, t, 0, 0.5)
    assert verdict.certified


def test_certify_pair_at_a_fraction_is_exact():
    t = data.load_template("simple_c5_vertex")
    verdict = certify_pair_via_templates(t, 0, t, 0, Fraction(1, 2))
    assert verdict.certified
    assert isinstance(verdict.balance_residual, Fraction)
    assert verdict.balance_residual == 0


def test_certify_pair_rejects_negative_l():
    t_sq = data.load_template("pentagon_square")
    t_single = data.load_template("simple_c5_vertex")
    # at the balancing p1 for l1 = -1, e(H1) would be 11 but J1 has 10 edges
    p1 = 1.0 / (1.0 + 1.1 ** 0.25)
    with pytest.raises(ValueError, match="non-negative"):
        certify_pair_via_templates(t_sq, -1, t_single, 0, p1)
    with pytest.raises(ValueError, match="non-negative"):
        certify_pair_via_templates(t_single, 0, t_sq, -1, 1 - p1)


@settings(max_examples=200, deadline=None)
@given(c1=st.integers(1, 20), d1=st.integers(1, 20), c2=st.integers(1, 20),
       d2=st.integers(1, 20), m=st.sampled_from([3, 5, 7, 9, 11]))
def test_balance_holds_at_its_root(c1, d1, c2, d2, m):
    ratio = (c2 / d2) / (c1 / d1)
    root = 1.0 / (1.0 + ratio ** (1.0 / (m - 1)))
    assert _balance((c1, d1), (c2, d2), m - 1, root)[1]
    residual, holds = _balance((c1, d1), (c2, d2), m - 1, Fraction(1, 2))
    assert holds == (Fraction(c1, d1) == Fraction(c2, d2))
    assert (residual == 0) == holds


def test_certify_pair_square_attachment_vs_bare_cycle():
    from homcommon.gluing import GluingTemplate

    t_sq = data.load_template("pentagon_square")
    t_c5 = GluingTemplate.make(C5, 1, [], {0: range(5)}, {})
    # balance 10/(9 p1^4) = 5/(5 p2^4) has root p1 = 1/(1 + (9/10)^(1/4))
    p1 = solve_simple_tree_p(9, 8, 5, 5, 5)
    assert p1 == pytest.approx(1.0 / (1.0 + (9 / 10) ** 0.25), abs=1e-12)
    assert p1 == pytest.approx(0.5065846515, abs=1e-9)
    verdict = certify_pair_via_templates(t_sq, 1, t_c5, 0, p1)
    assert verdict.certified
    assert (verdict.h1_edge_count, verdict.h2_edge_count) == (9, 5)


def test_certify_pair_rejects_bad_inputs():
    t_k3 = data.load_template("simple_k3_edge")
    t_c5 = data.load_template("simple_c5_vertex")
    with pytest.raises(ValueError):  # mismatched bases
        certify_pair_via_templates(t_k3, 0, t_c5, 0, 0.5)
    with pytest.raises(ValueError):  # not enough two-vertex components
        certify_pair_via_templates(t_c5, 3, t_c5, 0, 0.5)


def test_certified_pairs_have_nonnegative_gap(graphon_suite):
    from homcommon.graphs import components

    t_sq = data.load_template("pentagon_square")
    t_single = data.load_template("simple_c5_vertex")
    p1 = solve_simple_tree_p(9, 8, 10, 9, 5)
    assert certify_pair_via_templates(t_sq, 1, t_single, 0, p1).certified
    h1 = data.load_graph("pentagon_square")
    j2, _ = build_j(t_single)
    big = max(components(j2), key=len)
    relabel = {v: i for i, v in enumerate(big)}
    h2 = Graph.from_edges(len(big), [(relabel[u], relabel[v])
                                     for (u, v) in j2.edges if u in big and v in big])
    assert (h2.vertex_count, h2.edge_count) == (9, 10)
    spec = CommonPairSpec(h1, h2, p1)
    assert min(pair_gap(spec, w) for w in graphon_suite) >= -1e-9


def test_solve_simple_tree_p():
    p = solve_simple_tree_p(3, 3, 5, 4, 3)
    assert p == pytest.approx(math.sqrt(5) / (math.sqrt(5) + math.sqrt(6)), abs=1e-10)
    assert abs(1 / (3 * p**2) - 2 / (5 * (1 - p) ** 2)) < 1e-12
    assert solve_simple_tree_p(7, 7, 7, 7, 3) == pytest.approx(0.5, abs=1e-12)
    assert solve_simple_tree_p(5, 5, 10, 9, 5) == pytest.approx(0.5, abs=1e-12)
    swap = solve_simple_tree_p(5, 4, 3, 3, 3)
    assert abs(p + swap - 1.0) < 1e-12
    with pytest.raises(ValueError):
        solve_simple_tree_p(3, 4, 3, 3, 3)  # non-positive cycle rank
    with pytest.raises(ValueError):
        solve_simple_tree_p(3, 3, 3, 3, 4)  # even m


def test_girth_obstruction():
    assert girth_obstruction(K3, K3, 3, Fraction(1, 2)) is True
    assert girth_obstruction(K3, D, 3, Fraction(1, 2)) is False
    p = solve_simple_tree_p(3, 3, 5, 4, 3)
    assert girth_obstruction(K3, D, 3, p) is True
    with pytest.raises(ValueError):
        girth_obstruction(K3, C5, 3, 0.5)  # girth mismatch


def test_dk3k2_point_values():
    p = P_DIAMOND_PAIR
    assert p == pytest.approx((8 - 2 * S10) / 3, abs=1e-15)
    # threshold identity p/5 + (1-p)/4 = (7 + 2 sqrt10)/60
    assert p / 5 + (1 - p) / 4 == pytest.approx((7 + 2 * S10) / 60, abs=1e-14)
    assert dk3k2_functions(0.0, "g1") == pytest.approx((7 + 2 * S10) / 60, abs=1e-12)
    assert dk3k2_functions(0.0, "g0") == pytest.approx((52 - 3 * S10) / 160, abs=1e-12)
    # y1 >= y0 exactly up to the stated crossover
    crossover = (-425 + 140 * S10) / 246
    for x in (-0.3, 0.0, 0.05, crossover - 1e-6):
        assert dk3k2_functions(x, "y1") >= dk3k2_functions(x, "y0") - 1e-12
    for x in (crossover + 1e-6, 0.2, 0.4):
        assert dk3k2_functions(x, "y1") <= dk3k2_functions(x, "y0") + 1e-12
    assert dk3k2_f(0.0, 0.0) == pytest.approx(
        p**6 / (5 * p**4 * p) + (1 - p) * (1 - p) ** 3 / (4 * (1 - p) ** 3), abs=1e-14)
    with pytest.raises(ValueError):
        dk3k2_functions(0.9, "g0")
    with pytest.raises(ValueError):
        dk3k2_functions(0.0, "g2")


def test_dk3k2_verify_rejects_empty_seed_list():
    for seeds in ([], range(0)):
        with pytest.raises(ValueError, match="seed"):
            dk3k2_verify(pair_gap_seeds=seeds)


def test_dk3k2_verify_report():
    rep = dk3k2_verify(pair_gap_seeds=range(10))
    assert rep["passed"]
    assert rep["g1_at_zero_error"] <= 1e-12
    assert rep["cubic_fit_max_error"] <= 1e-8
    assert rep["g0_min_value"] == pytest.approx(0.23263, abs=5e-4)
    assert rep["g0_min_x"] == pytest.approx(0.057472, abs=5e-4)
    assert abs(rep["g1_min_x"]) <= 1e-6
    assert rep["g1_min_value"] == pytest.approx(rep["threshold"], abs=1e-9)


def test_appendix_convexity_triangle_case():
    rep = appendix_convexity_verify(K3, 3, 3, 1, 1, 0, 0, 0.5)
    assert rep["passed"]
    assert rep["min_value"] == pytest.approx(1 / 3, abs=1e-8)
    assert rep["argmin_distance"] <= 1e-4
    # closed form along y = 0 is 1/3 + 4x^2
    assert rep["boundary_ok"]


def test_appendix_convexity_square_attachment_case():
    rep = appendix_convexity_verify(C5, 9, 9, 2, 2, 1, 1, 0.5)
    assert rep["passed"]
    assert rep["min_value"] == pytest.approx(1 / 9, abs=1e-8)
    assert rep["argmin_distance"] <= 1e-4


def test_appendix_convexity_rejects_unbalanced():
    with pytest.raises(ValueError):
        appendix_convexity_verify(K3, 3, 3, 1, 1, 0, 0, 0.4)
    with pytest.raises(ValueError):
        appendix_convexity_verify(K3, 2, 3, 1, 1, 1, 0, 0.5)


def test_falsify_paw_and_determinism():
    paw = data.load_graph("paw")
    res = falsify(common_gap_objective(paw), seed=1, restarts=4, steps=200)
    assert res.best_gap < -1e-4
    again = falsify(common_gap_objective(paw), seed=1, restarts=4, steps=200)
    assert res == again
    assert res.best_gap == common_gap(paw, res.best_kernel)
    assert res.best_kernel.graphon


def test_falsify_k3_stays_nonnegative():
    res = falsify(common_gap_objective(K3), seed=1, restarts=8, steps=200)
    assert res.best_gap >= -1e-9


def test_falsify_other_objectives_stay_nonnegative():
    from homcommon.commonness import pair_gap_objective
    res = falsify(strongly_common_objective(C5), seed=2, restarts=3, steps=120)
    assert res.best_gap >= -1e-9
    spec = CommonPairSpec(D, data.load_graph("k3_plus_k2"), P_DIAMOND_PAIR)
    res2 = falsify(pair_gap_objective(spec), seed=2, restarts=3, steps=120)
    assert res2.best_gap >= -1e-9


def strongly_common_objective(f):
    """The batched strongly-common gap formula of f, as a falsifier objective."""
    return partial(_strongly_common_gap, f, budget=DEFAULT_WORK_BUDGET)


def _random_graphons(seed: int, count: int, q: int):
    """`count` random graphons on q blocks as (count, q) and (count, q, q) arrays."""
    rng = np.random.default_rng(seed)
    measures = rng.dirichlet(np.ones(q), size=count)
    raw = rng.uniform(size=(count, q, q))
    values = np.triu(raw) + np.swapaxes(np.triu(raw, 1), 1, 2)
    return measures, values


def _objectives():
    """(label, objective, scale, gap): scale bounds the sum of the absolute
    terms of the gap formula on graphons, and gap is its public one-kernel
    function."""
    paw = data.load_graph("paw")
    k3k2 = data.load_graph("k3_plus_k2")
    spec = CommonPairSpec(D, k3k2, P_DIAMOND_PAIR)
    p1, p2 = spec.p1, spec.p2
    pair_scale = 1 / (5 * p1**4) + 1 / (4 * p2**3) + p1 / 5 + p2 / 4
    return [("common paw", common_gap_objective(paw), 3.0, partial(common_gap, paw)),
            ("common K3+K2", common_gap_objective(k3k2), 3.0, partial(common_gap, k3k2)),
            ("pair (diamond, K3+K2)", pair_gap_objective(spec), pair_scale,
             partial(pair_gap, spec)),
            ("strongly common C5", strongly_common_objective(C5), 4.0,
             partial(strongly_common_gap, C5))]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), q=st.integers(1, 4))
def test_objective_batch_matches_one_kernel_calls(seed, count, q):
    measures, values = _random_graphons(seed, count, q)
    for label, objective, scale, gap in _objectives():
        batch = objective(measures, values)
        assert batch.shape == (count,), label
        for k in range(count):
            w = StepKernel(tuple(float(m) for m in measures[k]),
                           tuple(tuple(float(x) for x in row) for row in values[k]),
                           graphon=True)
            assert abs(batch[k] - gap(w)) <= 1e-12 * scale, label


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_lockstep_descent_matches_each_start_alone(q):
    paw = data.load_graph("paw")
    objective = common_gap_objective(paw)
    measures, values = _random_graphons(100 + q, 6, q)
    together_m, together_v = measures.copy(), values.copy()
    best, evals = _descend(objective, together_m, together_v, np.full(6, q), 40)
    for k in range(len(measures)):
        alone_m, alone_v = measures[k:k + 1].copy(), values[k:k + 1].copy()
        alone_best, alone_evals = _descend(objective, alone_m, alone_v, np.array([q]), 40)
        assert evals[k] == alone_evals[0]
        assert best[k] == pytest.approx(alone_best[0], abs=1e-12)
        assert np.allclose(together_m[k], alone_m[0], rtol=0, atol=1e-12)
        assert np.allclose(together_v[k], alone_v[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("label,objective", [item[:2] for item in _objectives()],
                         ids=[item[0] for item in _objectives()])
def test_padded_descent_matches_each_start_alone_at_its_block_count(label, objective):
    """Starts on 1..4 blocks, padded to 4 and descended together, each
    follow the path they follow alone on their own blocks."""
    starts = [_random_graphons(200 + q, 2, q) for q in (1, 2, 3, 4)]
    blocks = np.repeat([1, 2, 3, 4], 2)
    measures = np.zeros((8, 4))
    values = np.zeros((8, 4, 4))
    for k, q in enumerate(blocks):
        measures[k, :q] = starts[q - 1][0][k % 2]
        values[k, :q, :q] = starts[q - 1][1][k % 2]
    best, evals = _descend(objective, measures, values, blocks, 40)
    for k, q in enumerate(blocks):
        alone_m = starts[q - 1][0][k % 2:k % 2 + 1].copy()
        alone_v = starts[q - 1][1][k % 2:k % 2 + 1].copy()
        alone_best, alone_evals = _descend(objective, alone_m, alone_v, np.array([q]), 40)
        assert evals[k] == alone_evals[0], label
        assert best[k] == pytest.approx(alone_best[0], abs=1e-12), label
        assert np.allclose(measures[k, :q], alone_m[0], rtol=0, atol=1e-12), label
        assert np.allclose(values[k, :q, :q], alone_v[0], rtol=0, atol=1e-12), label
        assert not measures[k, q:].any() and not values[k, q:].any() and not values[k, :, q:].any()


@pytest.mark.parametrize("label,objective", [item[:2] for item in _objectives()],
                         ids=[item[0] for item in _objectives()])
def test_padded_descent_at_falsify_batch_size_matches_each_start_alone(label, objective):
    """64 starts on 1..4 blocks, padded to 4 and descended together, as
    many as `falsify` descends at once: each start's evaluation count, best
    value and final kernel are the bits of its descent alone on its own
    blocks."""
    blocks = np.tile([1, 2, 3, 4], 16)
    starts = [_random_graphons(300 + q, 16, q) for q in (1, 2, 3, 4)]
    measures = np.zeros((64, 4))
    values = np.zeros((64, 4, 4))
    for k, q in enumerate(blocks):
        measures[k, :q] = starts[q - 1][0][k // 4]
        values[k, :q, :q] = starts[q - 1][1][k // 4]
    best, evals = _descend(objective, measures, values, blocks, 12)
    for k, q in enumerate(blocks):
        alone_m = starts[q - 1][0][k // 4:k // 4 + 1].copy()
        alone_v = starts[q - 1][1][k // 4:k // 4 + 1].copy()
        alone_best, alone_evals = _descend(objective, alone_m, alone_v, np.array([q]), 12)
        assert evals[k] == alone_evals[0], label
        assert best[k].tobytes() == alone_best[0].tobytes(), label
        assert np.array_equal(measures[k, :q], alone_m[0]), label
        assert np.array_equal(values[k, :q, :q], alone_v[0]), label


def _restart_start(seed, r):
    """Restart r's start in `falsify`, drawn by its documented seeding."""
    rng = np.random.default_rng((seed * 0x9E3779B97F4A7C15 + r) % 2**64)
    q = int(rng.integers(2, FALSIFY_MAX_BLOCKS + 1))
    measures = rng.dirichlet(np.ones(q))
    raw = rng.uniform(size=(q, q))
    return measures, np.triu(raw) + np.triu(raw, 1).T


@pytest.mark.parametrize("target,first_seed", [("paw", 1), ("K3", 3)])
def test_falsify_witness_has_the_block_count_its_restart_drew(target, first_seed):
    """On the first seed in a small fixed range whose winning restart drew
    fewer blocks than another restart, so that the winner was padded in the
    search, the witness keeps only the blocks its restart drew."""
    objective = common_gap_objective(data.parse_graph_spec(target))
    restarts, steps = 6, 20
    for seed in range(first_seed, first_seed + 8):
        finals = []
        for r in range(restarts):
            measures, values = _restart_start(seed, r)
            best, _ = _descend(objective, measures[None], values[None],
                               np.array([len(measures)]), steps)
            finals.append((best[0], r, len(measures)))
        _, _, drawn = min(finals)
        if drawn < max(q for _, _, q in finals):
            break
    assert drawn < max(q for _, _, q in finals)  # the winner was padded in the search
    result = falsify(objective, seed=seed, restarts=restarts, steps=steps)
    assert result.best_kernel.block_count == drawn


def _descend_alone(objective, measures, values, max_sweeps):
    """Scalar reference for `_descend`: one start on its own blocks, each
    candidate scored by its own `objective` call on a batch of one.
    Returns the best value, the evaluation count and the final arrays."""
    measures, values = measures.copy(), values.copy()
    q = len(measures)
    coordinates = ([("value", i, j) for i in range(q) for j in range(i, q)]
                   + [("measure", i, j) for i in range(q) for j in range(i + 1, q)])
    best, evals, delta = objective(measures[None], values[None])[0], 1, 0.25
    for _ in range(max_sweeps):
        if delta < 1e-6:
            break
        improved = False
        for kind, i, j in coordinates:
            candidates = []
            if kind == "value":
                for new in (min(1.0, values[i, j] + delta), max(0.0, values[i, j] - delta)):
                    if new != values[i, j]:
                        trial = values.copy()
                        trial[i, j] = trial[j, i] = new
                        candidates.append((measures, trial))
            else:
                for src, dst in ((i, j), (j, i)):
                    amount = min(delta, measures[src])
                    if amount > 0.0:
                        trial = measures.copy()
                        trial[src] -= amount
                        trial[dst] += amount
                        candidates.append((trial, values))
            scores = [objective(m[None], v[None])[0] for m, v in candidates]
            evals += len(scores)
            if scores:
                k = min(range(len(scores)), key=scores.__getitem__)  # the first on a tie
                if scores[k] < best - 1e-15:
                    best, (measures, values), improved = scores[k], candidates[k], True
        if not improved:
            delta *= 0.5
    return best, evals, measures, values


@pytest.mark.parametrize("label,objective", [item[:2] for item in _objectives()],
                         ids=[item[0] for item in _objectives()])
def test_padded_descent_matches_the_scalar_reference(label, objective):
    """Starts on 1..4 blocks, padded to 4 and descended together, match a
    one-start, one-candidate-per-call reference bit for bit.  One start has
    a block of measure 0 and values at 0 and 1, whose clamped or empty
    candidates are not scored."""
    blocks = np.tile([1, 2, 3, 4], 2)
    starts = [_random_graphons(400 + q, 2, q) for q in (1, 2, 3, 4)]
    starts[2][0][1] = [0.625, 0.375, 0.0]
    starts[2][1][1][0, 0] = 1.0
    starts[2][1][1][1, 2] = starts[2][1][1][2, 1] = 0.0
    measures = np.zeros((8, 4))
    values = np.zeros((8, 4, 4))
    for k, q in enumerate(blocks):
        measures[k, :q] = starts[q - 1][0][k // 4]
        values[k, :q, :q] = starts[q - 1][1][k // 4]
    best, evals = _descend(objective, measures, values, blocks, 15)
    for k, q in enumerate(blocks):
        ref_best, ref_evals, ref_m, ref_v = _descend_alone(
            objective, starts[q - 1][0][k // 4], starts[q - 1][1][k // 4], 15)
        assert evals[k] == ref_evals, label
        assert best[k].tobytes() == ref_best.tobytes(), label
        assert np.array_equal(measures[k, :q], ref_m), label
        assert np.array_equal(values[k, :q, :q], ref_v), label


@pytest.mark.parametrize("label,objective", [item[:2] for item in _objectives()],
                         ids=[item[0] for item in _objectives()])
def test_descent_with_unscored_rows_matches_each_start_alone(label, objective):
    """Starts with values on the bounds 0 and 1 and blocks of measure 0,
    whose clamped or empty candidates are scored in the batch and masked:
    each start's evaluation count, best value and final kernel are the
    bits of its descent alone."""
    blocks = np.tile([2, 3, 4], 4)
    measures = np.zeros((12, 4))
    values = np.zeros((12, 4, 4))
    for k, q in enumerate(blocks):
        m, v = _random_graphons(500 + k, 1, q)
        measures[k, :q], values[k, :q, :q] = m[0], v[0]
        if k % 2:
            measures[k, :q] = np.append(m[0][1:] / m[0][1:].sum(), 0.0)
        values[k, 0, 0] = float(k % 3 == 0)
        values[k, 0, q - 1] = values[k, q - 1, 0] = float(k % 3 == 1)
    starts = measures.copy(), values.copy()
    rows = []

    def recorded(m, v):
        rows.append(len(m))
        return objective(m, v)

    best, evals = _descend(recorded, measures, values, blocks, 10)
    # the objective scored rows that the evaluation counts leave out
    assert sum(rows) > evals.sum()
    for k, q in enumerate(blocks):
        alone_m, alone_v = starts[0][k:k + 1, :q].copy(), starts[1][k:k + 1, :q, :q].copy()
        alone_best, alone_evals = _descend(objective, alone_m, alone_v, np.array([q]), 10)
        assert evals[k] == alone_evals[0], label
        assert best[k].tobytes() == alone_best[0].tobytes(), label
        assert np.array_equal(measures[k, :q], alone_m[0]), label
        assert np.array_equal(values[k, :q, :q], alone_v[0]), label


def test_rejected_measure_moves_leave_the_measures_bit_identical():
    """On a constant-1/2 graphon the K3 gap is 0 whatever the measures, so
    every measure move is rejected and must leave the measures untouched,
    not one rounding away."""
    start = np.array([[0.1, 0.2, 0.3, 0.4]])
    measures, values = start.copy(), np.full((1, 4, 4), 0.5)
    best, evals = _descend(common_gap_objective(K3), measures, values, np.array([4]), 40)
    assert evals[0] > 1 and abs(best[0]) <= 1e-15
    assert measures.tobytes() == start.tobytes()
    assert np.array_equal(values, np.full((1, 4, 4), 0.5))


def test_falsify_makes_one_objective_call_per_coordinate():
    """On Q = 4 blocks with every restart live, a search makes one call for
    the starts and then 16 per sweep: 10 value entries and 6 measure pairs."""
    objective = common_gap_objective(data.load_graph("paw"))
    seed, restarts, steps = 1, 4, 5
    assert max(len(_restart_start(seed, r)[0]) for r in range(restarts)) == 4
    result = falsify(objective, seed=seed, restarts=restarts, steps=steps)
    assert result.objective_calls == 1 + 16 * steps
    assert result.evaluations > result.objective_calls


@pytest.mark.parametrize("steps", [-1, -3])
def test_falsify_rejects_negative_steps(steps):
    with pytest.raises(ValueError, match="^steps must be at least 0$"):
        falsify(common_gap_objective(K3), seed=1, restarts=1, steps=steps)
    assert falsify(common_gap_objective(K3), seed=1, restarts=1, steps=0).evaluations >= 1


def test_falsify_rejects_a_bare_callable():
    paw = data.load_graph("paw")
    with pytest.raises(TypeError):
        falsify(lambda w: common_gap(paw, w), seed=1, restarts=2, steps=2)
