import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcommon import data
from homcommon.commonness import (CommonPairSpec, P_DIAMOND_PAIR,
                                  appendix_convexity_verify,
                                  certify_pair_via_templates, common_gap,
                                  common_gap_objective, convexity_conditions,
                                  dk3k2_f, dk3k2_functions, dk3k2_verify,
                                  disjoint_k3_k2, falsify, girth_obstruction,
                                  pair_gap, pair_gap_objective, solve_simple_tree_p,
                                  strongly_common_objective, _balance, _descend)
from homcommon.graphons import StepKernel, constant_kernel
from homcommon.graphs import Graph, make_family

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


def test_pair_gap_constant_graphon_is_tight():
    for p1 in (0.3, 0.5, P_DIAMOND_PAIR):
        spec = CommonPairSpec(D, disjoint_k3_k2(), p1)
        assert pair_gap(spec, constant_kernel(p1)) == pytest.approx(0.0, abs=1e-12)


def test_pair_gap_recovers_common_gap(graphon_suite):
    h = C5
    spec = CommonPairSpec(h, h, 0.5)
    scale = h.edge_count * 0.5 ** (h.edge_count - 1)
    for w in graphon_suite[:30]:
        assert pair_gap(spec, w) * scale == pytest.approx(common_gap(h, w), abs=1e-10)


def test_pair_gap_diamond_k3k2_suite(graphon_suite):
    spec = CommonPairSpec(D, disjoint_k3_k2(), P_DIAMOND_PAIR)
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
    from homcommon.gluing import build_j
    from homcommon.graphs import Graph, components

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
    assert res.best_gap == common_gap_objective(paw)(res.best_kernel)
    assert res.best_kernel.graphon


def test_falsify_k3_stays_nonnegative():
    res = falsify(common_gap_objective(K3), seed=1, restarts=8, steps=200)
    assert res.best_gap >= -1e-9


def test_falsify_other_objectives_stay_nonnegative():
    from homcommon.commonness import (pair_gap_objective,
                                      strongly_common_objective)
    res = falsify(strongly_common_objective(C5), seed=2, restarts=3, steps=120)
    assert res.best_gap >= -1e-9
    spec = CommonPairSpec(D, disjoint_k3_k2(), P_DIAMOND_PAIR)
    res2 = falsify(pair_gap_objective(spec), seed=2, restarts=3, steps=120)
    assert res2.best_gap >= -1e-9


def _random_graphons(seed: int, count: int, q: int):
    """`count` random graphons on q blocks as (count, q) and (count, q, q) arrays."""
    rng = np.random.default_rng(seed)
    measures = rng.dirichlet(np.ones(q), size=count)
    raw = rng.uniform(size=(count, q, q))
    values = np.triu(raw) + np.swapaxes(np.triu(raw, 1), 1, 2)
    return measures, values


def _objectives():
    """(label, objective, scale): scale bounds the sum of the absolute terms
    of the gap formula on graphons."""
    paw = data.load_graph("paw")
    k3k2 = disjoint_k3_k2()
    spec = CommonPairSpec(D, k3k2, P_DIAMOND_PAIR)
    p1, p2 = spec.p1, spec.p2
    pair_scale = 1 / (5 * p1**4) + 1 / (4 * p2**3) + p1 / 5 + p2 / 4
    return [("common paw", common_gap_objective(paw), 3.0),
            ("common K3+K2", common_gap_objective(k3k2), 3.0),
            ("pair (diamond, K3+K2)", pair_gap_objective(spec), pair_scale),
            ("strongly common C5", strongly_common_objective(C5), 4.0)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), q=st.integers(1, 4))
def test_objective_batch_matches_one_kernel_calls(seed, count, q):
    measures, values = _random_graphons(seed, count, q)
    for label, objective, scale in _objectives():
        batch = objective.batch(measures, values)
        assert batch.shape == (count,), label
        for k in range(count):
            w = StepKernel(tuple(float(m) for m in measures[k]),
                           tuple(tuple(float(x) for x in row) for row in values[k]),
                           graphon=True)
            assert abs(batch[k] - objective(w)) <= 1e-12 * scale, label


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_lockstep_descent_matches_each_start_alone(q):
    paw = data.load_graph("paw")
    objective = common_gap_objective(paw)
    measures, values = _random_graphons(100 + q, 6, q)
    together_m, together_v = measures.copy(), values.copy()
    best, evals = _descend(objective, together_m, together_v, 40)
    for k in range(len(measures)):
        alone_m, alone_v = measures[k:k + 1].copy(), values[k:k + 1].copy()
        alone_best, alone_evals = _descend(objective, alone_m, alone_v, 40)
        assert evals[k] == alone_evals[0]
        assert best[k] == pytest.approx(alone_best[0], abs=1e-12)
        assert np.allclose(together_m[k], alone_m[0], rtol=0, atol=1e-12)
        assert np.allclose(together_v[k], alone_v[0], rtol=0, atol=1e-12)


def test_falsify_rejects_a_bare_callable():
    paw = data.load_graph("paw")
    with pytest.raises(TypeError, match="batch"):
        falsify(lambda w: common_gap(paw, w), seed=1, restarts=2, steps=2)
