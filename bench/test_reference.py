"""Tests of the benchmark's reference checks: each agrees with brute force
and rejects a perturbed answer.  Run with `python -m pytest bench`."""

from __future__ import annotations

import copy
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
import workloads as wl

K3 = (3, [(0, 1), (0, 2), (1, 2)])
PAW = (4, [(0, 1), (0, 2), (1, 2), (2, 3)])
C5 = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

# certificates as homcommon writes them (certificate_to_json)
F5 = {"edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]], "n": 5}
GOOD_CERT = {
    "farkas_witness": None,
    "generators_used": [{"coeff": "1/1", "r1": [0], "r2": [1], "r3": [2, 3]},
                        {"coeff": "1/1", "r1": [0], "r2": [1, 4], "r3": [2, 3]}],
    "j_edge_count": 10, "j_vertex_count": 10,
    "target": {"0,1,2,3,4": "2/1"},
    "template": {"F": F5, "psi_edges": {"0-1": [4], "0-3": [], "1-2": [1, 4]},
                 "psi_nodes": {"0": [0, 1, 2, 3, 4], "1": [0, 1, 4], "2": [0, 1, 4],
                               "3": [0, 1]},
                 "tree": {"edges": [[0, 1], [0, 3], [1, 2]], "nodes": 4}},
    "verdict": "good",
}
NOT_GOOD_CERT = {
    "farkas_witness": {"0": "-1/2", "0,1": "-1/1", "0,1,2": "-3/2", "0,1,2,3": "-2/1",
                       "0,1,2,3,4": "-5/2", "0,1,3": "-3/2", "0,2": "-1/1"},
    "generators_used": [],
    "j_edge_count": 1, "j_vertex_count": 2,
    "target": {"0,1,2,3,4": "1/5"},
    "template": {"F": F5, "psi_edges": {}, "psi_nodes": {"0": [0, 1]},
                 "tree": {"edges": [], "nodes": 1}},
    "verdict": "not_good",
}


def _kernel(q, seed, low=0.0, high=1.0):
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(q))
    raw = rng.uniform(low, high, size=(q, q))
    return [float(m) for m in mu], (np.triu(raw) + np.triu(raw, 1).T).tolist()


def _brute_density(h, measures, values):
    n, edges = h
    total = 0.0
    for phi in itertools.product(range(len(measures)), repeat=n):
        term = math.prod(measures[phi[v]] for v in range(n))
        total += term * math.prod(values[phi[u]][phi[v]] for u, v in edges)
    return total


def _brute_hom(h, g):
    (n, edges), (m, g_edges) = h, g
    adj = {(u, v) for u, v in g_edges} | {(v, u) for u, v in g_edges}
    return sum(all((phi[u], phi[v]) in adj for u, v in edges)
               for phi in itertools.product(range(m), repeat=n))


def _graph(h):
    return SimpleNamespace(vertex_count=h[0], edges=frozenset(h[1]))


def _w(measures, values):
    return SimpleNamespace(measures=tuple(measures), values=tuple(map(tuple, values)))


@pytest.mark.parametrize("h", [K3, PAW, C5, (2, [])])
@pytest.mark.parametrize("q,low,high", [(1, 0.0, 1.0), (3, 0.0, 1.0), (3, -1.0, 2.0)])
def test_density_matches_brute_force(h, q, low, high):
    mu, vals = _kernel(q, 7, low, high)
    assert ref.density(*h, mu, vals) == pytest.approx(_brute_density(h, mu, vals),
                                                      rel=1e-13, abs=1e-15)


def test_density_closed_forms():
    mu, vals = _kernel(4, 3)
    assert ref.density(2, [(0, 1)], mu, vals) == pytest.approx(
        float(np.asarray(mu) @ np.asarray(vals) @ np.asarray(mu)), rel=1e-14)
    assert ref.density(*C5, [1.0], [[0.3]]) == pytest.approx(0.3**5, rel=1e-14)


def test_density_check_rejects_a_perturbed_value():
    mu, vals = _kernel(3, 11)
    h = (8, [(i, (i + 1) % 8) for i in range(8)])
    exact = ref.density(*h, mu, vals)
    assert wl._check_density(_graph(h), _w(mu, vals), exact) == []
    assert wl._check_density(_graph(h), _w(mu, vals), exact + 1e-9)
    assert wl._check_density(_graph(h), _w(mu, vals), exact * (1 + 1e-11))


def test_witness_gap_check_rejects_a_perturbed_gap():
    mu, vals = _kernel(3, 5)
    gap = ref.common_gap(*PAW, mu, vals)

    def result(g):
        return SimpleNamespace(best_kernel=_w(mu, vals), best_gap=g, evaluations=10)

    reeval = lambda m, v: ref.common_gap(*PAW, m, v)  # noqa: E731
    assert gap > 0
    assert wl._check_search(reeval, False, 1, result(gap)) == []
    problems = wl._check_search(reeval, False, 1, result(gap + 1e-9))
    assert any("re-evaluates" in p for p in problems)
    # an uncommon target needs a gap below -1e-4
    assert any("no violation" in p for p in wl._check_search(reeval, True, 1, result(gap)))


def test_strong_gap_check_rejects_a_perturbed_gap():
    mu, vals = _kernel(4, 9, -1.0, 2.0)
    gap = ref.strongly_common_gap(*C5, mu, vals)
    assert wl._check_strong_gap(_graph(C5), _w(mu, vals), gap) == []
    assert wl._check_strong_gap(_graph(C5), _w(mu, vals), gap + 1e-9)


@pytest.mark.parametrize("h", [K3, PAW, C5, (3, [(0, 1)])])
def test_hom_counts_match_brute_force(h):
    graphs = [(4, e) for e in itertools.islice(ref.all_labelled_graphs(4), 0, 64, 5)]
    stack = np.stack([ref.adjacency(4, e) for _, e in graphs])
    assert ref.hom_counts(*h, stack) == [_brute_hom(h, g) for g in graphs]


def test_cycle_hom_counts_are_traces():
    graphs = list(ref.all_labelled_graphs(4))
    stack = np.stack([ref.adjacency(4, e) for e in graphs])
    assert ref.cycle_hom_counts(5, stack) == ref.hom_counts(*C5, stack)


def test_all_labelled_graphs_counts():
    assert [sum(1 for _ in ref.all_labelled_graphs(n)) for n in range(1, 6)] == [1, 2, 8, 64, 1024]


def test_binomial_check_finds_a_violation():
    # t(K3, C5) = 0 < t(C5, C5)^(3/5)
    report = ref.binomial_check(*K3, 5, [C5])
    assert not report["all_hold"]
    assert report["min_slack"] < 0


def test_binomial_report_check_rejects_perturbations():
    j = (10, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (0, 5), (4, 6), (5, 7), (6, 7), (8, 9)])
    graphs = [(n, e) for n in range(1, 4) for e in ref.all_labelled_graphs(n)]
    expected = ref.binomial_check(*j, 5, graphs)
    report = {"all_hold_exact": True, "graphs_checked": expected["checked"],
              "exponent": "2/1", "min_slack": expected["min_slack"]}
    assert expected["all_hold"]
    assert wl._check_binomial(j, graphs, report) == []
    assert wl._check_binomial(j, graphs, dict(report, min_slack=report["min_slack"] + 1e-9))
    assert wl._check_binomial(j, graphs, dict(report, graphs_checked=expected["checked"] - 1))


def test_cycle_classes_count_binary_bracelets():
    # binary bracelets of length 5 and 7
    assert len(set(ref._cycle_class_table(5))) == 8
    assert len(set(ref._cycle_class_table(7))) == 18


def test_glued_counts():
    t = GOOD_CERT["template"]
    assert ref.glued_counts(t["F"], t["tree"], t["psi_nodes"], t["psi_edges"]) == (10, 10)


@pytest.mark.parametrize("cert", [GOOD_CERT, NOT_GOOD_CERT])
def test_certificates_pass(cert):
    assert ref.check_certificate(cert) == []


def test_good_certificate_rejects_a_flipped_coefficient():
    for change in (lambda c: -c, lambda c: 2 * c, lambda c: c + Fraction(1, 3)):
        bad = copy.deepcopy(GOOD_CERT)
        bad["generators_used"][0]["coeff"] = str(change(Fraction(bad["generators_used"][0]["coeff"])))
        assert ref.check_certificate(bad)


def test_good_certificate_rejects_a_wrong_target_or_triple():
    bad = copy.deepcopy(GOOD_CERT)
    bad["target"] = {"0,1,2,3,4": "3/1"}
    assert ref.check_certificate(bad)
    bad = copy.deepcopy(GOOD_CERT)
    bad["generators_used"][0]["r2"] = [0]
    assert ref.check_certificate(bad)


def test_not_good_certificate_rejects_a_flipped_coefficient():
    for key in NOT_GOOD_CERT["farkas_witness"]:
        bad = copy.deepcopy(NOT_GOOD_CERT)
        bad["farkas_witness"][key] = str(-Fraction(bad["farkas_witness"][key]))
        assert ref.check_certificate(bad), key


def test_not_good_certificate_rejects_a_wrong_glued_graph():
    bad = copy.deepcopy(NOT_GOOD_CERT)
    bad["j_edge_count"] = 2
    assert ref.check_certificate(bad)


def test_class_keys_are_canonicalised_independently():
    # the same witness keyed by other members of each dihedral orbit
    moved = copy.deepcopy(NOT_GOOD_CERT)
    moved["farkas_witness"] = {",".join(str((int(v) + 1) % 5) for v in k.split(",")): val
                               for k, val in NOT_GOOD_CERT["farkas_witness"].items()}
    assert ref.check_certificate(moved) == []


def test_tracer_nests_spans_and_counts_terms():
    import run
    import tracing

    tracer = tracing.Tracer()
    hc = run.fresh_import()
    tracer.instrument(vars(hc))
    w = hc.graphons.StepKernel((0.5, 0.5), ((0.2, 0.7), (0.7, 0.4)), graphon=True)
    lo = tracer.mark()
    hc.identities.goodman_residual(w)
    summary = tracer.summarise(lo)
    # K3, K2, P3 on w and on 1 - w, each a density call under the residual
    assert summary["calls"]["identities.goodman_residual"] == 1
    assert summary["calls"]["graphons.density"] == 6
    assert summary["calls"]["graphons.one_minus"] == 1
    assert summary["calls"]["graphons.StepKernel"] == 1
    assert summary["counts"]["graphons.density.terms"] == 2 * (2**3 + 2**2 + 2**3)
    total = summary["s"]["identities.goodman_residual"]
    children = summary["s"]["graphons.density"] + summary["s"]["graphons.one_minus"]
    assert summary["self_s"]["identities.goodman_residual"] == pytest.approx(total - children)
    root = tracer.names.index("identities.goodman_residual")
    roots = [i for i in range(lo, tracer.mark()) if tracer.parent[i] == -1]
    assert [tracer.name_id[i] for i in roots] == [root]
