import dataclasses
import json
from fractions import Fraction
from itertools import product

import pytest

from homcommon import data
from homcommon.cone import (binomial_inequality_check, certificate_from_json,
                            certificate_to_json, check_good,
                            enumerate_generators, template_hash,
                            verify_certificate)
from homcommon.gluing import (ClassVector, GluingTemplate, build_j, x_vector,
                              z_vector)
from homcommon.graphs import make_family, random_graph

C5 = make_family("cycle", 5)


def _all_triples(f):
    """Independent enumeration of every disjoint triple with r1, r3 nonempty."""
    n = f.vertex_count
    for assign in product(range(4), repeat=n):
        r1 = tuple(v for v in range(n) if assign[v] == 1)
        r2 = tuple(v for v in range(n) if assign[v] == 2)
        r3 = tuple(v for v in range(n) if assign[v] == 3)
        if r1 and r3:
            yield r1, r2, r3


def _check_conic_equality(cert):
    """Recompute z + sum(c x) == (e(J)/e(F)) e_V from scratch."""
    t = cert.template
    j, _ = build_j(t)
    target = ClassVector.basis(t.base, range(t.base.vertex_count)).scaled(
        Fraction(j.edge_count, t.base.edge_count))
    acc = z_vector(t)
    for (r1, r2, r3), coeff in cert.generators_used:
        assert coeff > 0
        acc = acc + x_vector(t.base, r1, r2, r3).scaled(coeff)
    assert acc.coeffs == target.coeffs


def test_simple_tree_templates_good_with_no_generators():
    for name in ("simple_c5_vertex", "simple_k3_edge"):
        cert = check_good(data.load_template(name))
        assert cert.verdict == "good"
        assert cert.generators_used == ()
        assert verify_certificate(cert)


def test_chain_templates_good():
    for name in ("gen_c5_tree_a", "gen_c5_tree_b", "pentagon_square"):
        cert = check_good(data.load_template(name))
        assert cert.verdict == "good"
        assert verify_certificate(cert)
        _check_conic_equality(cert)


def test_lone_edge_not_good_with_farkas_witness():
    cert = check_good(data.load_template("lone_edge_c5"))
    assert cert.verdict == "not_good"
    y = cert.farkas_witness
    assert y is not None
    t = cert.template
    j, _ = build_j(t)
    target = ClassVector.basis(C5, range(5)).scaled(Fraction(j.edge_count, 5))
    assert y.inner(target - z_vector(t)) > 0
    for r1, r2, r3 in _all_triples(C5):
        assert y.inner(x_vector(C5, r1, r2, r3)) <= 0
    assert verify_certificate(cert)


def test_goodness_implies_density_equality():
    """Certified-good templates satisfy e(J) v(F) = e(F) v(J)."""
    for name in ("simple_c5_vertex", "simple_k3_edge", "gen_c5_tree_a",
                 "gen_c5_tree_b", "pentagon_square"):
        t = data.load_template(name)
        cert = check_good(t)
        assert cert.verdict == "good"
        j, _ = build_j(t)
        assert j.edge_count * t.base.vertex_count == t.base.edge_count * j.vertex_count


def test_goodness_preserved_by_disjoint_full_node():
    t = data.load_template("pentagon_square")
    augmented = GluingTemplate.make(
        t.base, t.tree_nodes + 1,
        list(t.tree_edges) + [(0, t.tree_nodes)],
        {**{i: sorted(t.psi_nodes[i]) for i in range(t.tree_nodes)},
         t.tree_nodes: range(t.base.vertex_count)},
        {**{e: sorted(sub) for e, sub in t.psi_edges},
         (0, t.tree_nodes): []})
    cert = check_good(augmented)
    assert cert.verdict == "good"
    assert verify_certificate(cert)


def test_enumerate_generators_distinct_nonzero():
    gens = enumerate_generators(C5)
    assert gens
    seen = set()
    for (r1, r2, r3), vec in gens:
        assert not vec.is_zero()
        key = tuple(sorted(vec.coeffs.items()))
        assert key not in seen
        seen.add(key)
        assert set(r1).isdisjoint(r2) and set(r1).isdisjoint(r3) and set(r2).isdisjoint(r3)


def test_check_good_requires_edges():
    empty = GluingTemplate.make(C5, 1, [], {0: [0]}, {})
    with pytest.raises(ValueError):
        check_good(empty)


def test_certificate_tampering_detected():
    cert = check_good(data.load_template("gen_c5_tree_b"))
    assert verify_certificate(cert)
    if cert.generators_used:
        (triple, coeff) = cert.generators_used[0]
        perturbed = dataclasses.replace(
            cert, generators_used=((triple, coeff + 1),) + cert.generators_used[1:])
        assert not verify_certificate(perturbed)
        negated = dataclasses.replace(
            cert, generators_used=((triple, Fraction(-1)),) + cert.generators_used[1:])
        assert not verify_certificate(negated)
    wrong_counts = dataclasses.replace(cert, j_edge_count=cert.j_edge_count + 1)
    assert not verify_certificate(wrong_counts)


def test_certificate_json_round_trip(tmp_path):
    cert = check_good(data.load_template("pentagon_square"))
    payload = certificate_to_json(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    loaded = certificate_from_json(json.loads(path.read_text()))
    assert loaded == cert
    assert verify_certificate(loaded)
    # hash pins the template
    tampered = json.loads(path.read_text())
    tampered["template"]["psi_nodes"]["0"] = [0, 1]
    with pytest.raises(ValueError):
        certificate_from_json(tampered)
    assert payload["template_hash"] == template_hash(cert.template)


def test_certificate_without_template_hash_rejected():
    payload = certificate_to_json(check_good(data.load_template("lone_edge_c5")))
    assert verify_certificate(certificate_from_json(payload))
    del payload["template_hash"]
    with pytest.raises(ValueError, match="template_hash"):
        certificate_from_json(payload)


def test_binomial_inequality_square_attachment():
    t = data.load_template("pentagon_square")
    cert = check_good(t)
    report = binomial_inequality_check(t, 3, cert=cert)
    assert report["all_hold_exact"]
    assert report["min_slack"] >= -1e-9
    assert report["exponent"] == "2/1"


def test_binomial_inequality_disjoint_union_equality_on_cliques():
    two = GluingTemplate.make(C5, 2, [(0, 1)], {0: range(5), 1: range(5)},
                              {(0, 1): []})
    cert = check_good(two)
    cliques = [make_family("complete", n) for n in range(2, 6)]
    report = binomial_inequality_check(two, 1, cert=cert, extra_graphs=cliques)
    assert report["all_hold_exact"]
    # multiplicativity makes J = F + F exact equality on every graph
    assert report["min_slack"] == pytest.approx(0.0, abs=1e-12)


def test_binomial_inequality_requires_good_template():
    with pytest.raises(ValueError):
        binomial_inequality_check(data.load_template("lone_edge_c5"), 2)


def test_binomial_inequality_random_five_vertex():
    t = data.load_template("pentagon_square")
    cert = check_good(t)
    extra = [random_graph(5, 10_000 + i) for i in range(25)]
    report = binomial_inequality_check(t, 1, cert=cert, extra_graphs=extra)
    assert report["all_hold_exact"]
