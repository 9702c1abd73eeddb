import dataclasses
import functools
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import combination, dot, reference_x, reference_z, small_graphs, unit
from homcommon import cone, data
from homcommon.cone import (_phase_one, binomial_inequality_check, certificate_from_json,
                            certificate_to_json, check_good,
                            enumerate_generators, template_hash,
                            verify_certificate)
from homcommon.gluing import GluingTemplate, build_j
from homcommon.graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, _plan, all_labelled_graphs,
                              graph_to_json, hom_count, make_family, random_graph)
from homcommon.gluing import (_canonical_table, _class_counts, _lex_submasks, _mask_vertices,
                              _z_terms)
from homcommon.graphs import Graph

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


def _target(t):
    """(e(J)/e(F)) e_V as a reference class vector."""
    f = t.base
    j, _ = build_j(t)
    return combination([(Fraction(j.edge_count, f.edge_count), unit(f, range(f.vertex_count)))])


def _check_conic_equality(cert):
    """Recompute z + sum(c x) == (e(J)/e(F)) e_V from scratch."""
    t = cert.template
    for _, coeff in cert.generators_used:
        assert coeff > 0
    acc = combination([(1, reference_z(t))] + [
        (coeff, reference_x(t.base, *triple)) for triple, coeff in cert.generators_used])
    assert acc == _target(t)


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
    assert dot(y, combination([(1, _target(t)), (-1, reference_z(t))])) > 0
    for r1, r2, r3 in _all_triples(C5):
        assert dot(y, reference_x(C5, r1, r2, r3)) <= 0
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
    for (r1, r2, r3), coeffs in gens:
        assert coeffs and all(v != 0 for _, v in coeffs)
        assert len({k for k, _ in coeffs}) == len(coeffs)
        key = tuple(sorted(coeffs))
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
    report = binomial_inequality_check(t, 3)
    assert report["all_hold_exact"]
    assert report["min_slack"] >= -1e-9
    assert report["exponent"] == "2/1"


def test_binomial_inequality_disjoint_union_equality_on_cliques():
    two = GluingTemplate.make(C5, 2, [(0, 1)], {0: range(5), 1: range(5)},
                              {(0, 1): []})
    cliques = [make_family("complete", n) for n in range(2, 6)]
    report = binomial_inequality_check(two, 1, extra_graphs=cliques)
    assert report["all_hold_exact"]
    # multiplicativity makes J = F + F exact equality on every graph
    assert report["min_slack"] == pytest.approx(0.0, abs=1e-12)


def test_binomial_inequality_requires_good_template():
    with pytest.raises(ValueError):
        binomial_inequality_check(data.load_template("lone_edge_c5"), 2)


def test_binomial_inequality_random_five_vertex():
    t = data.load_template("pentagon_square")
    extra = [random_graph(5, 10_000 + i) for i in range(25)]
    report = binomial_inequality_check(t, 1, extra_graphs=extra)
    assert report["all_hold_exact"]


@functools.cache
def _reference_generators(f):
    """Every assignment of V(f) to parts 0-3 in product order, one
    reference x-vector each; the least triple per distinct nonzero vector,
    sorted by the vector's (class, coefficient) items."""
    seen = {}
    for r1, r2, r3 in _all_triples(f):
        if r1 > r3:
            continue
        vec = reference_x(f, r1, r2, r3)
        if not vec:
            continue
        key = tuple(sorted(vec.items()))
        if key not in seen or (r1, r2, r3) < seen[key][0]:
            seen[key] = ((r1, r2, r3), vec)
    return tuple(seen[key] for key in sorted(seen))


def _assert_same_generators(f):
    got = enumerate_generators(f)
    want = _reference_generators(f)
    assert [triple for triple, _ in got] == [triple for triple, _ in want]
    assert [list(coeffs) for _, coeffs in got] == [list(vec.items()) for _, vec in want]


@settings(max_examples=40, deadline=None)
@given(small_graphs(5))
def test_enumerate_generators_matches_assignment_loop(f):
    _assert_same_generators(f)


@pytest.mark.parametrize("f", [make_family("cycle", 6), make_family("path", 6)])
def test_enumerate_generators_matches_assignment_loop_six_vertices(f):
    _assert_same_generators(f)


def _unrestricted_generators(f):
    """`enumerate_generators` as it was with r1 over every nonempty mask."""
    n = f.vertex_count
    canon = _canonical_table(f, DEFAULT_WORK_BUDGET, "test")
    lex, rank = _lex_submasks(n)
    full = (1 << n) - 1
    seen = {}
    for m1 in lex[full][1:]:
        for m2 in lex[full ^ m1]:
            m12 = m1 | m2
            c, d = canon[m12], canon[m2]
            for m3 in lex[full ^ m12]:
                if rank[m3] <= rank[m1]:
                    continue
                a, b = canon[m12 | m3], canon[m2 | m3]
                key = (a, b, c, d) if b <= c else (a, c, b, d)
                seen.setdefault(key, (m1, m2, m3))
    vectors = []
    for m1, m2, m3 in seen.values():
        coeffs = {canon[m1 | m2 | m3]: 1, canon[m2 | m3]: -1}
        coeffs[canon[m1 | m2]] = coeffs.get(canon[m1 | m2], 0) - 1
        if m2:
            coeffs[canon[m2]] = 1
        vectors.append((sorted((rank[k], v) for k, v in coeffs.items()), (m1, m2, m3), coeffs))
    vectors.sort(key=lambda entry: entry[0])
    return tuple((tuple(_mask_vertices(m) for m in triple),
                  tuple((_mask_vertices(k), v) for k, v in coeffs.items()))
                 for _, triple, coeffs in vectors)


@pytest.mark.parametrize("f", [make_family(kind, n) for kind, n in (
    ("cycle", 5), ("cycle", 6), ("cycle", 7), ("cycle", 9), ("path", 5), ("path", 6),
    ("path", 7), ("complete", 4), ("complete", 5), ("complete_minus_edge", 5))],
    ids=["C5", "C6", "C7", "C9", "P5", "P6", "P7", "K4", "K5", "K5-e"])
def test_canonical_r1_walk_keeps_the_unrestricted_generators(f):
    assert enumerate_generators(f) == _unrestricted_generators(f)


@settings(max_examples=40, deadline=None)
@given(small_graphs(6))
def test_canonical_r1_walk_keeps_the_unrestricted_generators_on_small_graphs(f):
    assert enumerate_generators(f) == _unrestricted_generators(f)


@st.composite
def _linear_systems(draw):
    """Small integer systems A c = b; half are feasible by construction."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    entries = st.integers(-3, 3)
    columns = [[Fraction(draw(entries)) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        c = [draw(st.integers(0, 3)) for _ in range(n)]
        b = [sum(c[j] * columns[j][i] for j in range(n)) for i in range(m)]
        return columns, [Fraction(v) for v in b], True
    return columns, [Fraction(draw(st.integers(-5, 5))) for _ in range(m)], False


def _rows(columns):
    """Dense columns as the {row: value} dicts `_phase_one` takes."""
    return [{i: v for i, v in enumerate(col) if v} for col in columns]


def _dense_phase_one(columns, b):
    """Reference: the phase-one simplex on a dense tableau with Bland's
    rule, the same ratio test and tie break, and y read off the reduced
    costs of the artificial columns."""
    m, n = len(b), len(columns)
    sign = [Fraction(1) if b[i] >= 0 else Fraction(-1) for i in range(m)]
    tableau = [[sign[i] * columns[j][i] for j in range(n)]
               + [Fraction(int(k == i)) for k in range(m)] + [sign[i] * b[i]]
               for i in range(m)]
    basis = [n + i for i in range(m)]
    red = [Fraction(int(j >= n)) - sum(row[j] for row in tableau) for j in range(n + m)]
    red.append(-sum(row[-1] for row in tableau))
    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][-1] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for row in tableau + [red]:
            if row is not tableau[leave] and row[enter] != 0:
                factor = row[enter]
                row[:] = [a - factor * p for a, p in zip(row, tableau[leave])]
        basis[leave] = enter
    if red[-1] == 0:
        coeffs = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                coeffs[var] = tableau[i][-1]
        return "feasible", coeffs
    return "infeasible", [sign[i] * (1 - red[n + i]) for i in range(m)]


@settings(max_examples=200, deadline=None)
@given(_linear_systems())
def test_phase_one_answers_are_exact_certificates(system):
    columns, b, feasible_by_construction = system
    m = len(b)
    status, payload = _phase_one(_rows(columns), b)
    assert (status, payload) == _dense_phase_one(columns, b)
    if status == "feasible":
        assert all(c >= 0 for c in payload)
        assert [sum(c * col[i] for c, col in zip(payload, columns)) for i in range(m)] == b
    else:
        assert status == "infeasible"
        assert not feasible_by_construction
        for col in columns:
            assert sum(y * a for y, a in zip(payload, col)) <= 0
        assert sum(y * v for y, v in zip(payload, b)) > 0


@st.composite
def _rational_systems(draw):
    """Integer systems A c = b with up to 6 rows and 10 columns and right-hand
    sides of denominator up to 6; half are feasible by construction, with
    c = k / d for one denominator d."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 10))
    entries = st.integers(-4, 4)
    columns = [[Fraction(draw(entries)) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        d = draw(st.integers(1, 6))
        k = [draw(st.integers(0, 4)) for _ in range(n)]
        b = [Fraction(sum(k[j] * columns[j][i] for j in range(n)), d) for i in range(m)]
        return columns, b, True
    return columns, [Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
                     for _ in range(m)], False


@settings(max_examples=200, deadline=None)
@given(_rational_systems())
def test_phase_one_rational_rhs_sparse_columns(system):
    columns, b, feasible_by_construction = system
    m = len(b)
    # the solver takes the same columns as sparse {row: int} dicts
    sparse = [{i: int(v) for i, v in enumerate(col) if v} for col in columns]
    status, payload = _phase_one(sparse, b)
    assert (status, payload) == _dense_phase_one(columns, b)
    if status == "feasible":
        assert all(c >= 0 for c in payload)
        assert [sum(c * col[i] for c, col in zip(payload, columns)) for i in range(m)] == b
    else:
        assert not feasible_by_construction
        for col in columns:
            assert sum(y * a for y, a in zip(payload, col)) <= 0
        assert sum(y * v for y, v in zip(payload, b)) > 0


@pytest.mark.parametrize("columns,b", [
    ([[0, -1, 1, 2], [2, 1, 1, 1]], [0, 2, 0, 0]),
    ([[-1, 2, 1, 0], [1, -1, 1, 2], [2, -1, 2, 1], [1, 1, 2, -1]], [0, 1, 0, 0]),
])
def test_phase_one_degenerate_ties_go_to_smaller_basic_variable(columns, b):
    # degenerate systems where a ratio-test tie is broken against row order
    columns = [[Fraction(v) for v in col] for col in columns]
    b = [Fraction(v) for v in b]
    assert _phase_one(_rows(columns), b) == _dense_phase_one(columns, b)


@pytest.mark.parametrize("column", [{0: Fraction(1, 2)}, {0: Fraction(1), 1: 0.5},
                                    {1: Fraction(3, 2)}])
def test_phase_one_rejects_non_integer_columns(column):
    with pytest.raises(ValueError, match="integer"):
        _phase_one([{0: Fraction(1)}, column], [Fraction(1), Fraction(1)])


def _per_graph_binomial(t, max_g_vertices, extra_graphs):
    """Reference: one hom_count per graph and exact `Fraction` densities."""
    j, _ = build_j(t)
    f = t.base
    ratio = Fraction(j.edge_count, f.edge_count)
    graphs = [g for n in range(1, max_g_vertices + 1) for g in all_labelled_graphs(n)]
    min_slack = argmin = None
    exact_ok = True
    for g in graphs + list(extra_graphs):
        n = g.vertex_count
        t_j = Fraction(hom_count(j, g), n**j.vertex_count)
        t_f = Fraction(hom_count(f, g), n**f.vertex_count)
        exact_ok = exact_ok and t_j**ratio.denominator >= t_f**ratio.numerator
        slack = float(t_j) - float(t_f) ** float(ratio)
        if min_slack is None or slack < min_slack:
            min_slack, argmin = slack, g
    return {"all_hold_exact": exact_ok, "min_slack": min_slack,
            "argmin_graph": graph_to_json(argmin),
            "graphs_checked": len(graphs) + len(extra_graphs),
            "exponent": f"{ratio.numerator}/{ratio.denominator}"}


@pytest.mark.parametrize("batch", [cone._BATCH, 5])
def test_batched_binomial_matches_per_graph_loop(batch, monkeypatch):
    # batch 5 splits the runs of same-size graphs into several contractions
    monkeypatch.setattr(cone, "_BATCH", batch)
    t = data.load_template("pentagon_square")
    k3 = make_family("complete", 3)
    # mixed sizes out of order, a repeated graph and a graph whose size
    # continues the last all-graphs run
    extra = [random_graph(6, 1), random_graph(2, 2), k3, random_graph(7, 3), k3,
             random_graph(4, 4), make_family("complete", 5), random_graph(6, 5)]
    report = binomial_inequality_check(t, 4, extra_graphs=extra)
    assert report == _per_graph_binomial(t, 4, extra)
    assert report["graphs_checked"] == 1 + 2 + 8 + 64 + len(extra)


def test_batched_binomial_object_counts():
    # J(gen_c5_tree_a) has 15 vertices, so 19-vertex graphs need Python ints
    t = data.load_template("gen_c5_tree_a")
    j, _ = build_j(t)
    assert j.vertex_count == 15 and 19**15 >= 2**63
    extra = [random_graph(19, 6), random_graph(3, 7), random_graph(19, 8, 0.8)]
    report = binomial_inequality_check(t, 2, extra_graphs=extra)
    assert report == _per_graph_binomial(t, 2, extra)


def test_binomial_check_charges_each_graph():
    t = data.load_template("pentagon_square")
    j, _ = build_j(t)
    extra = [random_graph(6, 9)]
    # the dearest single contraction: J or F over the 6-vertex graph; it
    # exceeds the 4^5 assignments that the goodness check of C5 charges
    work = max(sum(6**w for w in _plan(h).widths) for h in (j, t.base))
    assert work == 1200 > 4**5
    assert binomial_inequality_check(t, 0, extra_graphs=extra, budget=work)["all_hold_exact"]
    with pytest.raises(BudgetExceededError, match="^binomial_inequality_check: "):
        binomial_inequality_check(t, 0, extra_graphs=extra, budget=work - 1)


C7 = make_family("cycle", 7)


def _only_tuples_and_ints(value):
    if isinstance(value, tuple):
        return all(_only_tuples_and_ints(v) for v in value)
    return type(value) is int


def test_enumerate_generators_returns_one_cached_tuple():
    gens = enumerate_generators(C7)
    assert enumerate_generators(C7) is gens
    assert _only_tuples_and_ints(gens)
    assert len(gens) == 433


@functools.cache
def _lone_edge(base_name):
    f = C5 if base_name == "C5" else make_family("path", 5)
    return check_good(GluingTemplate.make(f, 1, [], {0: [0, 1]}, {}))


_rationals = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["C5", "P5"]), st.integers(0, 3), st.data())
def test_integer_farkas_check_matches_fraction_reference(base_name, multiple, data_):
    # the solver's witness times 0-3, with up to 3 generator classes moved
    # by rationals of mixed sign and denominator, or by zero
    cert = _lone_edge(base_name)
    classes = sorted({k for _, coeffs in enumerate_generators(cert.template.base)
                      for k, _ in coeffs})
    y = {k: multiple * v for k, v in cert.farkas_witness.items()}
    for k in data_.draw(st.lists(st.sampled_from(classes), max_size=3, unique=True)):
        y[k] = y.get(k, 0) + data_.draw(_rationals)
    tampered = dataclasses.replace(cert, farkas_witness=y)
    assert verify_certificate(tampered) == _reference_verdict(tampered)


def test_check_good_charges_generators_when_cached():
    enumerate_generators(C7)
    with pytest.raises(BudgetExceededError, match="^check_good: "):
        check_good(_c7_template("c7_square"), budget=4**7 - 1)
    assert check_good(_c7_template("c7_square"), budget=4**7).verdict == "good"


def test_check_good_enumerates_through_the_public_function(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return enumerate_generators(f)

    monkeypatch.setattr(cone, "enumerate_generators", counted)
    check_good(_c7_template("c7_lone_edge"))
    assert calls and all(f == C7 for f in calls)


def _c7_template(name):
    """Two C7 templates: a square hung on the cycle plus a K2 component
    (good, with cone generators), and a lone edge (not good)."""
    f = make_family("cycle", 7)
    full = list(range(7))
    if name == "c7_square":
        return GluingTemplate.make(f, 4, [(0, 1), (1, 2), (0, 3)],
                                   {0: full, 1: [6, 0, 1], 2: [6, 0, 1], 3: [0, 1]},
                                   {(0, 1): [6], (1, 2): [1, 6]})
    return GluingTemplate.make(f, 1, [], {0: [0, 1]}, {})


@pytest.mark.parametrize("name,verdict", [("c7_square", "good"),
                                          ("c7_lone_edge", "not_good")])
def test_c7_goodness_round_trip(name, verdict):
    cert = check_good(_c7_template(name))
    assert cert.verdict == verdict
    if verdict == "good":
        assert cert.generators_used
        _check_conic_equality(cert)
    loaded = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    assert loaded == cert
    assert verify_certificate(loaded)


def test_verify_certificate_charges_generator_enumeration():
    not_good = check_good(data.load_template("lone_edge_c5"))
    with pytest.raises(BudgetExceededError, match="verify_certificate"):
        verify_certificate(not_good, budget=4**5 - 1)
    assert verify_certificate(not_good, budget=4**5)
    good = check_good(data.load_template("pentagon_square"))
    assert verify_certificate(good, budget=1)


def test_binomial_check_passes_its_budget_to_check_good():
    with pytest.raises(BudgetExceededError, match="^check_good: "):
        binomial_inequality_check(data.load_template("pentagon_square"), 2, budget=1)


def test_check_good_charges_the_class_table_first():
    # K9's class table takes at least the identity's 2^9 subset images, so at
    # budget 1 it is refused before the automorphism search starts
    lone_edge_k9 = GluingTemplate.make(make_family("complete", 9), 1, [], {0: [0, 1]}, {})
    with pytest.raises(BudgetExceededError,
                       match="^check_good: .* at least 512 subset images, budget 1$"):
        check_good(lone_edge_k9, budget=1)


@pytest.mark.parametrize("max_g_vertices", [0, -3])
def test_binomial_check_needs_a_candidate_graph(max_g_vertices):
    with pytest.raises(ValueError, match="candidate graph"):
        binomial_inequality_check(data.load_template("pentagon_square"), max_g_vertices)


@pytest.mark.parametrize("max_g_vertices", [0, 2])
def test_binomial_check_rejects_an_empty_extra_graph(max_g_vertices):
    # t(J, G) and t(F, G) divide by n^v, so G needs n >= 1
    extra = iter([random_graph(4, 7), Graph(0, frozenset())])
    with pytest.raises(ValueError, match="at least one vertex"):
        binomial_inequality_check(data.load_template("pentagon_square"), max_g_vertices,
                                  extra_graphs=extra)


def test_binomial_check_takes_extra_graphs_alone():
    t = data.load_template("pentagon_square")
    extra = [random_graph(5, 40), make_family("complete", 4), random_graph(5, 41)]
    report = binomial_inequality_check(t, 0, extra_graphs=extra)
    assert report == _per_graph_binomial(t, 0, extra)
    assert report["graphs_checked"] == 3
    assert binomial_inequality_check(t, 0, extra_graphs=iter(extra)) == report


def _reference_verdict(cert):
    """Reference for `verify_certificate`: `Fraction` sums and dot products
    of the reference class vectors."""
    t, f = cert.template, cert.template.base
    j, _ = build_j(t)
    target = _target(t)
    if ((j.vertex_count, j.edge_count) != (cert.j_vertex_count, cert.j_edge_count)
            or cert.target != target):
        return False
    rhs = combination([(1, target), (-1, reference_z(t))])
    if cert.verdict == "good":
        if any(coeff < 0 for _, coeff in cert.generators_used):
            return False
        acc = combination([(coeff, reference_x(f, *triple))
                           for triple, coeff in cert.generators_used])
        return cert.farkas_witness is None and acc == rhs
    y = cert.farkas_witness
    return (y is not None and dot(y, rhs) > 0
            and all(dot(y, vec) <= 0 for _, vec in _reference_generators(f)))


_TEMPLATE_BASES = {"C5": C5, "C7": make_family("cycle", 7), "P5": make_family("path", 5),
                   "paw": data.load_graph("paw")}


@st.composite
def _random_templates(draw):
    """Templates with 1-3 tree nodes; each node is all of V(F) or a subset."""
    f = _TEMPLATE_BASES[draw(st.sampled_from(sorted(_TEMPLATE_BASES)))]
    nodes = draw(st.integers(1, 3))
    subsets = st.sets(st.integers(0, f.vertex_count - 1))
    psi = [draw(st.one_of(st.just(set(range(f.vertex_count))), subsets)) for _ in range(nodes)]
    edges = [(draw(st.integers(0, s - 1)), s) for s in range(1, nodes)]
    glue = {(a, b): {v for v in sorted(psi[a] & psi[b]) if draw(st.booleans())}
            for a, b in edges}
    return GluingTemplate.make(f, nodes, edges, dict(enumerate(psi)), glue)


# random templates with 1-3 nodes are never good with generators, so the
# certificates that use generators are drawn from these as well
_GENERATOR_TEMPLATES = [data.load_template(name) for name in
                        ("pentagon_square", "gen_c5_tree_a", "gen_c5_tree_b")]


def _perturbed(cert, draw):
    """cert with one witness entry, one coefficient or one triple part
    changed; a good certificate without generators gains one."""
    f = cert.template.base
    if cert.verdict == "not_good":
        classes = sorted({k for _, coeffs in enumerate_generators(f) for k, _ in coeffs}
                         | set(cert.farkas_witness))
        y = dict(cert.farkas_witness)
        k = draw(st.sampled_from(classes))
        y[k] = y.get(k, 0) + draw(_rationals)
        return dataclasses.replace(cert, farkas_witness=y)
    used = list(cert.generators_used)
    if not used:
        triple, _ = draw(st.sampled_from(enumerate_generators(f)))
        return dataclasses.replace(cert, generators_used=((triple, draw(_rationals)),))
    i = draw(st.integers(0, len(used) - 1))
    triple, coeff = used[i]
    if draw(st.booleans()):
        used[i] = triple, coeff + draw(_rationals)
    else:
        part = draw(st.integers(0, 2))
        taken = set().union(*(triple[p] for p in range(3) if p != part))
        free = [v for v in range(f.vertex_count) if v not in taken]
        parts = list(triple)
        parts[part] = tuple(sorted(draw(st.sets(st.sampled_from(free)))) if free else ())
        used[i] = tuple(parts), coeff
    return dataclasses.replace(cert, generators_used=tuple(used))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_random_templates(), st.sampled_from(_GENERATOR_TEMPLATES)), st.data())
def test_integer_certificate_forms_match_class_vectors(t, data_):
    f = t.base
    j, _ = build_j(t)
    z = reference_z(t)
    assert _class_counts(f, _z_terms(t)) == z
    if j.edge_count == 0:
        return
    rhs = combination([(j.edge_count, unit(f, range(f.vertex_count))), (-f.edge_count, z)])
    assert (_class_counts(f, [(j.edge_count, range(f.vertex_count))]
                          + _z_terms(t, -f.edge_count)) == rhs)
    cert = check_good(t)
    assert verify_certificate(cert) and _reference_verdict(cert)
    tampered = _perturbed(cert, data_.draw)
    assert verify_certificate(tampered) == _reference_verdict(tampered)


def test_verify_certificate_rejects_a_negative_coefficient_that_balances():
    # one generator listed twice, with c + 1 and -1: the conic sum still
    # equals the target, so only the sign test can reject it
    cert = check_good(data.load_template("pentagon_square"))
    (triple, coeff), *rest = cert.generators_used
    split = dataclasses.replace(
        cert, generators_used=((triple, coeff + 1), (triple, Fraction(-1)), *rest))
    assert not _reference_verdict(split)
    assert not verify_certificate(split)
    halves = dataclasses.replace(
        cert, generators_used=((triple, coeff / 2), (triple, coeff / 2), *rest))
    assert _reference_verdict(halves) and verify_certificate(halves)
