import dataclasses
import json
import shlex
import time
from pathlib import Path

import pytest

from conftest import combination, dot, reference_x, reference_z
from homcommon import cli, data
from homcommon.cli import _parse_seeds, build_parser, main
from homcommon.commonness import common_gap, common_gap_objective, falsify
from homcommon.cone import (certificate_from_json, certificate_to_json, check_good,
                            enumerate_generators, template_hash, verify_certificate)
from homcommon.gluing import template_from_json, template_to_json
from homcommon.graphons import kernel_from_json
from homcommon.graphs import (DEFAULT_WORK_BUDGET, FALSIFY_THRESHOLD, IDENTITY_TOL,
                              INEQUALITY_TOL)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_non_positive_budget_is_a_usage_error(capsys, budget):
    code, out, err = run_cli(capsys, "--budget", budget, "verify", "identity", "goodman",
                             "--seeds", "0")
    assert code == 2 and out == ""
    assert "work budget must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ("--tolerance-identity", "verify", "identity", "goodman", "--seeds", "0..2"),
    ("--tolerance-inequality", "common", "pair-gap", "--h1", "K3", "--h2", "K3",
     "--p1", "0.5", "--seeds", "0..2"),
], ids=["identity", "inequality"])
def test_non_finite_tolerance_is_a_usage_error(capsys, command, value):
    # tolerances are package constants: any tolerance flag is a usage error
    code, out, err = run_cli(capsys, command[0], value, *command[1:])
    assert code == 2 and out == ""
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("verify", "identity", "goodman", "--seeds", "0..2"),
    ("common", "pair-gap", "--h1", "K3", "--h2", "K3", "--p1", "0.5", "--seeds", "0..2"),
], ids=["verify-identity", "pair-gap"])
def test_max_blocks_is_a_usage_error(capsys, command):
    # the sampled suites draw sample_graphon's default of 4 blocks
    code, out, err = run_cli(capsys, *command, "--max-blocks", "4")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --max-blocks" in err and "Traceback" not in err


def test_defaults_are_the_library_constants(capsys):
    assert build_parser().parse_args(["repro-all"]).budget == DEFAULT_WORK_BUDGET
    # each verdict is decided against the package constant its report names
    for command, field, constant in (
            (("verify", "identity", "goodman", "--seeds", "0"), "tolerance", IDENTITY_TOL),
            (("common", "pair-gap", "--h1", "K3", "--h2", "K3", "--p1", "0.5", "--seeds", "0"),
             "tolerance", INEQUALITY_TOL),
            (("common", "falsify", "--target", "K3", "--restarts", "1", "--steps", "2"),
             "threshold", FALSIFY_THRESHOLD)):
        _, out, _ = run_cli(capsys, *command)
        assert json.loads(out)[field] == constant


def test_parse_seeds():
    assert _parse_seeds("0..3") == [0, 1, 2, 3]
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("1,5,9") == [1, 5, 9]
    for empty in ("5..3", ","):
        with pytest.raises(ValueError, match="empty"):
            _parse_seeds(empty)


@pytest.mark.parametrize("command", [
    ("verify", "identity", "goodman"),
    ("common", "pair-gap", "--h1", "K3", "--h2", "K3", "--p1", "0.5"),
    ("common", "dk3k2-verify"),
], ids=["verify-identity", "pair-gap", "dk3k2-verify"])
def test_empty_seed_range_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, *command, "--seeds", "5..3")
    assert code == 2
    assert out == "" and "empty" in err


def test_verify_identity_commands(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "identity", "goodman", "--seeds", "0..9")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "verify", "identity", "c5goodman", "--seeds", "0..9")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "identity", "expansion", "--seeds", "0..2")
    assert code == 0
    # a residual at the tolerance is a reported failure
    monkeypatch.setattr(cli, "max_identity_residual", lambda *args: IDENTITY_TOL)
    code, out, _ = run_cli(capsys, "verify", "identity", "goodman", "--seeds", "0..9")
    assert code == 1
    report = json.loads(out)
    assert (report["passed"], report["tolerance"]) == (False, IDENTITY_TOL)


def test_glue_check_good_and_bad(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "glue", "check", "gen_c5_tree_b",
                           "--certificate", str(cert_path))
    assert code == 0
    loaded = certificate_from_json(json.loads(cert_path.read_text()))
    assert verify_certificate(loaded)
    code, out, _ = run_cli(capsys, "glue", "check", "lone_edge_c5")
    assert code == 1
    assert json.loads(out)["verdict"] == "not_good"


def test_glue_check_reads_template_files(capsys, tmp_path):
    t = data.load_template("pentagon_square")
    path = tmp_path / "template.json"
    path.write_text(json.dumps(template_to_json(t)))
    code, out, _ = run_cli(capsys, "glue", "check", str(path))
    assert code == 0


def test_glue_check_corrupted_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "glue", "check", str(path))
    assert code == 2
    assert "error" in err


def test_common_solve_p(capsys):
    code, out, _ = run_cli(capsys, "common", "solve-p", "--e1", "3", "--v1", "3",
                           "--e2", "5", "--v2", "4", "--m", "3")
    assert code == 0
    assert json.loads(out)["p1"] == pytest.approx(0.4772255750516612, abs=1e-10)


def test_common_pair_gap(capsys):
    code, out, _ = run_cli(capsys, "common", "pair-gap", "--h1", "diamond",
                           "--h2", "k3uk2", "--p1", "0.558480847382856",
                           "--seeds", "0..19")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_common_certify(capsys):
    code, out, _ = run_cli(capsys, "common", "certify",
                           "--template1", "simple_c5_vertex", "--l1", "0",
                           "--template2", "simple_c5_vertex", "--l2", "0",
                           "--p1", "0.5")
    assert code == 0
    assert json.loads(out)["certified"] is True
    code, out, _ = run_cli(capsys, "common", "certify",
                           "--template1", "pentagon_square", "--l1", "1",
                           "--template2", "simple_c5_vertex", "--l2", "0",
                           "--p1", "0.4")
    assert code == 1


def test_common_certify_rejects_negative_l(capsys):
    code, out, err = run_cli(capsys, "common", "certify",
                             "--template1", "pentagon_square", "--l1", "-1",
                             "--template2", "simple_c5_vertex", "--l2", "0",
                             "--p1", "0.4940433955823518")
    assert code == 2
    assert out == "" and "non-negative" in err


def test_common_falsify(capsys):
    code, out, _ = run_cli(capsys, "common", "falsify", "--target", "paw",
                           "--seed", "1", "--restarts", "3")
    assert code == 1  # violation found is the expected outcome for the paw
    report = json.loads(out)
    assert report["violation_found"] and report["best_gap"] < -1e-4
    assert (report["seed"], report["restarts"], report["steps"]) == (1, 3, 200)
    assert (report["threshold"], report["budget"]) == (1e-4, 10**8)
    code, out, _ = run_cli(capsys, "common", "falsify", "--target", "K3",
                           "--seed", "1", "--restarts", "3")
    assert code == 0


def test_common_falsify_reports_every_input_of_the_search(capsys):
    # the search depends only on (seed, restarts, steps); max_blocks is fixed at 4
    code, out, _ = run_cli(capsys, "common", "falsify", "--target", "paw",
                           "--seed", "2", "--restarts", "2", "--steps", "5")
    report = json.loads(out)
    assert (report["seed"], report["restarts"], report["steps"], report["max_blocks"]) == (
        2, 2, 5, 4)
    again = falsify(common_gap_objective(data.load_graph("paw")), seed=2, restarts=2, steps=5)
    assert report["best_gap"] == again.best_gap
    assert (report["evaluations"], report["objective_calls"]) == (
        again.evaluations, again.objective_calls)
    assert kernel_from_json(report["witness"]) == again.best_kernel


def test_common_falsify_rejects_negative_steps(capsys):
    code, out, err = run_cli(capsys, "common", "falsify", "--target", "K3",
                             "--restarts", "1", "--steps", "-3")
    assert code == 2 and out == ""
    assert "steps must be at least 0" in err


@pytest.mark.parametrize("threshold", ["-1", "nan", "inf", "-inf"])
def test_common_falsify_rejects_a_bad_threshold(capsys, threshold):
    # the violation threshold is FALSIFY_THRESHOLD: any --threshold is a usage error
    code, out, err = run_cli(capsys, "common", "falsify", "--target", "K3",
                             "--restarts", "2", "--steps", "2", f"--threshold={threshold}")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --threshold" in err and "Traceback" not in err


def test_common_falsify_witness_reloads_to_its_gap(capsys):
    code, out, _ = run_cli(capsys, "common", "falsify", "--target", "paw",
                           "--seed", "1", "--restarts", "2", "--steps", "20")
    report = json.loads(out)
    assert report["witness"]["graphon"] is True
    witness = kernel_from_json(report["witness"])
    assert common_gap(data.load_graph("paw"), witness) == report["best_gap"]


def test_falsify_seed_global_and_subcommand(capsys):
    # --seed is an option of `common falsify` only
    code, out, _ = run_cli(capsys, "--seed", "3", "common", "falsify", "--target", "K3",
                           "--restarts", "1", "--steps", "2")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "common", "falsify", "--target", "K3",
                           "--seed", "5", "--restarts", "1", "--steps", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 5
    code, out, _ = run_cli(capsys, "common", "falsify", "--target", "K3",
                           "--restarts", "1", "--steps", "2")
    assert json.loads(out)["seed"] == 0


@pytest.mark.parametrize("command", [
    ("common", "pair-gap", "--h1", "C5", "--h2", "C5", "--p1", "0.5", "--seeds", "0"),
    ("common", "falsify", "--target", "K3", "--restarts", "1", "--steps", "2"),
    ("common", "dk3k2-verify", "--seeds", "0..1"),
])
def test_budget_reaches_common_commands(capsys, command):
    code, _, err = run_cli(capsys, "--budget", "1", *command)
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("command", [
    ("glue", "check", "lone_edge_c5"),
    ("common", "certify", "--template1", "pentagon_square", "--l1", "1",
     "--template2", "simple_c5_vertex", "--l2", "0", "--p1", "0.4"),
])
def test_budget_reaches_goodness_commands(capsys, command):
    code, _, err = run_cli(capsys, "--budget", "1", *command)
    assert code == 2
    assert "check_good" in err and "budget" in err


def test_glue_verify_certificate_file(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "glue", "check", "gen_c5_tree_b", "--certificate", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "glue", "verify", str(path))
    assert code == 0
    assert json.loads(out)["verified"] is True

    payload = json.loads(path.read_text())
    tampered = tmp_path / "tampered.json"
    coeff = payload["generators_used"][0]["coeff"]
    payload["generators_used"][0]["coeff"] = "2/1" if coeff != "2/1" else "3/1"
    tampered.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "glue", "verify", str(tampered))
    assert code == 1
    assert json.loads(out)["verified"] is False

    payload = json.loads(path.read_text())
    del payload["template_hash"]
    unhashed = tmp_path / "unhashed.json"
    unhashed.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "glue", "verify", str(unhashed))
    assert code == 2
    assert "template_hash" in err



def test_glue_verify_rejects_a_raised_farkas_coefficient(capsys, tmp_path):
    path = tmp_path / "lone_edge.json"
    assert run_cli(capsys, "glue", "check", "lone_edge_c5", "--certificate", str(path))[0] == 1
    cert = certificate_from_json(json.loads(path.read_text()))
    base, y = cert.template.base, dict(cert.farkas_witness)
    xs = [reference_x(base, *triple) for triple, _ in enumerate_generators(base)]
    # raise the coefficient of the full class, which target - z weights
    # positively, until some generator has a positive product with it
    full = tuple(range(base.vertex_count))
    while all(dot(y, x) <= 0 for x in xs):
        y[full] += 1
    assert dot(y, combination([(1, cert.target), (-1, reference_z(cert.template))])) > 0
    tampered = dataclasses.replace(cert, farkas_witness=y)
    assert not verify_certificate(tampered)
    path.write_text(json.dumps(certificate_to_json(tampered)))
    code, out, _ = run_cli(capsys, "glue", "verify", str(path))
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_glue_verify_drops_explicit_zero_class_entries(capsys, tmp_path):
    # the lone edge over P5 has a witness without the class of {0}
    lone_edge_p5 = {"F": "P5", "tree": {"nodes": 1, "edges": []}, "psi_nodes": {"0": [0, 1]}}
    template, path = tmp_path / "template.json", tmp_path / "cert.json"
    template.write_text(json.dumps(lone_edge_p5))
    assert run_cli(capsys, "glue", "check", str(template), "--certificate", str(path))[0] == 1
    payload = json.loads(path.read_text())
    assert "0" not in payload["target"] and "0" not in payload["farkas_witness"]
    padded = json.loads(path.read_text())
    padded["target"]["0"] = padded["farkas_witness"]["0"] = "0/1"
    path.write_text(json.dumps(padded))
    cert = certificate_from_json(padded)
    assert cert == certificate_from_json(payload)
    assert (0,) not in cert.target and (0,) not in cert.farkas_witness
    code, out, _ = run_cli(capsys, "glue", "verify", str(path))
    assert code == 0 and json.loads(out)["verified"] is True


def test_glue_verify_rejects_non_canonical_class_keys(capsys, tmp_path):
    path = tmp_path / "lone_edge.json"
    assert run_cli(capsys, "glue", "check", "lone_edge_c5", "--certificate", str(path))[0] == 1
    assert run_cli(capsys, "glue", "verify", str(path))[0] == 0
    # "1,2" and "1,0" name the class of the edge {0, 1} of C5; vertex 5 is not in C5
    for field, key, new_key, message in (
            ("farkas_witness", "0,1", "1,2", "'1,2' is not the canonical representative '0,1'"),
            ("farkas_witness", "0,1", "1,0", "'1,0' is not the canonical representative '0,1'"),
            ("target", "0,1,2,3,4", "1,2,3,4,0", "representative '0,1,2,3,4'"),
            ("farkas_witness", "0", "5", "vertex 5 not in the base graph")):
        edited = json.loads(path.read_text())
        edited[field][new_key] = edited[field].pop(key)
        renamed = tmp_path / "renamed.json"
        renamed.write_text(json.dumps(edited))
        code, out, err = run_cli(capsys, "glue", "verify", str(renamed))
        assert code == 2 and out == ""
        assert message in err


def test_budget_reaches_glue_verify(capsys, tmp_path):
    not_good, good = tmp_path / "lone_edge.json", tmp_path / "square.json"
    assert run_cli(capsys, "glue", "check", "lone_edge_c5", "--certificate", str(not_good))[0] == 1
    assert run_cli(capsys, "glue", "check", "pentagon_square", "--certificate", str(good))[0] == 0
    code, _, err = run_cli(capsys, "--budget", "1", "glue", "verify", str(not_good))
    assert code == 2
    assert "verify_certificate" in err and "budget" in err
    code, out, _ = run_cli(capsys, "--budget", "1", "glue", "verify", str(good))
    assert code == 0
    assert json.loads(out)["verified"] is True

def test_repro_all_json_out(capsys, tmp_path, monkeypatch):
    from homcommon import acceptance
    stubs = (lambda: {"name": "stub pass", "passed": True, "detail": "ok"},
             lambda: {"name": "stub fail", "passed": False, "detail": "no"})
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs)
    path = tmp_path / "repro.json"
    code, out, _ = run_cli(capsys, "--json-out", str(path), "repro-all")
    assert code == 1
    assert "[PASS] criterion stub pass: ok" in out
    assert "[FAIL] criterion stub fail: no" in out
    report = json.loads(path.read_text())
    assert report["passed"] is False
    assert [(c["name"], c["passed"], c["detail"]) for c in report["criteria"]] == [
        ("stub pass", True, "ok"), ("stub fail", False, "no")]
    assert all(c["seconds"] >= 0 for c in report["criteria"])


def test_json_out_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--json-out", str(path),
                           "verify", "identity", "goodman", "--seeds", "0..4")
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_graph_argument(capsys):
    code, _, err = run_cli(capsys, "common", "falsify", "--target", "nope.json",
                           "--restarts", "1")
    assert code == 2


def test_parse_graph_spec_variants():
    from homcommon.data import parse_graph_spec
    assert parse_graph_spec("C5").vertex_count == 5
    assert parse_graph_spec("K3").edge_count == 3
    assert parse_graph_spec("P4").edge_count == 3
    assert parse_graph_spec("paw").vertex_count == 4
    assert parse_graph_spec("k3uk2").vertex_count == 5
    with pytest.raises(OSError):
        parse_graph_spec("no_such_graph.json")


def test_malformed_certificate_json_rejected(capsys, tmp_path):
    from homcommon.cone import certificate_from_json, certificate_to_json, check_good
    cert = check_good(data.load_template("simple_c5_vertex"))
    payload = certificate_to_json(cert)
    broken = dict(payload)
    del broken["j_vertex_count"]
    with pytest.raises(ValueError):
        certificate_from_json(broken)
    with pytest.raises(ValueError):
        certificate_from_json({"verdict": "good"})
    with_gens = certificate_to_json(check_good(data.load_template("pentagon_square")))
    not_good = certificate_to_json(check_good(data.load_template("lone_edge_c5")))
    gen = with_gens["generators_used"][0]
    witness, psi_nodes = dict(not_good["farkas_witness"]), dict(payload["template"]["psi_nodes"])
    witness[" 0"], psi_nodes[" 0"] = witness.pop("0"), psi_nodes.pop("0")
    # a class vector that is not an object, and a coefficient that is not a rational;
    # labels and counts that are not JSON integers, rationals that are not strings,
    # class keys and template psi keys other than the form the writer emits
    for broken in (dict(payload, target=[["0,1,2,3,4", "2/1"]]),
                   dict(payload, farkas_witness=[]),
                   dict(payload, target={"0,1,2,3,4": "1/0"}),
                   dict(payload, target={"0,1,2,3,4": 2}),
                   dict(payload, j_vertex_count=payload["j_vertex_count"] + 0.9),
                   dict(payload, j_vertex_count=True, j_edge_count=True),
                   dict(with_gens, generators_used=[dict(gen, r1=[0.5])]),
                   dict(with_gens, generators_used=[dict(gen, coeff=0.5)]),
                   dict(not_good, farkas_witness=witness),
                   dict(payload, template=dict(payload["template"], psi_nodes=psi_nodes))):
        with pytest.raises(ValueError):
            certificate_from_json(broken)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        code, out, err = run_cli(capsys, "glue", "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize("text", [" 1/1", "1.0", "1e0", "1_0/1_0", "2/4", "-0/1", "1/0"])
@pytest.mark.parametrize("field", ["coeff", "witness"])
def test_glue_verify_reads_only_reduced_fractions(capsys, tmp_path, field, text):
    # rationals load only in the "n/d" form certificate_to_json writes
    name = "pentagon_square" if field == "coeff" else "lone_edge_c5"
    payload = certificate_to_json(check_good(data.load_template(name)))
    if field == "coeff":
        payload["generators_used"][0]["coeff"] = text
    else:
        payload["farkas_witness"]["0"] = text
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "glue", "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "numerator/denominator" in err


def test_glue_verify_refuses_a_huge_exponent_at_once(capsys, tmp_path):
    payload = certificate_to_json(check_good(data.load_template("pentagon_square")))
    payload["generators_used"][0]["coeff"] = "1e10000000"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "glue", "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("budget", [(), ("--budget", "1000")])
@pytest.mark.parametrize("command", ["check", "verify"])
def test_goodness_commands_refuse_a_1000_vertex_base_at_once(capsys, tmp_path, command, budget):
    # the class table needs at least 2^1000 subset images, refused before the
    # automorphism search, which would recurse once per vertex
    template = {"F": {"n": 1000, "edges": [[v, v + 1] for v in range(999)]},
                "tree": {"nodes": 1, "edges": []}, "psi_nodes": {"0": [0, 1]}}
    path = tmp_path / "input.json"
    if command == "check":
        path.write_text(json.dumps(template))
    else:
        path.write_text(json.dumps({
            "template": template, "template_hash": template_hash(template_from_json(template)),
            "verdict": "good", "j_vertex_count": 2, "j_edge_count": 1,
            "target": {}, "generators_used": [], "farkas_witness": None}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *budget, "glue", command, str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "1000-vertex base takes at least" in err and "Traceback" not in err


def test_falsify_refuses_a_long_path_before_planning_it(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--budget", "1", "common", "falsify", "--target", "P10000",
                             "--restarts", "1", "--steps", "0")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert err.startswith("error: work budget exceeded: density: contracting a 10000-vertex")


def test_falsify_plans_a_long_path_at_the_default_budget(capsys):
    # planning P10000 took ~17 s while each step scanned every remaining vertex
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "common", "falsify", "--target", "P10000",
                             "--restarts", "1", "--steps", "0")
    assert time.perf_counter() - start < 2.0
    assert code in (0, 1) and err == ""
    assert json.loads(out)["restarts"] == 1


@pytest.mark.parametrize("command", [
    ("common", "solve-p", "--e1", str(10**400), "--v1", str(10**400),
     "--e2", "1", "--v2", "1", "--m", "3"),
    ("common", "certify", "--template1", "pentagon_square", "--l1", "1",
     "--template2", "simple_c5_vertex", "--l2", "0", "--p1", "1e-320"),
    # e1 p1^(e1-1) is 0 in floats, so the gap's weight 1/(e1 p1^(e1-1)) is undefined
    ("common", "pair-gap", "--h1", "K3", "--h2", "K3", "--p1", "1e-320", "--seeds", "0"),
    ("common", "pair-gap", "--h1", "K3", "--h2", "K3", "--p1", "1e-200", "--seeds", "0"),
], ids=["overflow", "zero-division", "pair-gap-1e-320", "pair-gap-1e-200"])
def test_arithmetic_errors_are_data_errors(capsys, command):
    # a RuntimeWarning on the way is an error too (pytest's filterwarnings)
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_template_json_rejected(capsys, tmp_path):
    from homcommon.gluing import template_from_json
    with pytest.raises(ValueError):
        template_from_json({"F": "C5", "tree": {"edges": []}})
    good = template_to_json(data.load_template("pentagon_square"))
    psi_edges = dict(good["psi_edges"])
    psi_edges[" 0- 1"] = psi_edges.pop("0-1")
    one_node = {"F": "C5", "tree": {"nodes": 1, "edges": []}, "psi_nodes": {"0": [0, 1]}}
    # labels, counts and tree nodes must be JSON integers; psi maps objects of lists
    for broken in (dict(good, psi_nodes=dict(good["psi_nodes"], **{"3": [0.7, 1]})),
                   dict(good, psi_nodes=dict(good["psi_nodes"], **{"3": [0, True]})),
                   dict(good, psi_edges=dict(good["psi_edges"], **{"0-1": [4.0]})),
                   dict(good, tree={"nodes": 4, "edges": [[0, 1], [0, 3], [1, 2.5]]}),
                   dict(one_node, tree={"nodes": 1.8, "edges": []}),
                   dict(one_node, psi_nodes={"0": 5}),
                   dict(one_node, psi_nodes=[[0, 1]]),
                   dict(one_node, psi_edges=[]),
                   dict(one_node, F={"n": 5.0, "edges": []}),
                   # a psi key names node n only as str(n)
                   dict(one_node, psi_nodes={" 0": [0, 1]}),
                   dict(one_node, psi_nodes={"+0": [0, 1]}),
                   dict(one_node, psi_nodes={"0_0": [0, 1]}),
                   dict(one_node, psi_nodes={"00": [0, 1]}),
                   dict(one_node, psi_nodes={"\u0660": [0, 1]}),
                   dict(good, psi_edges=psi_edges)):
        with pytest.raises(ValueError):
            template_from_json(broken)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        code, out, err = run_cli(capsys, "glue", "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def test_malformed_graph_json_rejected(capsys, tmp_path):
    from homcommon.graphs import graph_from_json
    for broken in ({"n": 3, "edges": [[0.5, 1]]}, {"n": 3.9, "edges": [[0, 1]]},
                   {"n": 3, "edges": [[True, 2]]}, {"n": True, "edges": []},
                   {"n": 3, "edges": [5]}):
        with pytest.raises(ValueError):
            graph_from_json(broken)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(broken))
        code, out, err = run_cli(capsys, "common", "falsify", "--target", str(path),
                                 "--restarts", "1", "--steps", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def _readme_commands() -> list[list[str]]:
    """The argv of each `homcommon` line of README.md's "Command line" sh block,
    with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "homcommon":
            commands.append(argv[1:])
    return commands


def test_readme_command_block_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # `glue check --certificate cert.json` feeds `glue verify`
    commands = [argv for argv in _readme_commands()
                if not any(a.startswith("path/to/") for a in argv)]
    assert commands
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1), (argv, err)
