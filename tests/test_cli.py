import json

import pytest

from homcommon import data
from homcommon.cli import RunConfig, _parse_seeds, build_parser, main
from homcommon.cone import certificate_from_json, verify_certificate
from homcommon.gluing import template_to_json
from homcommon.graphs import DEFAULT_WORK_BUDGET, IDENTITY_TOL, INEQUALITY_TOL


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(tolerance_identity=0.0)
    with pytest.raises(ValueError):
        RunConfig(work_budget=-1)


def test_defaults_are_the_library_constants():
    args = build_parser().parse_args(["repro-all"])
    config = RunConfig()
    expected = (DEFAULT_WORK_BUDGET, IDENTITY_TOL, INEQUALITY_TOL)
    assert (args.budget, args.tolerance_identity, args.tolerance_inequality) == expected
    assert (config.work_budget, config.tolerance_identity,
            config.tolerance_inequality) == expected


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


def test_verify_identity_commands(capsys):
    code, out, _ = run_cli(capsys, "verify", "identity", "goodman", "--seeds", "0..9")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "verify", "identity", "c5goodman", "--seeds", "0..9")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "identity", "expansion", "--seeds", "0..2")
    assert code == 0
    # absurdly tight tolerance forces a reported failure
    code, out, _ = run_cli(capsys, "--tolerance-identity", "1e-18",
                           "verify", "identity", "goodman", "--seeds", "0..9")
    assert code == 1
    assert json.loads(out)["tolerance"] == 1e-18


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


def test_falsify_seed_global_and_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--seed", "3", "common", "falsify", "--target", "K3",
                           "--restarts", "1", "--steps", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 3
    code, out, _ = run_cli(capsys, "--seed", "3", "common", "falsify", "--target", "K3",
                           "--seed", "5", "--restarts", "1", "--steps", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 5


@pytest.mark.parametrize("command", [
    ("common", "pair-gap", "--h1", "C5", "--h2", "C5", "--p1", "0.5", "--seeds", "0"),
    ("common", "falsify", "--target", "K3", "--restarts", "1", "--steps", "2"),
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


def test_malformed_certificate_json_rejected():
    from homcommon.cone import certificate_from_json, certificate_to_json, check_good
    cert = check_good(data.load_template("simple_c5_vertex"))
    payload = certificate_to_json(cert)
    broken = dict(payload)
    del broken["j_vertex_count"]
    with pytest.raises(ValueError):
        certificate_from_json(broken)
    with pytest.raises(ValueError):
        certificate_from_json({"verdict": "good"})


def test_malformed_template_json_rejected():
    from homcommon.gluing import template_from_json
    with pytest.raises(ValueError):
        template_from_json({"F": "C5", "tree": {"edges": []}})
