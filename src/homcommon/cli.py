"""Command-line front end: identity verification, goodness checking,
commonness certification, falsification, and the acceptance suite.

Reports go to stdout as JSON (or a table for repro-all).  Exit codes:
0 pass / good / verified, 1 violation found / not good / rejected, 2 usage
or data error, including a malformed certificate, a template hash that
does not match, and an input whose arithmetic overflows or divides by zero.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, data
from .commonness import (FALSIFY_MAX_BLOCKS, CommonPairSpec, certify_pair_via_templates,
                         common_gap_objective, dk3k2_verify, falsify, min_pair_gap,
                         solve_simple_tree_p)
from .cone import certificate_from_json, certificate_to_json, check_good, verify_certificate
from .gluing import template_from_json
from .graphons import kernel_to_json
from .graphs import (DEFAULT_WORK_BUDGET, FALSIFY_THRESHOLD, IDENTITY_TOL, INEQUALITY_TOL,
                     BudgetExceededError)
from .identities import IDENTITY_SUITES, max_identity_residual


def _parse_seeds(spec: str) -> list[int]:
    """Accept '0..99', a single integer, or a comma list; reject an empty list."""
    spec = spec.strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        seeds = list(range(int(lo), int(hi) + 1))
    elif "," in spec:
        seeds = [int(x) for x in spec.split(",") if x.strip()]
    else:
        seeds = [int(spec)]
    if not seeds:
        raise ValueError(f"seed range {spec!r} is empty")
    return seeds


def _to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=str)


def _write_json(report: dict, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(_to_json(report) + "\n")


def _emit(report: dict, path: str | None):
    print(_to_json(report))
    _write_json(report, path)


def _load_template_arg(spec: str):
    if spec in data.TEMPLATE_NAMES:
        return data.load_template(spec)
    with open(spec) as fh:
        return template_from_json(json.load(fh))


def _cmd_verify(args) -> int:
    seeds = _parse_seeds(args.seeds)
    worst = max_identity_residual(args.identity, seeds, args.max_blocks, args.budget)
    report = {"identity": args.identity, "seeds": len(seeds), "max_abs_residual": worst,
              "tolerance": IDENTITY_TOL, "passed": worst < IDENTITY_TOL}
    _emit(report, args.json_out)
    return 0 if report["passed"] else 1


def _cmd_glue_check(args) -> int:
    template = _load_template_arg(args.template)
    cert = check_good(template, budget=args.budget)
    payload = certificate_to_json(cert)
    _write_json(payload, args.certificate)
    _emit(payload, args.json_out)
    return 0 if cert.verdict == "good" else 1


def _cmd_glue_verify(args) -> int:
    with open(args.certificate) as fh:
        payload = json.load(fh)
    cert = certificate_from_json(payload, args.budget)
    verified = verify_certificate(cert, args.budget)
    _emit({"certificate": args.certificate, "template_hash": payload["template_hash"],
           "verdict": cert.verdict, "verified": verified}, args.json_out)
    return 0 if verified else 1


def _cmd_pair_gap(args) -> int:
    spec = CommonPairSpec(data.parse_graph_spec(args.h1),
                          data.parse_graph_spec(args.h2), args.p1)
    worst = min_pair_gap(spec, _parse_seeds(args.seeds), args.max_blocks, args.budget)
    report = {"h1": args.h1, "h2": args.h2, "p1": args.p1, "min_gap": worst,
              "tolerance": INEQUALITY_TOL, "passed": worst >= -INEQUALITY_TOL}
    _emit(report, args.json_out)
    return 0 if report["passed"] else 1


def _cmd_certify(args) -> int:
    verdict = certify_pair_via_templates(_load_template_arg(args.template1), args.l1,
                                         _load_template_arg(args.template2), args.l2,
                                         args.p1, args.budget)
    report = {"certified": verdict.certified, "reason": verdict.reason,
              "p1": verdict.p1, "m": verdict.m,
              "h1_edge_count": verdict.h1_edge_count,
              "h2_edge_count": verdict.h2_edge_count,
              "balance_residual": verdict.balance_residual,
              "certificate1": certificate_to_json(verdict.certificate1),
              "certificate2": certificate_to_json(verdict.certificate2)}
    _emit(report, args.json_out)
    return 0 if verdict.certified else 1


def _cmd_solve_p(args) -> int:
    p1 = solve_simple_tree_p(args.e1, args.v1, args.e2, args.v2, args.m)
    _emit({"p1": p1, "p2": 1.0 - p1, "m": args.m}, args.json_out)
    return 0


def _cmd_dk3k2(args) -> int:
    report = dk3k2_verify(pair_gap_seeds=_parse_seeds(args.seeds), budget=args.budget)
    _emit(report, args.json_out)
    return 0 if report["passed"] else 1


def _cmd_falsify(args) -> int:
    target = data.parse_graph_spec(args.target)
    result = falsify(common_gap_objective(target, args.budget), seed=args.seed,
                     restarts=args.restarts, steps=args.steps)
    violation = result.best_gap < -FALSIFY_THRESHOLD
    report = {"target": args.target, "seed": args.seed, "restarts": args.restarts,
              "steps": args.steps, "max_blocks": FALSIFY_MAX_BLOCKS,
              "threshold": FALSIFY_THRESHOLD, "budget": args.budget,
              "best_gap": result.best_gap, "evaluations": result.evaluations,
              "objective_calls": result.objective_calls,
              "violation_found": violation,
              "witness": kernel_to_json(result.best_kernel)}
    _emit(report, args.json_out)
    return 1 if violation else 0


def _cmd_repro_all(args) -> int:
    criteria = acceptance.run_all()
    ok = all(c["passed"] for c in criteria)
    print("acceptance suite:", "ALL PASS" if ok else "FAILURES PRESENT")
    _write_json({"passed": ok, "criteria": criteria}, args.json_out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcommon", allow_abbrev=False,
        description="Homomorphism densities, gluing templates, and commonness certificates")
    parser.add_argument("--budget", type=int, default=DEFAULT_WORK_BUDGET,
                        help="work budget: contraction terms per density or hom count; "
                             "automorphism search nodes, class-table subset images and "
                             "generator assignments per goodness check")
    parser.add_argument("--json-out", default=None, help="also write the report here")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="numeric identity suites")
    vsub = verify.add_subparsers(dest="verify_what", required=True)
    ident = vsub.add_parser("identity")
    ident.add_argument("identity", choices=tuple(IDENTITY_SUITES))
    ident.add_argument("--seeds", default="0..99")
    ident.add_argument("--max-blocks", type=int, default=4)
    ident.set_defaults(handler=_cmd_verify)

    glue = sub.add_parser("glue", help="gluing template goodness")
    gsub = glue.add_subparsers(dest="glue_what", required=True)
    gcheck = gsub.add_parser("check")
    gcheck.add_argument("template", help="template JSON path or bundled name")
    gcheck.add_argument("--certificate", default=None)
    gcheck.set_defaults(handler=_cmd_glue_check)
    gverify = gsub.add_parser("verify", help="re-check a saved certificate file")
    gverify.add_argument("certificate", help="certificate JSON written by glue check")
    gverify.set_defaults(handler=_cmd_glue_verify)

    common = sub.add_parser("common", help="commonness gaps and certificates")
    csub = common.add_subparsers(dest="common_what", required=True)

    cgap = csub.add_parser("pair-gap")
    cgap.add_argument("--h1", required=True)
    cgap.add_argument("--h2", required=True)
    cgap.add_argument("--p1", type=float, required=True)
    cgap.add_argument("--seeds", default="0..99")
    cgap.add_argument("--max-blocks", type=int, default=4)
    cgap.set_defaults(handler=_cmd_pair_gap)

    ccert = csub.add_parser("certify")
    ccert.add_argument("--template1", required=True)
    ccert.add_argument("--l1", type=int, required=True)
    ccert.add_argument("--template2", required=True)
    ccert.add_argument("--l2", type=int, required=True)
    ccert.add_argument("--p1", type=float, required=True)
    ccert.set_defaults(handler=_cmd_certify)

    csolve = csub.add_parser("solve-p")
    csolve.add_argument("--e1", type=int, required=True)
    csolve.add_argument("--v1", type=int, required=True)
    csolve.add_argument("--e2", type=int, required=True)
    csolve.add_argument("--v2", type=int, required=True)
    csolve.add_argument("--m", type=int, required=True)
    csolve.set_defaults(handler=_cmd_solve_p)

    cdk = csub.add_parser("dk3k2-verify")
    cdk.add_argument("--seeds", default="0..19")
    cdk.set_defaults(handler=_cmd_dk3k2)

    cfal = csub.add_parser("falsify")
    cfal.add_argument("--target", required=True,
                      help="graph JSON path, family string, or bundled name (paw, k3uk2, ...)")
    cfal.add_argument("--seed", type=int, default=0)
    cfal.add_argument("--restarts", type=int, default=50)
    cfal.add_argument("--steps", type=int, default=200)
    cfal.set_defaults(handler=_cmd_falsify)

    repro = sub.add_parser("repro-all", help="run the full acceptance suite")
    repro.set_defaults(handler=_cmd_repro_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget <= 0:
            parser.error("work budget must be positive")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: work budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
