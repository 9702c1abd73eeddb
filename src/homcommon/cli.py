"""Command-line front end: identity verification, goodness checking,
commonness certification, falsification, and the acceptance suite.

Reports go to stdout as JSON (or a table for repro-all).  Exit codes:
0 pass / good / verified, 1 violation found / not good / rejected, 2 usage
or data error, including a malformed certificate or a template hash that
does not match.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import acceptance, data
from .commonness import (CommonPairSpec, certify_pair_via_templates, common_gap_objective,
                         dk3k2_verify, falsify, pair_gap, solve_simple_tree_p)
from .cone import certificate_from_json, certificate_to_json, check_good, verify_certificate
from .gluing import template_from_json
from .graphons import density, sample_graphon
from .graphs import (DEFAULT_WORK_BUDGET, IDENTITY_TOL, INEQUALITY_TOL, BudgetExceededError,
                     make_family)
from .identities import (c5_goodman_residual, expansion_residual, goodman_residual)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tolerance_identity: float = IDENTITY_TOL
    tolerance_inequality: float = INEQUALITY_TOL
    work_budget: int = DEFAULT_WORK_BUDGET
    output_path: str | None = None

    def __post_init__(self):
        if self.tolerance_identity <= 0 or self.tolerance_inequality <= 0:
            raise ValueError("tolerances must be positive")
        if self.work_budget <= 0:
            raise ValueError("work budget must be positive")


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


def _emit(report: dict, config: RunConfig):
    print(_to_json(report))
    _write_json(report, config.output_path)


def _load_template_arg(spec: str):
    if spec in data.TEMPLATE_NAMES:
        return data.load_template(spec)
    with open(spec) as fh:
        return template_from_json(json.load(fh))


def _cmd_verify(args, config: RunConfig) -> int:
    seeds = _parse_seeds(args.seeds)
    k2 = make_family("path", 2)
    worst = 0.0
    for s in seeds:
        w = sample_graphon(s, args.max_blocks)
        if args.identity == "goodman":
            worst = max(worst, abs(goodman_residual(w, config.work_budget)))
        elif args.identity == "c5goodman":
            worst = max(worst, abs(c5_goodman_residual(w, config.work_budget)))
        else:
            for h in (k2, make_family("path", 3), make_family("complete", 3),
                      make_family("cycle", 5), make_family("complete_minus_edge", 4)):
                for p in (0.0, 0.3, density(k2, w)):
                    worst = max(worst, abs(expansion_residual(h, w, p, config.work_budget)))
    report = {"identity": args.identity, "seeds": len(seeds),
              "max_abs_residual": worst, "tolerance": config.tolerance_identity,
              "passed": worst < config.tolerance_identity}
    _emit(report, config)
    return 0 if report["passed"] else 1


def _cmd_glue_check(args, config: RunConfig) -> int:
    template = _load_template_arg(args.template)
    cert = check_good(template, budget=config.work_budget)
    payload = certificate_to_json(cert)
    if args.certificate:
        with open(args.certificate, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(payload, config)
    return 0 if cert.verdict == "good" else 1


def _cmd_glue_verify(args, config: RunConfig) -> int:
    with open(args.certificate) as fh:
        payload = json.load(fh)
    cert = certificate_from_json(payload)
    verified = verify_certificate(cert, config.work_budget)
    _emit({"certificate": args.certificate, "template_hash": payload["template_hash"],
           "verdict": cert.verdict, "verified": verified}, config)
    return 0 if verified else 1


def _cmd_pair_gap(args, config: RunConfig) -> int:
    spec = CommonPairSpec(data.parse_graph_spec(args.h1),
                          data.parse_graph_spec(args.h2), args.p1)
    worst = None
    for s in _parse_seeds(args.seeds):
        gap = pair_gap(spec, sample_graphon(s, args.max_blocks), config.work_budget)
        if worst is None or gap < worst:
            worst = gap
    report = {"h1": args.h1, "h2": args.h2, "p1": args.p1, "min_gap": worst,
              "tolerance": config.tolerance_inequality,
              "passed": worst >= -config.tolerance_inequality}
    _emit(report, config)
    return 0 if report["passed"] else 1


def _cmd_certify(args, config: RunConfig) -> int:
    verdict = certify_pair_via_templates(_load_template_arg(args.template1), args.l1,
                                         _load_template_arg(args.template2), args.l2,
                                         args.p1, config.work_budget)
    report = {"certified": verdict.certified, "reason": verdict.reason,
              "p1": verdict.p1, "m": verdict.m,
              "h1_edge_count": verdict.h1_edge_count,
              "h2_edge_count": verdict.h2_edge_count,
              "balance_residual": verdict.balance_residual,
              "certificate1": certificate_to_json(verdict.certificate1),
              "certificate2": certificate_to_json(verdict.certificate2)}
    _emit(report, config)
    return 0 if verdict.certified else 1


def _cmd_solve_p(args, config: RunConfig) -> int:
    p1 = solve_simple_tree_p(args.e1, args.v1, args.e2, args.v2, args.m)
    _emit({"p1": p1, "p2": 1.0 - p1, "m": args.m}, config)
    return 0


def _cmd_dk3k2(args, config: RunConfig) -> int:
    report = dk3k2_verify(pair_gap_seeds=_parse_seeds(args.seeds))
    _emit(report, config)
    return 0 if report["passed"] else 1


def _cmd_falsify(args, config: RunConfig) -> int:
    target = data.parse_graph_spec(args.target)
    result = falsify(common_gap_objective(target, config.work_budget), seed=config.seed,
                     restarts=args.restarts, steps=args.steps)
    violation = result.best_gap < -args.threshold
    report = {"target": args.target, "seed": config.seed, "restarts": args.restarts,
              "steps": args.steps, "threshold": args.threshold, "budget": config.work_budget,
              "best_gap": result.best_gap, "evaluations": result.evaluations,
              "violation_found": violation,
              "witness": {"measures": list(result.best_kernel.measures),
                          "values": [list(r) for r in result.best_kernel.values]}}
    _emit(report, config)
    return 1 if violation else 0


def _cmd_repro_all(args, config: RunConfig) -> int:
    criteria = acceptance.run_all()
    ok = all(c["passed"] for c in criteria)
    print("acceptance suite:", "ALL PASS" if ok else "FAILURES PRESENT")
    _write_json({"passed": ok, "criteria": criteria}, config.output_path)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcommon", allow_abbrev=False,
        description="Homomorphism densities, gluing templates, and commonness certificates")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=DEFAULT_WORK_BUDGET,
                        help="work budget: contraction terms per density or hom count; "
                             "automorphism search nodes, class-table subset images and "
                             "generator assignments per goodness check")
    parser.add_argument("--tolerance-identity", type=float, default=IDENTITY_TOL)
    parser.add_argument("--tolerance-inequality", type=float, default=INEQUALITY_TOL)
    parser.add_argument("--json-out", default=None, help="also write the report here")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="numeric identity suites")
    vsub = verify.add_subparsers(dest="verify_what", required=True)
    ident = vsub.add_parser("identity")
    ident.add_argument("identity", choices=("goodman", "c5goodman", "expansion"))
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
    # SUPPRESS keeps an absent subcommand --seed from overwriting the global one
    cfal.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    cfal.add_argument("--restarts", type=int, default=50)
    cfal.add_argument("--steps", type=int, default=200)
    cfal.add_argument("--threshold", type=float, default=1e-4)
    cfal.set_defaults(handler=_cmd_falsify)

    repro = sub.add_parser("repro-all", help="run the full acceptance suite")
    repro.set_defaults(handler=_cmd_repro_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = RunConfig(seed=args.seed,
                           tolerance_identity=args.tolerance_identity,
                           tolerance_inequality=args.tolerance_inequality,
                           work_budget=args.budget,
                           output_path=args.json_out)
        return args.handler(args, config)
    except BudgetExceededError as exc:
        print(f"error: work budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
