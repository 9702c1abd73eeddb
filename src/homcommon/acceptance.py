"""The acceptance checks behind `homcommon repro-all` and the test suite.

Each criterion function returns a dict with at least "name", "passed",
and "detail".  Tolerances are the package's (`graphs.IDENTITY_TOL`,
`INEQUALITY_TOL`, `BALANCE_TOL`), with the exceptions each criterion
states inline.  Universal ("for every graphon") claims are
sampled evidence only and are labelled as such in the criterion names.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import partial

from . import data
from .commonness import (appendix_convexity_verify, common_gap_objective,
                         dk3k2_verify, falsify, girth_obstruction,
                         solve_simple_tree_p)
from .cone import binomial_inequality_check, check_good, verify_certificate
from .graphs import (BALANCE_TOL, FALSIFY_THRESHOLD, IDENTITY_TOL, INEQUALITY_TOL,
                     make_family, random_graph)
from .graphons import sample_graphon, sample_kernel
from .identities import (_float_densities, _strongly_common_gap, max_identity_residual,
                         score_kernels)


def criterion_1_identities() -> dict:
    worst = max(max_identity_residual("goodman", range(100)),
                max_identity_residual("c5goodman", range(100)))
    return {"name": "1 identity suite (goodman + c5 analogue, 100 graphons)",
            "passed": worst < IDENTITY_TOL,
            "detail": f"max |residual| = {worst:.3e} < {IDENTITY_TOL}"}


def criterion_2_expansion() -> dict:
    worst = max_identity_residual("expansion", range(20))
    return {"name": "2 expansion suite (5 graphs x 20 graphons x 3 shifts)",
            "passed": worst < IDENTITY_TOL,
            "detail": f"max |residual| = {worst:.3e} < {IDENTITY_TOL}"}


def _strongly_common_min(kernels) -> float:
    """The least strongly-common gap of C3, C5 and C7 over the kernels, one
    `score_kernels` batch per cycle."""
    k2 = make_family("path", 2)
    gaps = []
    for m in (3, 5, 7):
        cm = make_family("cycle", m)
        gaps += score_kernels(partial(_strongly_common_gap, cm), (cm, k2) * 2, kernels)
    return min(gaps)


def criterion_3_strongly_common() -> dict:
    worst = _strongly_common_min([sample_graphon(s) for s in range(100)]
                                 + [sample_kernel(s) for s in range(100)])
    return {"name": "3 strongly-common odd cycles (sampled evidence, graphons + kernels)",
            "passed": worst >= -INEQUALITY_TOL,
            "detail": f"min gap = {worst:.3e} >= -{INEQUALITY_TOL}"}


_PATHS = {k: make_family("path", k) for k in (1, 2, 3, 4, 5)}


def _path_slacks(measures, values, budget):
    """The four path-inequality slacks of kernels given as arrays with
    leading batch axes, on Python floats (`identities._float_densities`)."""
    t = dict(zip(_PATHS, _float_densities(_PATHS.values(), measures, values, budget)))
    return (t[1] ** 3 * t[5] - t[2] ** 4,
            t[1] * t[5] ** 3 - t[4] ** 4,
            t[3] * t[5] - t[4] ** 2,
            t[5] - t[2] * t[4])


def _path_slack_min(kernels) -> float:
    """The least path-inequality slack over the kernels, one `score_kernels` batch."""
    return min(score_kernels(_path_slacks, tuple(_PATHS.values()), kernels))


def criterion_4_path_inequalities() -> dict:
    worst = _path_slack_min([sample_graphon(s) for s in range(100)])
    return {"name": "4 path inequalities (three odd-end triples + corollary)",
            "passed": worst >= -INEQUALITY_TOL,
            "detail": f"min slack = {worst:.3e} >= -{INEQUALITY_TOL}"}


def criterion_5_goodness() -> dict:
    ok = True
    notes = []
    for name in ("simple_c5_vertex", "simple_k3_edge"):
        cert = check_good(data.load_template(name))
        good = cert.verdict == "good" and not cert.generators_used and verify_certificate(cert)
        ok = ok and good
        notes.append(f"{name}: {cert.verdict}/{len(cert.generators_used)} gens")
    for name in ("gen_c5_tree_a", "gen_c5_tree_b", "pentagon_square"):
        cert = check_good(data.load_template(name))
        good = cert.verdict == "good" and verify_certificate(cert)
        ok = ok and good
        notes.append(f"{name}: {cert.verdict}/{len(cert.generators_used)} gens")
    cert = check_good(data.load_template("lone_edge_c5"))
    bad = (cert.verdict == "not_good" and cert.farkas_witness is not None
           and verify_certificate(cert))
    ok = ok and bad
    notes.append(f"lone_edge_c5: {cert.verdict} with Farkas witness")
    return {"name": "5 goodness certificates (exact LP + independent re-check)",
            "passed": ok, "detail": "; ".join(notes)}


def criterion_6_binomial() -> dict:
    t = data.load_template("pentagon_square")
    extra = [random_graph(5, 10_000 + i) for i in range(200)]
    report = binomial_inequality_check(t, 4, extra_graphs=extra)
    return {"name": "6 binomial inequality t(J,G) >= t(C5,G)^2 (exact, 75 + 200 graphs)",
            "passed": report["all_hold_exact"],
            "detail": f"min slack = {report['min_slack']:.3e} over {report['graphs_checked']} graphs"}


def criterion_7_p_solver() -> dict:
    p = solve_simple_tree_p(3, 3, 5, 4, 3)
    oracle = math.sqrt(5.0) / (math.sqrt(5.0) + math.sqrt(6.0))
    residual = abs(1.0 / (3.0 * p**2) - 2.0 / (5.0 * (1.0 - p) ** 2))
    swap = solve_simple_tree_p(5, 4, 3, 3, 3)
    sym = abs(p + swap - 1.0)
    ok = residual < BALANCE_TOL and abs(p - oracle) < 1e-10 and sym < BALANCE_TOL
    return {"name": "7 simple-tree p-solver (triangle vs diamond)",
            "passed": ok,
            "detail": f"p1 = {p:.12f}, residual = {residual:.2e}, symmetry error = {sym:.2e}"}


def criterion_8_dk3k2() -> dict:
    rep = dk3k2_verify(pair_gap_seeds=range(100))
    checks = (rep["passed"]
              and abs(rep["g0_min_value"] - 0.23263) <= 5e-4
              and abs(rep["g0_min_x"] - 0.057472) <= 5e-4)
    return {"name": "8 diamond / K3+K2 threshold verification",
            "passed": checks,
            "detail": (f"g1(0) err = {rep['g1_at_zero_error']:.1e}, "
                       f"min g0 = {rep['g0_min_value']:.5f} @ x = {rep['g0_min_x']:.6f}, "
                       f"min pair gap = {rep['pair_gap_min']:.3e}")}


def criterion_9_appendix() -> dict:
    k3 = make_family("complete", 3)
    rep1 = appendix_convexity_verify(k3, 3, 3, 1, 1, 0, 0, 0.5)
    rep2 = appendix_convexity_verify(make_family("cycle", 5), 9, 9, 2, 2, 1, 1, 0.5)
    ok = rep1["passed"] and rep2["passed"]
    return {"name": "9 convexity verifier (triangle identity case + pentagon+square case)",
            "passed": ok,
            "detail": (f"K3 min = {rep1['min_value']:.10f} (expect 1/3), "
                       f"C5 min = {rep2['min_value']:.10f} (expect 1/9)")}


def criterion_10_falsifier() -> dict:
    paw = data.load_graph("paw")
    k3k2 = data.load_graph("k3_plus_k2")
    k3 = make_family("complete", 3)
    r_paw = falsify(common_gap_objective(paw), seed=1, restarts=50, steps=200)
    r_mix = falsify(common_gap_objective(k3k2), seed=1, restarts=50, steps=200)
    r_k3 = falsify(common_gap_objective(k3), seed=1, restarts=50, steps=200)
    ok = (r_paw.best_gap < -FALSIFY_THRESHOLD and r_mix.best_gap < -FALSIFY_THRESHOLD
          and r_k3.best_gap >= -INEQUALITY_TOL)
    return {"name": "10 falsifier (sampled evidence: paw and K3+K2 uncommon, K3 common)",
            "passed": ok,
            "detail": (f"paw gap = {r_paw.best_gap:.5f}, K3+K2 gap = {r_mix.best_gap:.5f}, "
                       f"K3 gap = {r_k3.best_gap:.2e}")}


def criterion_11_girth_obstruction() -> dict:
    k3 = make_family("complete", 3)
    d = make_family("complete_minus_edge", 4)
    at_half = girth_obstruction(k3, d, 3, Fraction(1, 2))
    p = solve_simple_tree_p(3, 3, 5, 4, 3)
    at_star = girth_obstruction(k3, d, 3, p)
    ok = (at_half is False) and (at_star is True)
    return {"name": "11 girth obstruction (triangle vs diamond)",
            "passed": ok,
            "detail": f"balanced at 1/2: {at_half} (exact); at solved p: {at_star}"}


ALL_CRITERIA = (
    criterion_1_identities,
    criterion_2_expansion,
    criterion_3_strongly_common,
    criterion_4_path_inequalities,
    criterion_5_goodness,
    criterion_6_binomial,
    criterion_7_p_solver,
    criterion_8_dk3k2,
    criterion_9_appendix,
    criterion_10_falsifier,
    criterion_11_girth_obstruction,
)


def run_all() -> list[dict]:
    """Run every criterion in order, printing one pass/fail line each.

    Returns one record per criterion: its name, passed, detail and the
    wall-clock seconds it took.
    """
    results = []
    for fn in ALL_CRITERIA:
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        status = "PASS" if result["passed"] else "FAIL"
        print(f"[{status}] criterion {result['name']}: {result['detail']}")
        results.append({"name": result["name"], "passed": bool(result["passed"]),
                        "detail": result["detail"], "seconds": seconds})
    return results
