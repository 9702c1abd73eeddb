"""The benchmark's three workloads.

Each workload turns a numpy generator into a list of operations.  An
operation holds one call into homcommon's public API (the functions the
CLI handlers call) with inputs the benchmark generated, and a check of its
output against the reference computations in `reference.py` or against a
property the paper proves.  The timed phase makes the calls; the checks
run after it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import reference as ref

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-9
UNCOMMON_GAP = -1e-4      # a falsifier gap below this is a found violation
DENSITY_RTOL = 1e-12      # large-H densities against the reference
GAP_ATOL = 1e-12          # witness gaps re-evaluated by the reference
SAMPLED_GAP_ATOL = 1e-10  # strongly-common gaps against the reference

# falsify: at 8 sweeps one restart finds the paw or K3+K2 violation with
# probability ~0.13, so 120 restarts miss it with probability ~4e-8
FALSIFY_STEPS = 8
UNCOMMON_RESTARTS = 120
COMMON_RESTARTS = 20

# certify: random extra graphs for the binomial check, each with a fixed
# edge count so their hom-count cost varies little between seeds
BINOMIAL_MAX_VERTICES = 5
EXTRA_GRAPHS = 12
EXTRA_VERTICES = 6
EXTRA_EDGES = 8

# evidence
IDENTITY_GRAPHONS = 6
CONVEXITY_SEEDS = 8
CONVEXITY_MAX_BLOCKS = 2


@dataclass
class Operation:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def _hv(g) -> tuple[int, list]:
    """A homcommon Graph as the (vertex_count, edges) pair the reference takes."""
    return g.vertex_count, sorted(g.edges)


def random_kernel(hc, rng, blocks: int, low: float = 0.0, high: float = 1.0):
    """Step kernel with exactly `blocks` blocks: Dirichlet(1) measures and
    i.i.d. uniform [low, high] values mirrored across the diagonal."""
    measures = rng.dirichlet(np.ones(blocks))
    raw = rng.uniform(low, high, size=(blocks, blocks))
    vals = np.triu(raw) + np.triu(raw, 1).T
    return hc.graphons.StepKernel(tuple(float(m) for m in measures),
                                  tuple(tuple(float(x) for x in row) for row in vals),
                                  graphon=low >= 0.0 and high <= 1.0)


def _within(label: str, value: float, bound: float) -> list[str]:
    return [] if value < bound else [f"{label} = {value:.3e} not below {bound:.0e}"]


def _at_least(label: str, value: float, bound: float) -> list[str]:
    return [] if value >= bound else [f"{label} = {value:.3e} below {bound:.0e}"]


# ---------------------------------------------------------------------------
# falsify


def _graphon_problems(w) -> list[str]:
    q = len(w.measures)
    problems = []
    if any(m < 0 for m in w.measures) or abs(math.fsum(w.measures) - 1.0) > 1e-12:
        problems.append("witness measures are not a probability vector")
    if any(not 0.0 <= w.values[i][j] <= 1.0 or w.values[i][j] != w.values[j][i]
           for i in range(q) for j in range(q)):
        problems.append("witness values are not a symmetric [0, 1] matrix")
    return problems


def _check_search(reeval, uncommon: bool, restarts: int, result) -> list[str]:
    problems = _graphon_problems(result.best_kernel)
    if result.evaluations < restarts:
        problems.append(f"{result.evaluations} evaluations for {restarts} restarts")
    gap = reeval(result.best_kernel.measures, result.best_kernel.values)
    if abs(gap - result.best_gap) > GAP_ATOL:
        problems.append(f"witness re-evaluates to {gap!r}, reported {result.best_gap!r}")
    if uncommon and not result.best_gap < UNCOMMON_GAP:
        problems.append(f"no violation found: best gap {result.best_gap:.3e}")
    if not uncommon:
        problems += _at_least("best gap", result.best_gap, -INEQUALITY_TOL)
    return problems


def falsify_ops(hc, rng) -> list[Operation]:
    """Random-restart searches: the common-gap objective for paw and K3+K2
    (uncommon, a violation must be found) and K3 (common), and the pair gap
    of (diamond, K3+K2) at the threshold p* (no violation may exist)."""
    cm = hc.commonness
    paw = hc.data.load_graph("paw")
    k3k2 = hc.data.load_graph("k3_plus_k2")
    k3 = hc.graphs.make_family("complete", 3)
    diamond = hc.data.load_graph("diamond")
    spec = cm.CommonPairSpec(diamond, k3k2, cm.P_DIAMOND_PAIR)
    targets = [
        ("paw", cm.common_gap_objective(paw), partial(ref.common_gap, *_hv(paw)),
         True, UNCOMMON_RESTARTS),
        ("K3+K2", cm.common_gap_objective(k3k2), partial(ref.common_gap, *_hv(k3k2)),
         True, UNCOMMON_RESTARTS),
        ("K3", cm.common_gap_objective(k3), partial(ref.common_gap, *_hv(k3)),
         False, COMMON_RESTARTS),
        ("(diamond, K3+K2) at p*", cm.pair_gap_objective(spec),
         partial(ref.pair_gap, _hv(diamond), _hv(k3k2), cm.P_DIAMOND_PAIR),
         False, COMMON_RESTARTS),
    ]
    ops = []
    for label, objective, reeval, uncommon, restarts in targets:
        seed = int(rng.integers(0, 2**31))
        ops.append(Operation(
            f"falsify {label} seed={seed}",
            partial(cm.falsify, objective, seed=seed, restarts=restarts, steps=FALSIFY_STEPS),
            partial(_check_search, reeval, uncommon, restarts)))
    return ops


# ---------------------------------------------------------------------------
# certify


def c7_templates(hc) -> dict:
    """Templates over C7 built here: the analogue of pentagon_square (a
    square hung on the cycle plus a K2 component; good with 5 generators),
    two heptagons sharing a vertex (good, no generators) and a lone edge
    (not good)."""
    f = hc.graphs.make_family("cycle", 7)
    full = list(range(7))
    make = hc.gluing.GluingTemplate.make
    return {
        "c7_square": make(f, 4, [(0, 1), (1, 2), (0, 3)],
                          {0: full, 1: [6, 0, 1], 2: [6, 0, 1], 3: [0, 1]},
                          {(0, 1): [6], (1, 2): [1, 6]}),
        "c7_simple_vertex": make(f, 3, [(0, 1), (0, 2)], {0: full, 1: full, 2: [0]},
                                 {(0, 1): [0]}),
        "c7_lone_edge": make(f, 1, [], {0: [0, 1]}, {}),
    }


# the paper's verdicts: chains and simple trees are good, lone edges are not
EXPECTED_VERDICT = {
    "pentagon_square": "good", "gen_c5_tree_a": "good", "gen_c5_tree_b": "good",
    "simple_c5_vertex": "good", "simple_k3_edge": "good", "lone_edge_c5": "not_good",
    "c7_square": "good", "c7_simple_vertex": "good", "c7_lone_edge": "not_good",
}
NEEDS_GENERATORS = {"c7_square"}


def _goodness_roundtrip(cone, template):
    """check_good, then certificate_to_json -> text -> certificate_from_json
    -> verify_certificate.  Returns the certificate JSON and the verdict of
    the re-check."""
    cert = cone.check_good(template)
    text = json.dumps(cone.certificate_to_json(cert))
    loaded = cone.certificate_from_json(json.loads(text))
    return json.loads(text), cone.verify_certificate(loaded)


def _check_goodness(name: str, outcome) -> list[str]:
    cert, verified = outcome
    problems = [] if verified else ["verify_certificate rejected the round-tripped certificate"]
    if cert["verdict"] != EXPECTED_VERDICT[name]:
        problems.append(f"verdict {cert['verdict']}, expected {EXPECTED_VERDICT[name]}")
    if name in NEEDS_GENERATORS and not cert["generators_used"]:
        problems.append("good verdict without the expected cone generators")
    return problems + ref.check_certificate(cert)


def _glued_edge_count(hc, template) -> int:
    doc = hc.gluing.template_to_json(template)
    return ref.glued_counts(doc["F"], doc["tree"], doc["psi_nodes"], doc["psi_edges"])[1]


def _balanced_p1(e1: int, l1: int, e2: int, l2: int, m: int) -> float:
    """p1 solving (e1+l1)/(e1 p1^(m-1)) = (e2+l2)/(e2 (1-p1)^(m-1))."""
    r = (e2 + l2) * e1 / ((e1 + l1) * e2)
    return 1.0 / (1.0 + r ** (1.0 / (m - 1)))


def _check_pair(e1: int, e2: int, verdict) -> list[str]:
    problems = [] if verdict.certified else [f"pair not certified: {verdict.reason}"]
    if (verdict.h1_edge_count, verdict.h2_edge_count) != (e1, e2):
        problems.append(f"e(H1), e(H2) = {verdict.h1_edge_count}, {verdict.h2_edge_count}; "
                        f"expected {e1}, {e2}")
    return problems


def _check_binomial(j, graphs, report) -> list[str]:
    expected = ref.binomial_check(*j, 5, graphs)
    problems = [] if report["all_hold_exact"] else ["binomial inequality reported violated"]
    if not expected["all_hold"]:
        problems.append("reference hom counts violate t(J,G) >= t(C5,G)^2")
    if report["graphs_checked"] != expected["checked"]:
        problems.append(f"{report['graphs_checked']} graphs checked, expected {expected['checked']}")
    if report["exponent"] != "2/1":
        problems.append(f"exponent {report['exponent']}, expected 2/1")
    if abs(report["min_slack"] - expected["min_slack"]) > GAP_ATOL:
        problems.append(f"min slack {report['min_slack']!r}, reference {expected['min_slack']!r}")
    return problems


def certify_ops(hc, rng) -> list[Operation]:
    """Goodness of the six bundled templates and three C7 templates, each
    with a JSON round trip of its certificate; pair certification of
    (pentagon_square, l1=1; simple_c5_vertex, l2=0); the binomial check
    for pentagon_square over all graphs on <= 5 vertices plus random ones."""
    templates = {name: hc.data.load_template(name) for name in hc.data.TEMPLATE_NAMES}
    templates.update(c7_templates(hc))
    ops = [Operation(f"goodness {name}", partial(_goodness_roundtrip, hc.cone, t),
                     partial(_check_goodness, name))
           for name, t in templates.items()]

    square, simple = templates["pentagon_square"], templates["simple_c5_vertex"]
    e1, e2 = _glued_edge_count(hc, square) - 1, _glued_edge_count(hc, simple)
    p1 = _balanced_p1(e1, 1, e2, 0, 5)
    ops.append(Operation(
        f"certify pair pentagon_square/simple_c5_vertex p1={p1!r}",
        partial(hc.commonness.certify_pair_via_templates, square, 1, simple, 0, p1),
        partial(_check_pair, e1, e2)))

    pairs = [(u, v) for u in range(EXTRA_VERTICES) for v in range(u + 1, EXTRA_VERTICES)]
    extra = []
    for _ in range(EXTRA_GRAPHS):
        chosen = rng.choice(len(pairs), size=EXTRA_EDGES, replace=False)
        extra.append(hc.graphs.Graph.from_edges(EXTRA_VERTICES, [pairs[i] for i in chosen]))
    graphs = [(n, e) for n in range(1, BINOMIAL_MAX_VERTICES + 1)
              for e in ref.all_labelled_graphs(n)] + [_hv(g) for g in extra]
    j, _ = hc.gluing.build_j(square)
    ops.append(Operation(
        "binomial pentagon_square",
        partial(hc.cone.binomial_inequality_check, square, BINOMIAL_MAX_VERTICES,
                extra_graphs=extra),
        partial(_check_binomial, _hv(j), graphs)))
    return ops


# ---------------------------------------------------------------------------
# evidence


def _check_residual(label: str, value) -> list[str]:
    return _within(f"|{label}|", abs(value), IDENTITY_TOL)


def _check_strong_gap(f, w, value) -> list[str]:
    expected = ref.strongly_common_gap(*_hv(f), w.measures, w.values)
    problems = _at_least("strongly-common gap", value, -INEQUALITY_TOL)
    if abs(value - expected) > SAMPLED_GAP_ATOL:
        problems.append(f"strongly-common gap {value!r}, reference {expected!r}")
    return problems


def _check_density(h, w, value) -> list[str]:
    expected = ref.density(*_hv(h), w.measures, w.values)
    err = ref.relative_error(value, expected)
    return [] if err <= DENSITY_RTOL else [
        f"density {value!r}, reference {expected!r} (relative error {err:.1e})"]


def _check_convexity(sample_graphon, seeds, f, hs, report) -> list[str]:
    problems = [f"condition {key} failed" for key in
                ("edge_floor", "edge_arithmetic", "balance", "correlation") if not report[key]]
    if report["correlation_assurance"] != "numerically_supported":
        problems.append(f"assurance {report['correlation_assurance']!r} without certificates")
    worst = math.inf
    for seed in seeds:
        w = sample_graphon(seed, CONVEXITY_MAX_BLOCKS)
        tf = ref.density(*_hv(f), w.measures, w.values)
        for h in hs:  # k = 3 and l = 0 on both sides
            worst = min(worst, ref.density(*_hv(h), w.measures, w.values) - tf**3)
    if abs(worst - report["correlation_min_slack"]) > GAP_ATOL:
        problems.append(f"correlation slack {report['correlation_min_slack']!r}, "
                        f"reference {worst!r}")
    return problems


def evidence_ops(hc, rng) -> list[Operation]:
    """Identity residuals (Goodman, C5 analogue, edge-subset expansion) and
    strongly-common gaps of C3/C5/C7 on 4-block graphons and kernels;
    densities of the glued J of pentagon_square on 4 blocks and of
    gen_c5_tree_a/b on 3 blocks; the convexity conditions for that pair."""
    graphs, ident = hc.graphs, hc.identities
    ops = []
    graphons = [random_kernel(hc, rng, 4) for _ in range(IDENTITY_GRAPHONS)]
    for i, w in enumerate(graphons):
        ops.append(Operation(f"goodman_residual graphon {i}",
                             partial(ident.goodman_residual, w),
                             partial(_check_residual, "goodman residual")))
        ops.append(Operation(f"c5_goodman_residual graphon {i}",
                             partial(ident.c5_goodman_residual, w),
                             partial(_check_residual, "C5 residual")))
    for label, h in (("C5", graphs.make_family("cycle", 5)),
                     ("diamond", graphs.make_family("complete_minus_edge", 4))):
        for i, w in enumerate(graphons[:2]):
            for p in (0.0, 0.3, ref.density(2, [(0, 1)], w.measures, w.values)):
                ops.append(Operation(f"expansion_residual {label} graphon {i} p={p!r}",
                                     partial(ident.expansion_residual, h, w, p),
                                     partial(_check_residual, "expansion residual")))
    kernels = graphons[:2] + [random_kernel(hc, rng, 4, -1.0, 2.0) for _ in range(2)]
    for m in (3, 5, 7):
        cm = graphs.make_family("cycle", m)
        for i, w in enumerate(kernels):
            ops.append(Operation(f"strongly_common_gap C{m} kernel {i}",
                                 partial(ident.strongly_common_gap, cm, w),
                                 partial(_check_strong_gap, cm, w)))

    j = {name: hc.gluing.build_j(hc.data.load_template(name))[0]
         for name in ("pentagon_square", "gen_c5_tree_a", "gen_c5_tree_b")}
    for name, blocks in (("pentagon_square", 4), ("gen_c5_tree_a", 3), ("gen_c5_tree_b", 3)):
        w = random_kernel(hc, rng, blocks)
        ops.append(Operation(f"density J({name}) on {blocks} blocks",
                             partial(hc.graphons.density, j[name], w),
                             partial(_check_density, j[name], w)))

    c5 = graphs.make_family("cycle", 5)
    ja, jb = j["gen_c5_tree_a"], j["gen_c5_tree_b"]
    spec = hc.commonness.CommonPairSpec(ja, jb, 0.5, f=c5, k1=3, k2=3, l1=0, l2=0)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=CONVEXITY_SEEDS)]
    ops.append(Operation(
        "convexity_conditions J(gen_c5_tree_a), J(gen_c5_tree_b)",
        partial(hc.commonness.convexity_conditions, spec, seeds,
                max_blocks=CONVEXITY_MAX_BLOCKS),
        partial(_check_convexity, hc.graphons.sample_graphon, seeds, c5, (ja, jb))))
    return ops


WORKLOADS = {"falsify": falsify_ops, "certify": certify_ops, "evidence": evidence_ops}
