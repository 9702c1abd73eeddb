"""Exact-rational cone membership deciding template goodness.

A template is good when (e(J)/e(F)) * e_V(F) - z lies in the convex cone
of the x-vectors over pairwise disjoint subset triples.  The generators
are enumerated over bitmask triples, keeping one least triple per distinct
vector, once per base graph and process, and kept in one immutable form:
integer coefficients on canonical classes.  Feasibility is decided by an
exact revised phase-one simplex in integers (a fraction-free basis inverse
over one positive denominator, Bland's rule) on columns read from that
form; "good" verdicts carry the conic coefficients and "not good" verdicts
a Farkas separating vector.  Both are re-verified before being returned by
a check that shares the generator enumeration but not the simplex.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, groupby, islice

from .graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph, _hom_counts,
                     _json_shaped, _mask_adjacency, graph_to_json)
from .gluing import (GluingTemplate, _as_subset, _canonical_table,
                     _class_counts, _lex_submasks, _mask_vertices, _x_terms, _z_terms,
                     build_j, template_from_json, template_to_json)

GeneratorTriple = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
# a cone generator: its least triple and its (class, integer coefficient) items
Generator = tuple[GeneratorTriple, tuple[tuple[tuple[int, ...], int], ...]]
# candidate graphs per batched hom-count contraction in the binomial check;
# 1024-graph batches were no faster and raised peak memory by 0.7 MB
_BATCH = 256


@dataclass(frozen=True)
class GoodnessCertificate:
    """Reusable record of a goodness decision for one template."""

    template: GluingTemplate
    verdict: str  # "good" | "not_good"
    target: dict[tuple[int, ...], Fraction]
    generators_used: tuple[tuple[GeneratorTriple, Fraction], ...]
    farkas_witness: dict[tuple[int, ...], Fraction] | None
    j_vertex_count: int
    j_edge_count: int


@lru_cache(maxsize=64)
def enumerate_generators(f: Graph) -> tuple[Generator, ...]:
    """Distinct nonzero x-vectors over unordered disjoint triples with
    r1, r3 nonempty; one lexicographically-least triple per vector.

    Enumerated once per base graph and process: every call returns the
    same immutable tuple of (triple, ((class, integer coefficient), ...)).
    Triples are walked as bitmasks in lexicographic order of (r1, r2, r3),
    r1 only over canonical class masks, so the first triple met for a
    vector is its least.  The vector
    e(r1|r2|r3) - e(r2|r3) - e(r1|r2) + e(r2) is keyed by its four canonical
    class masks, the two negative ones in either order.  It is never zero:
    r1|r2|r3 is larger than each other part, and r2 than none.  The result
    is ordered by the sorted (class, coefficient) items of each vector.
    """
    n = f.vertex_count
    canon = _canonical_table(f, DEFAULT_WORK_BUDGET, "enumerate_generators")
    lex, rank = _lex_submasks(n)
    full = (1 << n) - 1
    seen: dict[tuple[int, int, int, int], tuple[int, int, int]] = {}
    for m1 in lex[full][1:]:
        # The least triple of a vector has a canonical r1.  An automorphism
        # s with s(r1) = canon[r1] keeps every class, so (s r1, s r2, s r3)
        # gives the same vector, and so does its r1 <-> r3 swap, which swaps
        # the two negative parts.  One of the two is walked, with r1 of
        # rank at most rank[canon[r1]]; if r1 is not canonical that is below
        # rank[r1], so the walk met that triple first.
        if canon[m1] != m1:
            continue
        rank1 = rank[m1]
        for m2 in lex[full ^ m1]:
            m12 = m1 | m2
            c, d = canon[m12], canon[m2]
            for m3 in lex[full ^ m12]:
                if rank[m3] <= rank1:
                    continue
                a, b = canon[m12 | m3], canon[m2 | m3]
                key = (a, b, c, d) if b <= c else (a, c, b, d)
                if key not in seen:
                    seen[key] = (m1, m2, m3)
    vectors = []
    for m1, m2, m3 in seen.values():
        coeffs = {canon[m1 | m2 | m3]: 1, canon[m2 | m3]: -1}
        c = canon[m1 | m2]
        coeffs[c] = coeffs.get(c, 0) - 1
        if m2:
            coeffs[canon[m2]] = 1
        order = sorted((rank[k], v) for k, v in coeffs.items())
        vectors.append((order, (m1, m2, m3), coeffs))
    vectors.sort(key=lambda entry: entry[0])
    vertices = [_mask_vertices(mask) for mask in range(full + 1)]
    return tuple((tuple(vertices[m] for m in triple),
                  tuple((vertices[k], v) for k, v in coeffs.items()))
                 for _, triple, coeffs in vectors)


def _integer(v) -> int:
    """v as an int; ValueError unless v is an integral int or `Fraction`."""
    if getattr(v, "denominator", None) != 1:
        raise ValueError(f"_phase_one needs integer columns, got {v!r}")
    return v.numerator


def _phase_one(columns, b: list[Fraction]):
    """Solve A c = b, c >= 0 exactly, for integer columns and rational b.

    Each column is a {row: value} dict of integers (ints or integral
    `Fraction`s); any other value raises ValueError.
    Returns ("feasible", coefficients) or ("infeasible", y) where y
    satisfies y.A_j <= 0 for every column and y.b > 0.

    Revised simplex on the phase-one problem min sum(a) s.t. S A c + a = S b,
    c, a >= 0, with S = diag(sign b) and artificial a_i as column n + i.  It
    runs in integers (Edmonds' fraction-free form): the basis inverse is
    inv / det, with inv an integer matrix and det > 0 the basis determinant,
    and S b is scaled by the lcm of its denominators.  Pricing takes the
    duals pi = c_B inv (scaled by det) in index order and enters the first
    column with negative reduced cost (Bland); the ratio test compares
    cross products and breaks ties on the smaller basic variable.  A pivot
    on u = inv A_j updates each row r != leave to (r * piv - u_r * p) // det
    for the pivot row p and piv = u_leave, which is exact, and piv becomes
    det.  On an infeasible system S pi / det is the Farkas vector.
    """
    m, n = len(b), len(columns)
    b = [Fraction(v) for v in b]
    sign = [1 if v >= 0 else -1 for v in b]
    scale = math.lcm(*(v.denominator for v in b))
    cols = [[(i, sign[i] * _integer(v)) for i, v in col.items() if v] for col in columns]
    basis = [n + i for i in range(m)]
    inv = [[int(i == k) for k in range(m)] for i in range(m)]
    x = [sign[i] * v.numerator * (scale // v.denominator) for i, v in enumerate(b)]
    det = 1
    while True:
        pi = [0] * m
        for i in range(m):
            if basis[i] >= n:
                pi = [p + v for p, v in zip(pi, inv[i])]
        enter = next((j for j, col in enumerate(cols)
                      if sum(pi[i] * v for i, v in col) > 0), None)
        if enter is None:
            # artificial n + i has reduced cost 1 - pi_i / det
            enter = next((n + i for i in range(m) if pi[i] > det), None)
        if enter is None:
            break
        col = cols[enter] if enter < n else [(enter - n, 1)]
        u = [sum(row[k] * v for k, v in col) for row in inv]
        leave = None
        for i in range(m):
            if u[i] > 0 and (leave is None or (x[i] * u[leave], basis[i])
                             < (x[leave] * u[i], basis[leave])):
                leave = i
        if leave is None:
            raise AssertionError("phase-one objective is bounded; unbounded pivot")
        piv, pivot_row, pivot_x = u[leave], inv[leave], x[leave]
        for i in range(m):
            if i != leave:
                factor = u[i]
                inv[i] = [(a * piv - factor * p) // det for a, p in zip(inv[i], pivot_row)]
                x[i] = (x[i] * piv - factor * pivot_x) // det
        det = piv
        basis[leave] = enter
    if not any(x[i] for i in range(m) if basis[i] >= n):
        coeffs = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                coeffs[var] = Fraction(x[i], det * scale)
        return "feasible", coeffs
    return "infeasible", [Fraction(sign[i] * pi[i], det) for i in range(m)]


def check_good(t: GluingTemplate, budget: int = DEFAULT_WORK_BUDGET) -> GoodnessCertificate:
    """Decide goodness of a template by exact LP feasibility.

    The canonical class table of F is built first, and generator
    enumeration is charged as its 4^v(F) vertex assignments before it
    starts, each against `budget`.  The LP's right-hand side is the integer
    e(F)(target - z), so its coefficients are divided by e(F).  The returned
    certificate is re-checked from scratch (conic equality or Farkas
    inequalities) before this function returns; a failure there is a solver
    bug, not a property of the template.
    """
    f = t.base
    j, _ = build_j(t)
    if j.edge_count == 0 or f.edge_count == 0:
        raise ValueError("goodness requires e(J) > 0")
    _canonical_table(f, budget, "check_good")
    rhs = _class_counts(f, [(j.edge_count, range(f.vertex_count))] + _z_terms(t, -f.edge_count))
    target = {tuple(range(f.vertex_count)): Fraction(j.edge_count, f.edge_count)}
    used, witness = (), None
    # a zero right-hand side is good with no generators and no 4^v(F) charge
    if rhs:
        _charge_generators("check_good", f, budget)
        generators = enumerate_generators(f)
        class_keys = sorted({k for _, coeffs in generators for k, _ in coeffs} | set(rhs),
                            key=lambda k: (len(k), k))
        row_of = {k: i for i, k in enumerate(class_keys)}
        columns = [{row_of[k]: v for k, v in coeffs} for _, coeffs in generators]
        status, payload = _phase_one(columns, [rhs.get(k, 0) for k in class_keys])
        if status == "feasible":
            used = tuple((generators[idx][0], coeff / f.edge_count)
                         for idx, coeff in enumerate(payload) if coeff != 0)
        else:
            witness = {k: y for k, y in zip(class_keys, payload) if y != 0}
    cert = GoodnessCertificate(t, "good" if witness is None else "not_good", target, used,
                               witness, j.vertex_count, j.edge_count)
    if not verify_certificate(cert, budget):
        raise AssertionError("solver output failed independent re-verification")
    return cert


def _charge_generators(caller: str, f: Graph, budget: int):
    """Charge generator enumeration as its 4^v(F) vertex assignments."""
    if 4**f.vertex_count > budget:
        raise BudgetExceededError(
            f"{caller}: enumerating generators of a {f.vertex_count}-vertex base "
            f"visits {4**f.vertex_count} assignments, budget {budget}")


def verify_certificate(cert: GoodnessCertificate,
                       budget: int = DEFAULT_WORK_BUDGET) -> bool:
    """Recompute everything the certificate asserts, in exact arithmetic.

    Every test is on integer counts per class from the class table.  Good:
    coefficients c_i >= 0 and sum((L e(F) c_i) x_i) = L e(F)(target - z),
    each x_i rebuilt from its triple and L the lcm of the c_i's denominators.
    Not good: the witness y, times the lcm of its denominators, has
    y.e(F)(target - z) > 0 and y.x <= 0 for every generator of
    `enumerate_generators`.  The class table and, for a not-good
    certificate, generator enumeration are charged as in `check_good`.
    """
    if cert.verdict not in ("good", "not_good"):
        raise ValueError(f"malformed certificate verdict {cert.verdict!r}")
    t = cert.template
    f = t.base
    j, _ = build_j(t)
    if j.vertex_count != cert.j_vertex_count or j.edge_count != cert.j_edge_count:
        return False
    if j.edge_count == 0 or f.edge_count == 0:
        return False
    _canonical_table(f, budget, "verify_certificate")
    if cert.target != {tuple(range(f.vertex_count)): Fraction(j.edge_count, f.edge_count)}:
        return False
    rhs = [(j.edge_count, range(f.vertex_count))] + _z_terms(t, -f.edge_count)
    if cert.verdict == "good":
        if cert.farkas_witness is not None or any(c < 0 for _, c in cert.generators_used):
            return False
        scale = math.lcm(*(c.denominator for _, c in cert.generators_used))
        terms = [(-scale * w, s) for w, s in rhs]
        for triple, c in cert.generators_used:
            m = c.numerator * (scale // c.denominator) * f.edge_count
            terms += [(m * w, s) for w, s in _x_terms(f, *triple)]
        return not _class_counts(f, terms)
    witness = cert.farkas_witness
    if witness is None:
        return False
    # the witness times the lcm of its denominators (> 0, so signs hold)
    scale = math.lcm(*(v.denominator for v in witness.values()))
    y = {k: v.numerator * (scale // v.denominator) for k, v in witness.items()}
    if sum(y.get(k, 0) * v for k, v in _class_counts(f, rhs).items()) <= 0:
        return False
    _charge_generators("verify_certificate", f, budget)
    return all(sum(y.get(k, 0) * v for k, v in coeffs) <= 0
               for _, coeffs in enumerate_generators(f))


def binomial_inequality_check(t: GluingTemplate, max_g_vertices: int, extra_graphs=(),
                              budget: int = DEFAULT_WORK_BUDGET) -> dict:
    """Check t(J,G) >= t(F,G)^(e(J)/e(F)) over all labelled graphs G on up
    to max_g_vertices vertices (plus any extra graphs), with exact
    homomorphism counts.

    Needs a candidate graph, extra graphs of at least one vertex, and a
    good `t`, decided by `check_good` within `budget`; ValueError otherwise.
    The candidates are edge masks (bit i for the i-th pair of
    combinations(range(n), 2), as `all_labelled_graphs` orders them), then
    the extra graphs', in runs on one vertex count of at most _BATCH masks.
    A run's hom counts of J and of F are one batched contraction each over
    its adjacency stack, charged per graph against `budget`.  With
    e(J)/e(F) = a/b in lowest terms, the exact comparison on an n-vertex G
    is the integer inequality hom(J,G)^b n^(v(F) a) >= hom(F,G)^a n^(v(J) b).
    Reports the minimum floating slack, the first graph attaining it, and
    whether the exact comparison held everywhere.
    """
    extra_graphs = list(extra_graphs)
    if max_g_vertices < 1 and not extra_graphs:
        raise ValueError("binomial inequality check needs at least one candidate graph")
    if any(g.vertex_count < 1 for g in extra_graphs):
        raise ValueError("binomial inequality check needs extra graphs with at least one vertex")
    if check_good(t, budget).verdict != "good":
        raise ValueError("binomial inequality applies to certified-good templates")
    j, _ = build_j(t)
    f = t.base
    ratio = Fraction(j.edge_count, f.edge_count)
    a, bb = ratio.numerator, ratio.denominator
    min_slack = argmin = None
    checked, exact_ok = 0, True
    candidates = chain(((n, m) for n in range(1, max_g_vertices + 1)
                        for m in range(1 << n * (n - 1) // 2)),
                       ((g.vertex_count, sum(1 << i for i, p in enumerate(
                           combinations(range(g.vertex_count), 2)) if p in g.edges))
                        for g in extra_graphs))
    for n, run in groupby(candidates, key=lambda c: c[0]):
        while batch := [m for _, m in islice(run, _BATCH)]:
            adj = _mask_adjacency(n, batch)
            hom_j = _hom_counts(j, adj, budget, "binomial_inequality_check")
            hom_f = _hom_counts(f, adj, budget, "binomial_inequality_check")
            vj, vf = n**j.vertex_count, n**f.vertex_count
            for mask, hj, hf in zip(batch, hom_j, hom_f):
                if hj**bb * vf**a < hf**a * vj**bb:
                    exact_ok = False
                slack = hj / vj - (hf / vf) ** (a / bb)
                checked += 1
                if min_slack is None or slack < min_slack:
                    min_slack = slack
                    argmin = n, mask
    n, mask = argmin
    edges = frozenset(p for i, p in enumerate(combinations(range(n), 2)) if mask >> i & 1)
    return {
        "all_hold_exact": exact_ok,
        "min_slack": min_slack,
        "argmin_graph": graph_to_json(Graph(n, edges)),
        "graphs_checked": checked,
        "exponent": f"{a}/{bb}",
    }


def _fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _fraction_from_str(text, what: str) -> Fraction:
    """The rational that `_fraction_to_str` writes as `text`; ValueError for
    any other string (spaces, decimals, exponents, underscores, a non-reduced
    or zero denominator, "-0") and for any other JSON value."""
    m = re.fullmatch(r"(-?[1-9][0-9]*|0)/([1-9][0-9]*)", _json_shaped(text, str, what))
    if m is None or math.gcd(int(m[1]), int(m[2])) != 1:
        raise ValueError(f'{what}: {text!r} is not a reduced "numerator/denominator"')
    return Fraction(int(m[1]), int(m[2]))


def template_hash(t: GluingTemplate) -> str:
    payload = json.dumps(template_to_json(t), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def _classvec_to_json(vec: dict[tuple[int, ...], Fraction]) -> dict:
    return {",".join(map(str, k)): _fraction_to_str(v) for k, v in sorted(vec.items())}


def _classvec_from_json(base: Graph, obj: dict, canon: tuple[int, ...]) -> dict:
    """Read a class vector whose keys are canonical representatives, as
    `_classvec_to_json` writes them; `canon` is the base's class table.
    Zero ("0/1") entries are dropped, as the writer never emits them."""
    if not isinstance(obj, dict):
        raise ValueError(f"a class vector must be a JSON object, not {type(obj).__name__}")
    coeffs = {}
    for key, val in obj.items():
        k = (int(x) for x in key.split(","))
        rep = _mask_vertices(canon[sum(1 << v for v in _as_subset(base, k))])
        rep_key = ",".join(map(str, rep))
        if key != rep_key:
            raise ValueError(f"class key {key!r} is not the canonical representative "
                             f"{rep_key!r} of its class")
        coeffs[rep] = _fraction_from_str(val, f"class vector value at {key!r}")
    return {k: v for k, v in coeffs.items() if v}


def certificate_to_json(cert: GoodnessCertificate) -> dict:
    return {
        "template": template_to_json(cert.template),
        "template_hash": template_hash(cert.template),
        "verdict": cert.verdict,
        "j_vertex_count": cert.j_vertex_count,
        "j_edge_count": cert.j_edge_count,
        "target": _classvec_to_json(cert.target),
        "generators_used": [
            {"r1": list(r1), "r2": list(r2), "r3": list(r3), "coeff": _fraction_to_str(c)}
            for (r1, r2, r3), c in cert.generators_used
        ],
        "farkas_witness": (_classvec_to_json(cert.farkas_witness)
                           if cert.farkas_witness is not None else None),
    }


def certificate_from_json(obj: dict, budget: int = DEFAULT_WORK_BUDGET) -> GoodnessCertificate:
    """Parse a certificate file; building the base's class table, which its
    class keys are checked against, is charged against `budget`."""
    if not isinstance(obj, dict) or "template" not in obj or "verdict" not in obj:
        raise ValueError("certificate JSON needs 'template' and 'verdict' fields")
    t = template_from_json(obj["template"])
    if obj.get("template_hash") != template_hash(t):
        raise ValueError("certificate 'template_hash' missing or mismatched (tampered file?)")
    canon = _canonical_table(t.base, budget, "certificate_from_json")
    try:
        gens = tuple(
            (tuple(tuple(_json_shaped(g[r], [int], f"generator {r!r}"))
                   for r in ("r1", "r2", "r3")),
             _fraction_from_str(g["coeff"], "generator 'coeff'"))
            for g in obj.get("generators_used", []))
        witness = obj.get("farkas_witness")
        return GoodnessCertificate(
            template=t,
            verdict=obj["verdict"],
            target=_classvec_from_json(t.base, obj.get("target", {}), canon),
            generators_used=gens,
            farkas_witness=(_classvec_from_json(t.base, witness, canon)
                            if witness is not None else None),
            j_vertex_count=_json_shaped(obj["j_vertex_count"], int, "'j_vertex_count'"),
            j_edge_count=_json_shaped(obj["j_edge_count"], int, "'j_edge_count'"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
