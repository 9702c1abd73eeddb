"""Exact-rational cone membership deciding template goodness.

A template is good when (e(J)/e(F)) * e_V(F) - z lies in the convex cone
of the x-vectors over pairwise disjoint subset triples.  The generators
are enumerated over bitmask triples with integer coefficients on canonical
class masks, keeping one least triple per distinct vector.  Feasibility is
decided by an exact revised phase-one simplex over Fractions (basis
inverse, Bland's rule); "good" verdicts carry the conic coefficients and
"not good" verdicts a Farkas separating vector, both re-verified
independently of the solver before being returned.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph,
                     all_labelled_graphs, graph_to_json, hom_count)
from .gluing import (ClassVector, GluingTemplate, _canonical_table, _lex_submasks,
                     _mask_vertices, build_j, template_from_json, template_to_json,
                     x_vector, z_vector)

GeneratorTriple = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class GoodnessCertificate:
    """Reusable record of a goodness decision for one template."""

    template: GluingTemplate
    verdict: str  # "good" | "not_good"
    target: ClassVector
    generators_used: tuple[tuple[GeneratorTriple, Fraction], ...]
    farkas_witness: ClassVector | None
    j_vertex_count: int
    j_edge_count: int


def enumerate_generators(f: Graph):
    """Distinct nonzero x-vectors over unordered disjoint triples with
    r1, r3 nonempty; one lexicographically-least triple per vector.

    Triples are walked as bitmasks in lexicographic order of (r1, r2, r3),
    so the first triple met for a vector is its least.  The vector
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
    return [(tuple(_mask_vertices(m) for m in triple),
             ClassVector(f, {_mask_vertices(k): v for k, v in coeffs.items()}))
            for _, triple, coeffs in vectors]


def _phase_one(columns: list[list[Fraction]], b: list[Fraction]):
    """Solve A c = b, c >= 0 exactly.

    Returns ("feasible", coefficients) or ("infeasible", y) where y
    satisfies y.A_j <= 0 for every column and y.b > 0.

    Revised simplex on the phase-one problem min sum(a) s.t. S A c + a = S b,
    c, a >= 0, with S = diag(sign b) and artificial a_i as column n + i.  It
    keeps the exact basis inverse, prices columns in index order with the
    duals pi = c_B B^-1 and enters the first with negative reduced cost
    (Bland); the ratio test breaks ties on the smaller basic variable.  On
    an infeasible system S pi is the Farkas vector.
    """
    m, n = len(b), len(columns)
    sign = [1 if b[i] >= 0 else -1 for i in range(m)]
    cols = [[(i, sign[i] * Fraction(v)) for i, v in enumerate(col) if v] for col in columns]
    basis = [n + i for i in range(m)]
    binv = [[Fraction(int(i == k)) for k in range(m)] for i in range(m)]
    x = [sign[i] * Fraction(b[i]) for i in range(m)]
    while True:
        pi = [Fraction(0)] * m
        for i in range(m):
            if basis[i] >= n:
                pi = [p + v for p, v in zip(pi, binv[i])]
        enter = next((j for j, col in enumerate(cols)
                      if sum(pi[i] * v for i, v in col) > 0), None)
        if enter is None:
            # artificial n + i has reduced cost 1 - pi_i
            enter = next((n + i for i in range(m) if pi[i] > 1), None)
        if enter is None:
            break
        col = cols[enter] if enter < n else [(enter - n, 1)]
        u = [sum(row[k] * v for k, v in col) for row in binv]
        leave = None
        best = None
        for i in range(m):
            if u[i] > 0:
                ratio = x[i] / u[i]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise AssertionError("phase-one objective is bounded; unbounded pivot")
        piv = u[leave]
        pivot_row = [v / piv for v in binv[leave]]
        binv[leave] = pivot_row
        x[leave] /= piv
        for i in range(m):
            if i != leave and u[i] != 0:
                factor = u[i]
                binv[i] = [a - factor * p for a, p in zip(binv[i], pivot_row)]
                x[i] -= factor * x[leave]
        basis[leave] = enter
    objective = sum((x[i] for i in range(m) if basis[i] >= n), Fraction(0))
    if objective == 0:
        coeffs = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                coeffs[var] = x[i]
        return "feasible", coeffs
    return "infeasible", [sign[i] * pi[i] for i in range(m)]


def check_good(t: GluingTemplate, budget: int = DEFAULT_WORK_BUDGET) -> GoodnessCertificate:
    """Decide goodness of a template by exact LP feasibility.

    The canonical class table of F is built first, and generator
    enumeration is charged as its 4^v(F) vertex assignments before it
    starts, each against `budget`.  The returned certificate is re-checked
    from scratch (conic equality or Farkas inequalities) before this
    function returns; a failure there is a solver bug, not a property of
    the template.
    """
    f = t.base
    j, _ = build_j(t)
    if j.edge_count == 0 or f.edge_count == 0:
        raise ValueError("goodness requires e(J) > 0")
    _canonical_table(f, budget, "check_good")
    target = ClassVector.basis(f, range(f.vertex_count)).scaled(
        Fraction(j.edge_count, f.edge_count))
    rhs_vec = target - z_vector(t)
    if rhs_vec.is_zero():
        cert = GoodnessCertificate(t, "good", target, (), None,
                                   j.vertex_count, j.edge_count)
        if not verify_certificate(cert, budget):
            raise AssertionError("trivial certificate failed re-verification")
        return cert
    _charge_generators("check_good", f, budget)
    generators = enumerate_generators(f)
    class_keys = sorted({k for _, vec in generators for k in vec.coeffs}
                        | set(rhs_vec.coeffs), key=lambda k: (len(k), k))
    row_of = {k: i for i, k in enumerate(class_keys)}
    columns = []
    for _, vec in generators:
        col = [Fraction(0)] * len(class_keys)
        for k, v in vec.coeffs.items():
            col[row_of[k]] = v
        columns.append(col)
    b = [rhs_vec.coeffs.get(k, Fraction(0)) for k in class_keys]
    status, payload = _phase_one(columns, b)
    if status == "feasible":
        used = tuple((generators[idx][0], coeff)
                     for idx, coeff in enumerate(payload) if coeff != 0)
        cert = GoodnessCertificate(t, "good", target, used, None,
                                   j.vertex_count, j.edge_count)
    else:
        witness = ClassVector(f, {class_keys[i]: payload[i]
                                  for i in range(len(class_keys)) if payload[i] != 0})
        cert = GoodnessCertificate(t, "not_good", target, (), witness,
                                   j.vertex_count, j.edge_count)
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

    Good: coefficients non-negative and z + sum(c * x) equals the target.
    Not good: the witness has non-positive inner product with every
    generator and positive inner product with target - z.  The class table
    and, for a not-good certificate, generator enumeration are charged
    against `budget` as in `check_good`.
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
    target = ClassVector.basis(f, range(f.vertex_count)).scaled(
        Fraction(j.edge_count, f.edge_count))
    if target.coeffs != cert.target.coeffs:
        return False
    z = z_vector(t)
    if cert.verdict == "good":
        if cert.farkas_witness is not None:
            return False
        acc = z
        for (r1, r2, r3), coeff in cert.generators_used:
            if coeff < 0:
                return False
            acc = acc + x_vector(f, r1, r2, r3).scaled(coeff)
        return acc.coeffs == target.coeffs
    witness = cert.farkas_witness
    if witness is None:
        return False
    if witness.inner(target - z) <= 0:
        return False
    _charge_generators("verify_certificate", f, budget)
    for _, vec in enumerate_generators(f):
        if witness.inner(vec) > 0:
            return False
    return True


def binomial_inequality_check(t: GluingTemplate, max_g_vertices: int,
                              cert: GoodnessCertificate | None = None,
                              extra_graphs=(), budget: int = DEFAULT_WORK_BUDGET) -> dict:
    """Check t(J,G) >= t(F,G)^(e(J)/e(F)) over all labelled graphs G on up
    to max_g_vertices vertices (plus any extra graphs), with exact rational
    homomorphism counts.

    Requires the template to be certified good.  Reports the minimum
    floating slack, the minimising graph, and whether the exact rational
    comparison held everywhere.
    """
    if cert is None:
        cert = check_good(t, budget)
    if cert.verdict != "good":
        raise ValueError("binomial inequality applies to certified-good templates")
    j, _ = build_j(t)
    f = t.base
    ratio = Fraction(j.edge_count, f.edge_count)
    a, bb = ratio.numerator, ratio.denominator
    min_slack = None
    argmin = None
    checked = 0
    exact_ok = True
    candidates = []
    for n in range(1, max_g_vertices + 1):
        candidates.append(all_labelled_graphs(n))
    candidates.append(iter(extra_graphs))

    for pool in candidates:
        for g in pool:
            n = g.vertex_count
            t_j = Fraction(hom_count(j, g, budget), n**j.vertex_count)
            t_f = Fraction(hom_count(f, g, budget), n**f.vertex_count)
            if t_j**bb < t_f**a:
                exact_ok = False
            slack = float(t_j) - float(t_f) ** float(ratio)
            checked += 1
            if min_slack is None or slack < min_slack:
                min_slack = slack
                argmin = g
    return {
        "all_hold_exact": exact_ok,
        "min_slack": min_slack,
        "argmin_graph": graph_to_json(argmin) if argmin is not None else None,
        "graphs_checked": checked,
        "exponent": f"{a}/{bb}",
    }


def _fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def template_hash(t: GluingTemplate) -> str:
    payload = json.dumps(template_to_json(t), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def _classvec_to_json(vec: ClassVector) -> dict:
    return {",".join(map(str, k)): _fraction_to_str(v) for k, v in sorted(vec.coeffs.items())}


def _classvec_from_json(base: Graph, obj: dict) -> ClassVector:
    coeffs = {}
    for key, val in obj.items():
        k = tuple(int(x) for x in key.split(","))
        coeffs[k] = Fraction(val)
    return ClassVector(base, coeffs)


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


def certificate_from_json(obj: dict) -> GoodnessCertificate:
    if not isinstance(obj, dict) or "template" not in obj or "verdict" not in obj:
        raise ValueError("certificate JSON needs 'template' and 'verdict' fields")
    t = template_from_json(obj["template"])
    if obj.get("template_hash") != template_hash(t):
        raise ValueError("certificate 'template_hash' missing or mismatched (tampered file?)")
    try:
        gens = tuple(
            ((tuple(g["r1"]), tuple(g["r2"]), tuple(g["r3"])), Fraction(g["coeff"]))
            for g in obj.get("generators_used", []))
        witness = obj.get("farkas_witness")
        return GoodnessCertificate(
            template=t,
            verdict=obj["verdict"],
            target=_classvec_from_json(t.base, obj.get("target", {})),
            generators_used=gens,
            farkas_witness=(_classvec_from_json(t.base, witness)
                            if witness is not None else None),
            j_vertex_count=int(obj["j_vertex_count"]),
            j_edge_count=int(obj["j_edge_count"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
