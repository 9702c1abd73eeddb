"""Exact-rational cone membership deciding template goodness.

A template is good when (e(J)/e(F)) * e_V(F) - z lies in the convex cone
of the x-vectors over pairwise disjoint subset triples.  The generators
are enumerated over bitmask triples, keeping one least triple per distinct
vector, once per base graph and process, into one immutable table: the
triples, the canonical classes, a read-only int64 matrix of the integer
coefficients, classes by generators, and the largest column sum of its
absolute values.  Feasibility is decided by an exact revised phase-one
simplex in integers (a fraction-free basis inverse over one positive
denominator, Bland's rule) on array passes over that matrix; the arrays
are int64 while a bound on every product, from that column sum, fits and
Python ints above it.  "Good" verdicts carry the conic coefficients and
"not good" verdicts a Farkas separating vector.  Both are re-verified
before being returned by a check that shares the generator table but not
the simplex: a good certificate's x-vectors are rebuilt from its triples,
and a witness is checked against every generator in one integer product.
The binomial inequality check scores one least labelled graph per
isomorphism class, weighted by the class size.
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

import numpy as np

from .graphs import (DEFAULT_WORK_BUDGET, BudgetExceededError, Graph, _hom_counts,
                     _json_shaped, _mask_adjacency, graph_to_json)
from .gluing import (GluingTemplate, _as_subset, _canonical_table,
                     _class_counts, _lex_submasks, _mask_vertices, _x_terms, _z_terms,
                     build_j, template_from_json, template_to_json)

GeneratorTriple = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
# candidate graphs per batched hom-count contraction in the binomial check;
# 1024-graph batches were no faster and raised peak memory by 0.7 MB
_BATCH = 256
# columns in the phase-one LP's first pricing block; each later block is
# twice the one before, so a pivot that enters an early column prices few
_PRICE_COLUMNS = 256


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


@dataclass(frozen=True, eq=False)
class Generators:
    """The cone generators of one base graph, in one form: generator i is
    column i of `matrix`, written by certificates as `triples[i]`; row k of
    `matrix` holds the integer coefficients on class `classes[k]`.
    `col_sum`, the largest column sum of |matrix| (at least 1), enters the
    bounds on the products of the LP and of the Farkas re-check."""

    triples: tuple[GeneratorTriple, ...]
    classes: tuple[tuple[int, ...], ...]
    matrix: np.ndarray  # read-only int64, classes x generators
    col_sum: int

    def __len__(self) -> int:
        return len(self.triples)


@lru_cache(maxsize=64)
def enumerate_generators(f: Graph) -> Generators:
    """Distinct nonzero x-vectors over unordered disjoint triples with
    r1, r3 nonempty; one lexicographically-least triple per vector.

    Enumerated once per base graph and process: every call returns the
    same `Generators` table, which both the LP and the Farkas re-check read.
    Triples are walked as bitmasks in lexicographic order of (r1, r2, r3),
    r1 only over canonical class masks, so the first triple met for a
    vector is its least.  The vector
    e(r1|r2|r3) - e(r2|r3) - e(r1|r2) + e(r2) is keyed by its four canonical
    class masks, the two negative ones in either order.  It is never zero:
    r1|r2|r3 is larger than each other part, and r2 than none.  The columns
    are ordered by the sorted (class, coefficient) items of each vector,
    and the rows are the classes the vectors mention, sorted by (size,
    vertices).  For v(F) >= 2 that is every nonempty class: the triple
    (S, {}, {v}) for v outside S, or ({u}, {}, V - {u}) for S = V, has S's
    class in its vector.  So every class of a goodness right-hand side has
    a row.
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

    def items(key):
        # the vector's (rank, coefficient) items; d = 0 when r2 is empty
        a, b, c, d = key
        coeffs = {a: 1, b: -1}
        coeffs[c] = coeffs.get(c, 0) - 1
        if d:
            coeffs[d] = 1
        return sorted((rank[k], v) for k, v in coeffs.items())

    keys = sorted(seen, key=items)
    # the empty mask is row 0, where every empty r2 adds its +1, then dropped
    masks = sorted({0}.union(*keys), key=lambda k: (bin(k).count("1"), rank[k]))
    row = np.zeros(full + 1, dtype=np.intp)
    row[masks] = np.arange(len(masks))
    matrix = np.zeros((len(masks), len(keys)), dtype=np.int64)
    np.add.at(matrix, (row[np.array(keys, dtype=np.intp).reshape(-1, 4)],
                       np.arange(len(keys))[:, None]), [1, -1, -1, 1])
    matrix = matrix[1:]
    matrix.flags.writeable = False
    vertices = [_mask_vertices(mask) for mask in range(full + 1)]
    return Generators(tuple(tuple(vertices[m] for m in seen[key]) for key in keys),
                      tuple(vertices[k] for k in masks[1:]), matrix,
                      int(np.abs(matrix).sum(axis=0).max(initial=1)))


def _phase_one(a, col_sum: int, b: list[Fraction]):
    """Solve A c = b, c >= 0 exactly, for an integer (m, n) array A (int64,
    or an object array of Python ints), the largest column sum of |A|
    (`Generators.col_sum`; at least 1), and rational b.

    Returns ("feasible", coefficients) or ("infeasible", y) where y
    satisfies y.A_j <= 0 for every column and y.b > 0.

    Revised simplex on the phase-one problem min sum(a) s.t. S A c + a = S b,
    c, a >= 0, with S = diag(sign b) and artificial a_i as column n + i.  It
    runs in integers (Edmonds' fraction-free form): the basis inverse is
    inv / det, with inv an integer matrix and det > 0 the basis determinant,
    and S b is scaled by the lcm of its denominators.  It keeps one integer
    tableau [inv S | x], so the duals pi = c_B inv (scaled by det) come out
    as pi S, the reduced costs of all columns as (pi S) A and the column
    u = inv S A_j as (inv S) A_j.  Pricing runs over blocks of doubling
    width (the first of _PRICE_COLUMNS) and enters the first column with
    negative reduced cost (Bland); the ratio test compares cross products
    and breaks ties on the smaller basic variable.  A pivot on u sets the
    tableau to (tableau * piv - outer(u, p)) // det for the pivot row p and
    piv = u_leave, which is exact, keeps row p, and piv becomes det.  On an
    infeasible system S pi / det is the Farkas vector.

    The tableau is int64 while a bound on every product of the next pivot
    fits (from its largest entry and the largest column sum of |A|), and a
    Python-int object array from the first pivot on which it does not, as
    `graphs._hom_counts` switches on its bound.
    """
    m = len(b)
    # int64 while an m-entry column sum cannot leave it
    top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    a = a.astype(np.int64 if top < 2**62 // max(m, 1) else object, copy=False)
    n = a.shape[1]
    b = [Fraction(v) for v in b]
    sign = [1 if v >= 0 else -1 for v in b]
    scale = math.lcm(*(v.denominator for v in b))
    rhs = [s * v.numerator * (scale // v.denominator) for s, v in zip(sign, b)]
    # the tableau [inv S | x]: row operations commute with scaling columns by S
    tab = np.array([[s * (i == k) for k in range(m)] + [r]
                    for i, (s, r) in enumerate(zip(sign, rhs))], dtype=object)
    wide = a.dtype == object or max(map(abs, rhs), default=0) >= 2**62
    tab = tab if wide else tab.astype(np.int64)
    artificial = np.ones(m, dtype=tab.dtype)
    basis = list(range(n, n + m))
    det = 1
    while True:
        if not wide:
            top = int(np.abs(tab).max(initial=0))
            wide = top * col_sum * max(m, 2 * top) >= 2**63
            if wide:
                # object arrays of Python ints from here on
                a, tab, artificial = (v.astype(object) for v in (a, tab, artificial))
        pi = artificial @ tab[:, :m]  # pi S
        enter, start, width = None, 0, _PRICE_COLUMNS
        while enter is None and start < n:
            priced = (pi @ a[:, start:start + width] > 0).nonzero()[0]
            if priced.size:
                enter = start + int(priced[0])
                u = tab[:, :m] @ a[:, enter]
            start, width = start + width, 2 * width
        if enter is None:
            # artificial n + i has reduced cost 1 - sign_i (pi S)_i / det
            enter = next((n + i for i, (s, p) in enumerate(zip(sign, pi.tolist()))
                          if s * p > det), None)
            if enter is None:
                break
            u = tab[:, enter - n] * sign[enter - n]
        us, xs, leave = u.tolist(), tab[:, m].tolist(), None
        for i in range(m):
            if us[i] > 0 and (leave is None or (xs[i] * us[leave], basis[i])
                              < (xs[leave] * us[i], basis[leave])):
                leave = i
        if leave is None:
            raise AssertionError("phase-one objective is bounded; unbounded pivot")
        pivot = tab[leave].copy()
        tab = (tab * us[leave] - u[:, None] * pivot) // det
        tab[leave] = pivot
        det = us[leave]
        basis[leave] = enter
        artificial[leave] = enter >= n
    xs = tab[:, m].tolist()
    if not any(xs[i] for i, var in enumerate(basis) if var >= n):
        coeffs = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                coeffs[var] = Fraction(xs[i], det * scale)
        return "feasible", coeffs
    return "infeasible", [Fraction(p, det) for p in pi.tolist()]


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
        status, payload = _phase_one(generators.matrix, generators.col_sum,
                                     [rhs.get(k, 0) for k in generators.classes])
        if status == "feasible":
            used = tuple((generators.triples[idx], coeff / f.edge_count)
                         for idx, coeff in enumerate(payload) if coeff)
        else:
            witness = {k: y for k, y in zip(generators.classes, payload) if y != 0}
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
    y.e(F)(target - z) > 0 and y.A <= 0 for the generator matrix A of
    `enumerate_generators`, one integer product (entries of y on classes
    outside its rows meet no generator).  The class table and, for a not-good
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
    generators = enumerate_generators(f)
    a, ys = generators.matrix, [y.get(k, 0) for k in generators.classes]
    # int64 while no product can leave it, as `_phase_one` switches
    dtype = np.int64 if max(map(abs, ys), default=0) * generators.col_sum < 2**63 else object
    return bool((np.array(ys, dtype=dtype) @ a.astype(dtype, copy=False) <= 0).all())


@lru_cache(maxsize=None)
def _orbit_minima(n: int) -> np.ndarray:
    """For each n-vertex edge mask (bit i for the i-th pair of
    combinations(range(n), 2)), the least mask of its orbit under
    relabelling, as one read-only array of 2^C(n,2) entries: int32 while
    every mask fits (up to 8 vertices), int64 above.

    Min-label propagation with pointer jumping: S_n is generated by the
    transposition (0 1) and the n-cycle, so each pass lowers every label to
    the least of its own and its images' labels under both, then follows
    labels to their own labels, until nothing changes.  Labels stay in
    their orbit, and a generator of finite order carries the least label
    round each of its cycles, so the fixed point is the orbit minimum.
    Each image array is built bit by bit, so memory stays a few arrays of
    2^C(n,2) entries.
    """
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int32 if len(pairs) < 32 else np.int64)
    images = []
    for perm in ((1, 0, *range(2, n)), (*range(1, n), 0)):
        image = np.zeros_like(masks)
        for i, (u, v) in enumerate(pairs):
            image |= (masks >> i & 1) << index[min(perm[u], perm[v]), max(perm[u], perm[v])]
        images.append(image)
    label = masks
    while True:
        least = label
        for image in images:
            label = np.minimum(label, label[image])
        label = label[label]
        if np.array_equal(label, least):
            break
    label.flags.writeable = False
    return label


def binomial_inequality_check(t: GluingTemplate, max_g_vertices: int, extra_graphs=(),
                              budget: int = DEFAULT_WORK_BUDGET) -> dict:
    """Check t(J,G) >= t(F,G)^(e(J)/e(F)) over all labelled graphs G on up
    to max_g_vertices vertices (plus any extra graphs), with exact
    homomorphism counts.

    Needs a candidate graph, extra graphs of at least one vertex, and a
    good `t`, decided by `check_good` within `budget`; ValueError otherwise.
    Then the 2^C(n,2) labelled graphs of each vertex count n are charged
    against `budget`.  Relabelled graphs have equal hom counts, so each
    vertex count is scored on the least mask of each orbit
    (`_orbit_minima`; bit i for the i-th pair of combinations(range(n), 2),
    as `all_labelled_graphs` orders them), weighted by its orbit size, and
    the extra graphs follow as given, in runs on one vertex count of at
    most _BATCH masks.  A run's hom counts of J and of F are one batched
    contraction each over its adjacency stack, charged per graph against
    `budget`.  With e(J)/e(F) = a/b in lowest terms, the exact comparison on
    an n-vertex G is the integer inequality
    hom(J,G)^b n^(v(F) a) >= hom(F,G)^a n^(v(J) b).
    Reports the minimum floating slack, the first graph attaining it (an
    orbit's least mask comes first in its orbit), whether the exact
    comparison held everywhere, and the number of graphs it covers.
    """
    extra_graphs = list(extra_graphs)
    if max_g_vertices < 1 and not extra_graphs:
        raise ValueError("binomial inequality check needs at least one candidate graph")
    if any(g.vertex_count < 1 for g in extra_graphs):
        raise ValueError("binomial inequality check needs extra graphs with at least one vertex")
    if check_good(t, budget).verdict != "good":
        raise ValueError("binomial inequality applies to certified-good templates")
    for n in range(1, max_g_vertices + 1):
        if 1 << n * (n - 1) // 2 > budget:
            raise BudgetExceededError(
                f"binomial_inequality_check: the {n}-vertex candidates are "
                f"{1 << n * (n - 1) // 2} labelled graphs, budget {budget}")
    j, _ = build_j(t)
    f = t.base
    ratio = Fraction(j.edge_count, f.edge_count)
    a, bb = ratio.numerator, ratio.denominator
    min_slack = argmin = None
    checked, exact_ok = 0, True

    def orbits(n):
        sizes = np.bincount(_orbit_minima(n))
        least = np.flatnonzero(sizes)
        return zip(least.tolist(), sizes[least].tolist())

    candidates = chain(((n, m, size) for n in range(1, max_g_vertices + 1)
                        for m, size in orbits(n)),
                       ((g.vertex_count, sum(1 << i for i, p in enumerate(
                           combinations(range(g.vertex_count), 2)) if p in g.edges), 1)
                        for g in extra_graphs))
    for n, run in groupby(candidates, key=lambda c: c[0]):
        while batch := list(islice(run, _BATCH)):
            adj = _mask_adjacency(n, [m for _, m, _ in batch])
            hom_j = _hom_counts(j, adj, budget, "binomial_inequality_check")
            hom_f = _hom_counts(f, adj, budget, "binomial_inequality_check")
            vj, vf = n**j.vertex_count, n**f.vertex_count
            for (_, mask, size), hj, hf in zip(batch, hom_j, hom_f):
                if hj**bb * vf**a < hf**a * vj**bb:
                    exact_ok = False
                slack = hj / vj - (hf / vf) ** (a / bb)
                checked += size
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

    def part(g, r):
        # strictly increasing, as `certificate_to_json` writes each part
        vertices = _json_shaped(g[r], [int], f"generator {r!r}")
        if any(a >= b for a, b in zip(vertices, vertices[1:])):
            raise ValueError(f"generator {r!r}: expected strictly increasing vertices, "
                             f"found {vertices!r}")
        return tuple(vertices)

    try:
        gens = tuple(
            (tuple(part(g, r) for r in ("r1", "r2", "r3")),
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
