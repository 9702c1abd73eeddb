import functools
import hashlib
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from homcommon.graphons import StepKernel, sample_graphon
from homcommon.graphs import Graph


@pytest.fixture(scope="session")
def graphon_suite():
    """The seeded 100-graphon sample suite shared across test modules."""
    return [sample_graphon(seed, 4) for seed in range(100)]


@pytest.fixture(scope="session")
def small_suite(graphon_suite):
    return graphon_suite[:20]


@pytest.fixture
def kernel_builds(monkeypatch):
    """A one-item list that counts the `StepKernel`s built from here on."""
    count = [0]
    validate = StepKernel.__post_init__

    def counted(self):
        count[0] += 1
        validate(self)

    monkeypatch.setattr(StepKernel, "__post_init__", counted)
    return count


def digest(value) -> str:
    """The first 16 hex digits of the SHA-256 of repr(value): a pin of the
    bits of the floats in `value`, since repr round-trips each float."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@st.composite
def small_graphs(draw, max_vertices):
    """Hypothesis strategy: any labelled graph on 0..max_vertices vertices."""
    n = draw(st.integers(0, max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


# Reference class vectors, sharing no class table with homcommon: a class
# vector is a dict from class key to nonzero `Fraction`, and the class key of
# a subset is the least sorted tuple among its images under the
# edge-preserving permutations of V(F), found by trying all v(F)! of them.


@functools.cache
def brute_force_classes(f: Graph) -> dict[frozenset, tuple[int, ...]]:
    """Every subset of V(f) mapped to its class key."""
    n = f.vertex_count
    perms = [p for p in permutations(range(n))
             if {tuple(sorted((p[u], p[v]))) for u, v in f.edges} == f.edges]
    return {frozenset(s): min(tuple(sorted(p[v] for v in s)) for p in perms)
            for r in range(n + 1) for s in combinations(range(n), r)}


def unit(f: Graph, s) -> dict:
    """e(s), the unit vector of the class of s (the zero vector for s empty)."""
    key = brute_force_classes(f)[frozenset(s)]
    return {key: Fraction(1)} if key else {}


def combination(terms) -> dict:
    """sum(c * vector) over the (c, vector) terms."""
    out = {}
    for c, vec in terms:
        for k, v in vec.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def reference_x(f: Graph, r1, r2, r3) -> dict:
    """e(r1|r2|r3) - e(r2|r3) - e(r1|r2) + e(r2)."""
    r1, r2, r3 = set(r1), set(r2), set(r3)
    return combination([(1, unit(f, r1 | r2 | r3)), (-1, unit(f, r2 | r3)),
                        (-1, unit(f, r1 | r2)), (1, unit(f, r2))])


def reference_z(t) -> dict:
    """The node subsets' unit vectors minus the edge subsets'."""
    return combination([(1, unit(t.base, s)) for s in t.psi_nodes]
                       + [(-1, unit(t.base, s)) for _, s in t.psi_edges])


def dot(a: dict, b: dict) -> Fraction:
    return sum((v * b[k] for k, v in a.items() if k in b), Fraction(0))
