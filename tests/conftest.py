from itertools import combinations

import pytest
from hypothesis import strategies as st

from homcommon.graphons import sample_graphon
from homcommon.graphs import Graph


@pytest.fixture(scope="session")
def graphon_suite():
    """The seeded 100-graphon sample suite shared across test modules."""
    return [sample_graphon(seed, 4) for seed in range(100)]


@pytest.fixture(scope="session")
def small_suite(graphon_suite):
    return graphon_suite[:20]


@st.composite
def small_graphs(draw, max_vertices):
    """Hypothesis strategy: any labelled graph on 0..max_vertices vertices."""
    n = draw(st.integers(0, max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])
