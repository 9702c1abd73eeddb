import pytest

from homcommon.graphs import Graph, make_family
from homcommon.graphons import (StepKernel, constant_kernel, density,
                                one_minus, sample_graphon, sample_kernel)
from homcommon.identities import (BudgetExceededError, c5_goodman_residual,
                                  expansion_residual, goodman_residual,
                                  strongly_common_gap, supersaturation_gap)

K2 = make_family("path", 2)
P3 = make_family("path", 3)
K3 = make_family("complete", 3)
C5 = make_family("cycle", 5)
D = make_family("complete_minus_edge", 4)

IDENTITY_TOL = 1e-10


def test_expansion_residual_trivial_cases():
    w = sample_graphon(11, 4)
    assert abs(expansion_residual(K2, w, 0.7)) < 1e-12
    assert abs(expansion_residual(K3, constant_kernel(0.5), 0.5)) < 1e-12
    assert abs(expansion_residual(C5, sample_graphon(7, 4), 0.3)) < IDENTITY_TOL


def test_expansion_residual_suite(small_suite):
    k4 = make_family("complete", 4)
    for w in small_suite:
        shifts = (0.0, 0.3, density(K2, w), 1.0)
        for h in (K2, P3, K3, make_family("path", 4), C5, D, k4):
            for p in shifts:
                assert abs(expansion_residual(h, w, p)) < IDENTITY_TOL


def test_expansion_residual_charges_edge_subsets():
    big = make_family("complete", 6)  # 15 edges: 2^15 subsets
    with pytest.raises(BudgetExceededError, match="expansion_residual") as exc:
        expansion_residual(big, constant_kernel(0.5), 0.5, budget=2**15 - 1)
    assert str(2**15 - 1) in str(exc.value)


def test_expansion_residual_thirteen_edges():
    # K6 minus two disjoint edges: 2^13 subsets, within the default budget
    h = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                             if (u, v) not in ((0, 1), (2, 3))])
    assert h.edge_count == 13
    assert abs(expansion_residual(h, constant_kernel(0.5), 0.3)) < IDENTITY_TOL


def test_goodman_residual():
    for p in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert abs(goodman_residual(constant_kernel(p))) < 1e-12
    # 2-block bipartite graphon: t(K3) vanishes on one side
    w = StepKernel((0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)), graphon=True)
    assert density(K3, w) == 0.0
    assert abs(goodman_residual(w)) < 1e-12
    with pytest.raises(ValueError):
        goodman_residual(sample_kernel(0, 3))


def test_goodman_residual_suite(graphon_suite):
    assert max(abs(goodman_residual(w)) for w in graphon_suite) < IDENTITY_TOL


def test_c5_residual():
    for p in (0.0, 0.3, 0.5, 1.0):
        assert abs(c5_goodman_residual(constant_kernel(p))) < 1e-12
    with pytest.raises(ValueError):
        c5_goodman_residual(sample_kernel(0, 3))


def test_c5_residual_suite(graphon_suite):
    assert max(abs(c5_goodman_residual(w)) for w in graphon_suite) < IDENTITY_TOL


def test_strongly_common_gap_basics():
    assert abs(strongly_common_gap(K3, constant_kernel(0.35))) < 1e-12
    with pytest.raises(ValueError):
        strongly_common_gap(Graph(3, frozenset()), constant_kernel(0.5))


def test_strongly_common_odd_cycles(graphon_suite):
    for m in (3, 5, 7):
        cm = make_family("cycle", m)
        assert min(strongly_common_gap(cm, w) for w in graphon_suite) >= -1e-9


def test_strongly_common_odd_cycles_kernel_form():
    kernels = [sample_kernel(s, 4, -1.0, 2.0) for s in range(100)]
    for m in (3, 5, 7):
        cm = make_family("cycle", m)
        assert min(strongly_common_gap(cm, w) for w in kernels) >= -1e-9


def test_k3_gap_matches_rearranged_identity(graphon_suite):
    for w in graphon_suite[:40]:
        wc = one_minus(w)
        expect = (1.5 * (density(P3, w) - density(K2, w) ** 2)
                  + 1.5 * (density(P3, wc) - density(K2, wc) ** 2))
        assert strongly_common_gap(K3, w) == pytest.approx(expect, abs=IDENTITY_TOL)


def test_supersaturation_gap(graphon_suite):
    assert supersaturation_gap(constant_kernel(0.5)) == pytest.approx(0.125, abs=1e-15)
    assert supersaturation_gap(constant_kernel(1.0)) == pytest.approx(0.0, abs=1e-15)
    assert min(supersaturation_gap(w) for w in graphon_suite) >= -1e-9
