"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned in homcommon.acceptance: exact identities at 1e-10,
sampled inequalities at 1e-9, balance equations at 1e-12, the binomial
inequality exact in rational arithmetic.  The sampled criteria (1-4 and
the pair-gap spot check that criterion 8 runs beside `dk3k2_verify`) are
evidence for universally quantified statements, not proofs; the LP
certificates and rational hom-count comparisons in 5-7 and 11 are exact
at their stated scale, and so are criterion 8's threshold claims, in
Q(sqrt 10), and criterion 9, over Q.
Mutants of `exact`, each with one constant changed in its source,
check that criteria 8 and 9 fail on a change no float could represent.
"""

import inspect
import math
import sys
import types

import pytest

from homcommon import acceptance, commonness, data, exact
from homcommon.graphons import density, kernel_arrays, sample_graphon, sample_kernel
from homcommon.graphs import INEQUALITY_TOL, make_family
from homcommon.identities import strongly_common_gap


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA])
def test_acceptance_criterion(criterion):
    result = criterion()
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[{status}] criterion {result['name']}: {result['detail']}")
    assert result["passed"], f"criterion {result['name']}: {result['detail']}"


def _mutant(monkeypatch, old: str, new: str) -> types.ModuleType:
    """`exact` with the one occurrence of `old` in its source replaced by
    `new`, run as a module of its own; criteria 8 and 9 call its verifiers."""
    source = inspect.getsource(exact)
    assert source.count(old) == 1
    mutant = types.ModuleType("homcommon.mutant")
    mutant.__package__ = "homcommon"
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)  # dataclasses look it up
    exec(compile(source.replace(old, new), exact.__file__, "exec"), vars(mutant))
    for name in ("dk3k2_verify", "appendix_convexity_verify"):
        monkeypatch.setattr(acceptance, name, getattr(mutant, name))
    return mutant


_TINY = " + Fraction(1, 10**20)"  # below the resolution of a float near each constant
CRITERION_8_MUTANTS = {
    "threshold": ("QSqrt10(Fraction(7, 60), Fraction(1, 30))",
                  f"QSqrt10(Fraction(7, 60){_TINY}, Fraction(1, 30))"),
    "y1_coefficient": ("(5 * p**4 / (8 * q**3))", f"(5 * p**4 / (8 * q**3){_TINY})"),
    "crossover": ("Fraction(-425, 246)", "Fraction(-424, 246)"),
}


def test_an_unmutated_copy_passes(monkeypatch):
    mutant = _mutant(monkeypatch, "def dk3k2_verify(", "def dk3k2_verify(")
    assert mutant.dk3k2_verify()["passed"]
    assert acceptance.criterion_9_appendix()["passed"]


@pytest.mark.parametrize("mutation", CRITERION_8_MUTANTS)
def test_criterion_8_rejects_a_mutant(monkeypatch, mutation):
    mutant = _mutant(monkeypatch, *CRITERION_8_MUTANTS[mutation])
    assert not mutant.dk3k2_verify()["passed"]
    assert not acceptance.criterion_8_dk3k2()["passed"]


def test_criterion_8_spot_checks_the_pair_gap(monkeypatch):
    # the sampled evidence at the float threshold is criterion 8's, not the verifier's
    spec = commonness.CommonPairSpec(make_family("complete_minus_edge", 4),
                                     data.load_graph("k3_plus_k2"), commonness.P_DIAMOND_PAIR)
    worst = commonness.min_pair_gap(spec, range(100))
    result = acceptance.criterion_8_dk3k2()
    assert result["passed"] and worst >= -INEQUALITY_TOL
    assert result["detail"].endswith(f"min pair gap = {worst:.3e}")
    monkeypatch.setattr(acceptance, "min_pair_gap", lambda spec, seeds: -2 * INEQUALITY_TOL)
    assert not acceptance.criterion_8_dk3k2()["passed"]


def test_criterion_9_rejects_a_wrong_expected_value(monkeypatch):
    mutant = _mutant(monkeypatch, "expected = p1 / e1 + p2 / e2",
                     f"expected = p1 / e1 + p2 / e2{_TINY}")
    assert not mutant.appendix_convexity_verify(make_family("complete", 3),
                                                1, 1, 0, 0, 0.5)["passed"]
    assert not acceptance.criterion_9_appendix()["passed"]


def _strongly_common_loop(kernels):
    worst = math.inf
    for m in (3, 5, 7):
        for w in kernels:
            worst = min(worst, strongly_common_gap(make_family("cycle", m), w))
    return worst


def _path_slack_loop(kernels):
    worst = math.inf
    for w in kernels:
        t = {k: density(make_family("path", k), w) for k in (1, 2, 3, 4, 5)}
        worst = min(worst, t[1] ** 3 * t[5] - t[2] ** 4, t[1] * t[5] ** 3 - t[4] ** 4,
                    t[3] * t[5] - t[4] ** 2, t[5] - t[2] * t[4])
    return worst


@pytest.mark.parametrize("batched, loop", [
    (acceptance._strongly_common_min, _strongly_common_loop),
    (acceptance._path_slack_min, _path_slack_loop),
], ids=["criterion 3", "criterion 4"])
@pytest.mark.parametrize("sample", [sample_graphon, sample_kernel])
def test_criteria_3_and_4_minima_match_the_per_graphon_loop(batched, loop, sample):
    kernels = [sample(s) for s in range(100)]
    assert batched([kernel_arrays(w) for w in kernels]).hex() == loop(kernels).hex()
