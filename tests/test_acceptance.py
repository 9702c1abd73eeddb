"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned in homcommon.acceptance: exact identities at 1e-10,
sampled inequalities at 1e-9, balance equations at 1e-12, the binomial
inequality exact in rational arithmetic.  The sampled criteria (1-4 and
the gap sweep in 8) are evidence for universally quantified statements,
not proofs; the LP certificates and rational hom-count comparisons in
5-7 and 11 are exact at their stated scale.
"""

import math

import pytest

from homcommon import acceptance
from homcommon.graphons import density, sample_graphon, sample_kernel
from homcommon.graphs import make_family
from homcommon.identities import strongly_common_gap


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA])
def test_acceptance_criterion(criterion):
    result = criterion()
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[{status}] criterion {result['name']}: {result['detail']}")
    assert result["passed"], f"criterion {result['name']}: {result['detail']}"


def test_criterion_8_requires_the_cubic_fit(monkeypatch):
    from homcommon import commonness
    monkeypatch.setattr(commonness, "_fit_cubic", lambda fn, lo, hi, points=7: [0.0] * 4)
    assert not commonness.dk3k2_verify(pair_gap_seeds=range(2))["passed"]
    assert not acceptance.criterion_8_dk3k2()["passed"]


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
    assert batched(kernels).hex() == loop(kernels).hex()
