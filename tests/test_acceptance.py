"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned in homcommon.acceptance: exact identities at 1e-10,
sampled inequalities at 1e-9, balance equations at 1e-12, the binomial
inequality exact in rational arithmetic.  The sampled criteria (1-4 and
the gap sweep in 8) are evidence for universally quantified statements,
not proofs; the LP certificates and rational hom-count comparisons in
5-7 and 11 are exact at their stated scale.
"""

import pytest

from homcommon import acceptance


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
