"""Acceptance battery: every numbered criterion, one line per result.

Each test invokes the shared implementation in :mod:`pleatlab.suite`
(the same records back ``pleatlab verify-suite``) and prints its
pass/fail line immediately, so a full run shows twelve status lines.
"""

import pytest

from pleatlab import suite


@pytest.mark.parametrize(
    "index,name,description",
    [(i, name, desc) for i, (name, desc, _) in enumerate(suite.CRITERIA, start=1)],
    ids=[name for name, _, _ in suite.CRITERIA],
)
def test_acceptance_criterion(index, name, description, capsys):
    (record,) = suite.run_suite([name])
    status = "PASS" if record["passed"] else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] {index:2d} {name}: {description}")
    assert record["passed"], record["details"]


@pytest.mark.parametrize("seed_offset", [1, 7, 42, 137, 199])
def test_solver_criteria_at_seed_offsets(seed_offset):
    """The Newton-driven criteria stay green away from the pinned seeds."""
    records = suite.run_suite(["newton", "posdef"], seed_offset=seed_offset)
    assert [r["name"] for r in records] == ["posdef", "newton"]
    for record in records:
        assert record["passed"], (record["name"], record["details"])


@pytest.mark.parametrize("seed_offset", [3, 58, 171])
def test_batched_criteria_at_seed_offsets(seed_offset):
    """The block-drawn and batch-certified criteria stay green away from
    the pinned seeds."""
    records = suite.run_suite(["lift", "volume"], seed_offset=seed_offset)
    assert [r["name"] for r in records] == ["lift", "volume"]
    for record in records:
        assert record["passed"], (record["name"], record["details"])


@pytest.mark.parametrize("seed_offset", range(200))
def test_doubling_criteria_at_seed_offsets(seed_offset):
    """The criteria built on the doubled stack stay green at every seed
    offset verify-suite is run at.  (cuspmodel, the other doubling
    criterion, samples nothing.)"""
    names = ["relations", "cone", "mirror"]
    records = suite.run_suite(names, seed_offset=seed_offset)
    assert [r["name"] for r in records] == names
    for record in records:
        assert record["passed"], (record["name"], record["details"])


def test_every_criterion_at_spread_seed_offsets():
    """All twelve criteria pass at ten seed offsets spread over [1, 200)."""
    for seed_offset in range(1, 200, 22):
        for record in suite.run_suite(seed_offset=seed_offset):
            assert record["passed"], (seed_offset, record["name"], record["details"])
