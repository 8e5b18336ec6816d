"""The determinism contract: every golden run's digest equals the committed one.

``tests/golden.py`` holds the run matrix and refreshes the digests.
"""

from .golden import compute, mismatches


def test_golden_digests_match():
    assert mismatches(compute()) == []
