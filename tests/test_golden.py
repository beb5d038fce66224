"""Cross-version byte identity: every golden case writes the recorded bytes.

A failure names the argv and the first of exit code, stdout, stderr or
artifact that differs. The records change only through
`python tests/golden.py --update`, after a deliberate format change.
"""

import shlex

import pytest

import golden

CASES = golden.load()


@pytest.mark.parametrize("case", CASES, ids=[shlex.join(c["argv"]) for c in CASES])
def test_run_writes_its_golden_bytes(case):
    difference = golden.first_difference(case["argv"], case["record"],
                                         golden.record(case["argv"]))
    assert difference is None, difference
