"""Cross-version byte identity: every golden case writes the recorded bytes.

A failure names the argv and the first of exit code, `out`'s presence,
stdout, stderr or artifact that differs. The records change only through
`python tests/golden.py --update`, after a deliberate format change.
"""

import shlex
import sys
from pathlib import Path

import pytest

import golden
from electronlab import cli

BY_ARGV = {shlex.join(case["argv"]): case for case in golden.load()}


@pytest.mark.parametrize("case", BY_ARGV.values(), ids=list(BY_ARGV))
def test_run_writes_its_golden_bytes(case):
    difference = golden.first_difference(case["argv"], case["record"],
                                         golden.record(case["argv"]))
    assert difference is None, difference


def test_the_command_check_reruns_the_records_through_the_script(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).parents[1] / "src"))
    command = [sys.executable, "-m", "electronlab.cli"]
    refused = BY_ARGV["budget --resolution-pm 1e-320"]
    assert golden.check([BY_ARGV["epr --chsh --angles 0,45,22.5,67.5"], refused], command) == 0
    assert golden.check([{**refused, "record": {**refused["record"], "stderr": "0" * 64}}],
                        command) == 1
    assert "budget --resolution-pm 1e-320: stderr differs" in capsys.readouterr().out.split("\n")


def test_a_refused_run_that_leaves_an_empty_out_differs(monkeypatch):
    run = cli.run
    monkeypatch.setattr(cli, "run", lambda config: Path(config["out"]).mkdir() or run(config))
    case = BY_ARGV["budget --band-energy-mev 5e-324"]  # refused inside run, by the library
    assert golden.first_difference(case["argv"], case["record"], golden.record(case["argv"])) \
        == "budget --band-energy-mev 5e-324: out differs"
