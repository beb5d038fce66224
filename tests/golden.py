"""Golden digests of whole CLI runs, kept in golden_artifacts.json.

Each case is one argv, run in-process in an empty working directory with
`--out out`. Its record is the exit code and the sha256 of stdout, of
stderr and of every file under `out`, keyed by the file's path, so the
record covers every artifact's name and bytes. `test_golden.py` reruns
every case and names the first part that differs.

The records change only through the update command, after a deliberate
change to what the CLI writes:

    PYTHONPATH=src python tests/golden.py --update

To add a case, add its argv to the JSON file with an empty record and
run the update.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from electronlab.cli import main

CASES = Path(__file__).with_name("golden_artifacts.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str]) -> dict:
    """Exit code and sha256 digests of one run of `argv` with `--out out`."""
    cwd = os.getcwd()
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv + ["--out", "out"])
            files = {path.as_posix(): _sha256(path.read_bytes())
                     for path in sorted(Path("out").rglob("*")) if path.is_file()}
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode()),
            "stderr": _sha256(stderr.getvalue().encode()), **files}


def first_difference(argv: list[str], expected: dict, actual: dict) -> str | None:
    """`None` when the records agree, else the argv and the first part that differs."""
    files = sorted(part for part in {**expected, **actual} if part.startswith("out/"))
    for part in ["exit", "stdout", "stderr", *files]:
        if expected.get(part) != actual.get(part):
            state = ("missing" if part not in actual else "unexpected" if part not in expected
                     else "differs")
            return f"{shlex.join(argv)}: {part} {state}"
    return None


def load() -> list[dict]:
    return json.loads(CASES.read_text(encoding="utf-8"))


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--update", action="store_true", required=True,
                        help="rewrite every record from the current code")
    parser.parse_args(argv)
    cases = load()
    for case in cases:
        case["record"] = record(case["argv"])
    CASES.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} records to {CASES}")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
