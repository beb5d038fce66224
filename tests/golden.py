"""Golden digests of whole CLI runs, kept in golden_artifacts.json.

Each case is one argv, run in an empty working directory with `--out out`.
Its record is the exit code, whether `out` exists, and the sha256 of
stdout, of stderr and of every file under `out`, keyed by the file's path,
so the record covers every artifact's name and bytes. `test_golden.py`
reruns every case in process and names the first part that differs; the
check command does so through a command in a subprocess, exiting 1 on any:

    python tests/golden.py --command electronlab

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
import subprocess
import sys
import tempfile
from pathlib import Path

from electronlab.cli import main

CASES = Path(__file__).with_name("golden_artifacts.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], command: list[str] | None, cwd: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `main(argv)`, or of `command + argv` in a subprocess."""
    if command is not None:
        env = dict(os.environ)
        if "PYTHONPATH" in env:  # relative to this working directory, not to `cwd`
            env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath,
                                                    env["PYTHONPATH"].split(os.pathsep)))
        run = subprocess.run(command + argv, cwd=cwd, env=env, capture_output=True)
        return run.returncode, run.stdout, run.stderr
    back, stdout, stderr = os.getcwd(), io.StringIO(), io.StringIO()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(back)
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def record(argv: list[str], command: list[str] | None = None) -> dict:
    """Exit code, `out`'s presence and sha256 digests of one run of `argv` with `--out out`."""
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr = _run(argv + ["--out", "out"], command, tmp)
        out = Path(tmp, "out")
        files = {path.relative_to(tmp).as_posix(): _sha256(path.read_bytes())
                 for path in sorted(out.rglob("*")) if path.is_file()}
        return {"exit": code, "out": out.exists(), "stdout": _sha256(stdout),
                "stderr": _sha256(stderr), **files}


def first_difference(argv: list[str], expected: dict, actual: dict) -> str | None:
    """`None` when the records agree, else the argv and the first part that differs."""
    files = sorted(part for part in {**expected, **actual} if part.startswith("out/"))
    for part in ["exit", "out", "stdout", "stderr", *files]:
        if expected.get(part) != actual.get(part):
            state = ("missing" if part not in actual else "unexpected" if part not in expected
                     else "differs")
            return f"{shlex.join(argv)}: {part} {state}"
    return None


def load() -> list[dict]:
    return json.loads(CASES.read_text(encoding="utf-8"))


def check(cases: list[dict], command: list[str]) -> int:
    """Rerun each case through `command` and print each first difference; 1 if any, else 0."""
    failed = [difference for case in cases if (difference := first_difference(
        case["argv"], case["record"], record(case["argv"], command)))]
    print(*failed, f"{len(cases) - len(failed)} of {len(cases)} records agree", sep="\n")
    return 1 if failed else 0


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", action="store_true",
                      help="rewrite every record from the current code")
    mode.add_argument("--command", help="check every record against this command's runs")
    args = parser.parse_args(argv)
    cases = load()
    if args.command:
        return check(cases, shlex.split(args.command))
    for case in cases:
        case["record"] = record(case["argv"])
    CASES.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} records to {CASES}")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
