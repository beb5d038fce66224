"""Tests for the benchmark itself: tracer arithmetic, output checker, tables.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Entry, Span, Tracer, covered  # noqa: E402
from electronlab import cli  # noqa: E402


# --- tracer ----------------------------------------------------------------

def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(6.0)
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(2.0, 4.0), (2.5, 3.0)]) == pytest.approx(2.0)


def test_self_time_subtracts_only_direct_children():
    tracer = Tracer()
    tracer.spans = [Span("run", 0.0, 10.0, None, 1, 0),
                    Span("physics", 1.0, 4.0, 0, 1, 1),
                    Span("kernel", 2.0, 3.0, 1, 1, 2),
                    Span("io", 6.0, 8.5, 0, 1, 3)]
    assert tracer.self_time(tracer.spans[0]) == pytest.approx(10.0 - 3.0 - 2.5)
    assert tracer.self_time(tracer.spans[1]) == pytest.approx(2.0)
    assert tracer.self_time(tracer.spans[2]) == pytest.approx(1.0)


def test_installed_traces_aliases_restores_originals_and_records_absent():
    import types

    def work(n):
        return list(range(n))

    owner = types.SimpleNamespace(__name__="owner", work=work)
    alias = types.SimpleNamespace(__name__="alias", work=work)
    tracer = Tracer()
    entries = [Entry(owner, "work", "owner.work", lambda a, k, r: {"items": len(r)},
                     aliases=(alias,)),
               Entry(owner, "missing", "owner.missing")]
    with tracer.installed(entries):
        with tracer.span("outer"):
            alias.work(3)
            owner.work(2)
    assert owner.work is work and alias.work is work
    assert tracer.absent == {"owner.missing": "entry point owner.missing not found"}
    outer, first, second = tracer.spans
    assert (first.parent, second.parent) == (outer.index, outer.index)
    assert [first.counters["items"], second.counters["items"]] == [3, 2]
    assert tracer.self_time(outer) == pytest.approx(
        outer.duration - first.duration - second.duration)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 31)]) == (66, 20.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([1.0, 2.0, 3.0]) == (100, 3.0)


# --- output checker --------------------------------------------------------

def _sterngerlach_artifacts(tmp_path, shape="linear"):
    inv = workloads._sterngerlach(random.Random(7), shape, 0.05, 1e-3, 1)
    assert cli.main(inv.argv + ["--out", str(tmp_path)]) == 0
    return inv


def _rewrite_csv_from_json(out: Path, name: str):
    payload = json.loads((out / f"{name}.json").read_text())
    csv = out / f"{name}.csv"
    header = [line for line in csv.read_text().splitlines() if line.startswith("#")]
    lines = header + [",".join(payload["columns"])]
    lines += [",".join(repr(float(row[c])) for c in payload["columns"]) for row in payload["rows"]]
    csv.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("shape", ["linear", "cosine"])
def test_checker_accepts_real_artifacts(tmp_path, shape):
    inv = _sterngerlach_artifacts(tmp_path, shape)
    result = check.check("trajectory", tmp_path, inv.expect)
    assert result["rows"] == inv.expect["rows"] == 51
    assert result["max_err"] < 1e-8   # RK4 truncation at dt = 1e-3


def test_checker_rejects_nan_token(tmp_path):
    inv = _sterngerlach_artifacts(tmp_path)
    path = tmp_path / "sterngerlach_trajectory.json"
    text = re.sub(r'"ex": [^,]+,', '"ex": NaN,', path.read_text(), count=1)
    path.write_text(text)
    with pytest.raises(check.CheckError, match="non-RFC-8259 token 'NaN'"):
        check.check("trajectory", tmp_path, inv.expect)


def test_checker_rejects_wrong_closed_form_value(tmp_path):
    inv = _sterngerlach_artifacts(tmp_path)
    path = tmp_path / "sterngerlach_trajectory.json"
    payload = json.loads(path.read_text())
    # turn one row about the field axis: still unit length, same e . b
    b = inv.expect["bdir"]
    row = payload["rows"][20]
    e = (row["ex"], row["ey"], row["ez"])
    angle = 1e-4
    bxe = check._cross(b, e)
    be = check._dot(b, e)
    turned = [e[i] * math.cos(angle) + bxe[i] * math.sin(angle)
              + b[i] * be * (1.0 - math.cos(angle)) for i in range(3)]
    row["ex"], row["ey"], row["ez"] = turned
    path.write_text(json.dumps(payload, indent=2))
    _rewrite_csv_from_json(tmp_path, "sterngerlach_trajectory")
    with pytest.raises(check.CheckError, match="closed-form rotation"):
        check.check("trajectory", tmp_path, inv.expect)


def test_checker_rejects_csv_that_differs_from_json(tmp_path):
    inv = _sterngerlach_artifacts(tmp_path)
    csv = tmp_path / "sterngerlach_trajectory.csv"
    lines = csv.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[0] = repr(float(cells[0]) * (1 + 1e-15))
    lines[-1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(check.CheckError, match="differs from its JSON mirror"):
        check.check("trajectory", tmp_path, inv.expect)


def test_checker_profile_and_singles_on_small_runs(tmp_path):
    rng = random.Random(3)
    prof = workloads.profile(rng)
    argv = [a if not a.startswith("--points=") else "--points=50" for a in prof.argv]
    assert cli.main(argv + ["--out", str(tmp_path / "p")]) == 0
    assert check.check("profile", tmp_path / "p", {**prof.expect, "points": 50})["rows"] == 50

    single = workloads.singles(rng)
    argv = [a if not a.startswith("--n=") else "--n=100000" for a in single.argv]
    assert cli.main(argv + ["--out", str(tmp_path / "s")]) == 0
    assert abs(check.check("singles", tmp_path / "s", {**single.expect, "n": 100000})["z"]) < 6


# --- benchmark definition --------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == PER_LAYER
