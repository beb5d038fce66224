"""End-to-end CLI runs: artifacts, contracts, error surfacing."""

import contextlib
import errno
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electronlab import __version__, cli
from electronlab.cli import main
from electronlab.config import MAX_ROWS, REGISTRY, SUBCOMMANDS, parse_config
from electronlab.electron_model import PROFILE_COLUMNS, PlaneWaveElectron, profile_rows
from electronlab.errors import DomainError
from electronlab.spin_dynamics import LLParams, SpinState, cosine_ramp, integrate, linear_ramp


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def table_texts(config, columns, rows, **header):
    """A table's JSON as json's indent=2 encoder writes it and its CSV with repr(v) cells."""
    payload = {"version": __version__, "config": config, **header,
               "columns": list(columns), "rows": [dict(zip(columns, row)) for row in rows]}
    lines = [f"# version = {__version__}"]
    lines += [f"# {key} = {cli._fmt(value)}" for key, value in config.items()]
    lines.append(",".join(columns))
    lines += [",".join(repr(v) for v in row) for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n", "\n".join(lines) + "\n"


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def _artifacts(argv, out):
    """Each file a run of `argv` writes, by name, as its text without the config echo."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == 0
    echo = r'(?ms)^#.*?\n|^  "config": \{\n.*?^  \},\n'  # CSV `#` lines, JSON "config"
    return {path.name: re.sub(echo, "", path.read_text(encoding="utf-8"))
            for path in out.iterdir()}


class TestChsh:
    def test_canonical_angles(self, tmp_path):
        code = main(["epr", "--chsh", "--angles", "0,45,22.5,67.5",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "epr_chsh.json")
        assert payload["S"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert payload["settings_deg"] == [0.0, 45.0, 22.5, 67.5]
        assert len(payload["E_matrix"]) == 2
        assert payload["version"]
        assert payload["config"]["subcommand"] == "epr"

    @pytest.mark.parametrize("phi1", ["1e16", "1e20", "640"])
    def test_an_angle_is_reduced_exactly_modulo_360(self, phi1, tmp_path):
        """1e16, 1e20 and 640 are all 280 modulo 360, so every output bit agrees."""
        payloads = []
        for angle in (phi1, "280"):
            out = tmp_path / angle
            assert main(["epr", "--chsh", "--angles", f"{angle},45,22.5,67.5",
                         "--out", str(out)]) == 0
            payloads.append(read_json(out / "epr_chsh.json"))
        assert payloads[0]["S"] == payloads[1]["S"] == 0.08528751359574582
        assert payloads[0]["E_matrix"] == payloads[1]["E_matrix"]


class TestBudget:
    def test_defaults(self, tmp_path, capsys):
        code = main(["budget", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "budget.json")
        budget = payload["budget"]
        assert abs(budget["dx_pm"] - 350.0) <= 35.0
        assert budget["contradiction"] is True
        assert budget["convention_factor"] == 0.5
        table = capsys.readouterr().out
        assert "dx_pm" in table and "contradiction" in table

    def test_convention_flag(self, tmp_path):
        main(["budget", "--convention", "1.0", "--out", str(tmp_path)])
        budget = read_json(tmp_path / "budget.json")["budget"]
        assert abs(budget["dx_pm"] - 690.1) <= 0.1


class TestElectronProfile:
    def test_csv_contract(self, tmp_path):
        code = main(["electron", "--points", "9", "--out", str(tmp_path)])
        assert code == 0
        meta, header, rows = read_csv(tmp_path / "electron_profile.csv")
        assert header == ["z", "t", "rho", "omega_kin", "omega_field", "S",
                          "psi_scalar", "psi_pseudo"]
        assert len(rows) == 9
        assert meta["version"] == __version__
        assert meta["electron.points"] == "9"
        electron = PlaneWaveElectron(rho0=1.0, u=1.0)
        for row in rows:
            z = float(row["z"])
            assert float(row["rho"]) == pytest.approx(electron.density(z, 0.0), abs=1e-15)
            # repr, the shortest string that reads back as the same double, round-trips
            assert float(row["rho"]) == electron.density(z, 0.0)

    def test_json_mirror_matches(self, tmp_path):
        main(["electron", "--points", "4", "--out", str(tmp_path)])
        payload = read_json(tmp_path / "electron_profile.json")
        _, header, rows = read_csv(tmp_path / "electron_profile.csv")
        assert payload["columns"] == header
        assert len(payload["rows"]) == len(rows) == 4
        assert payload["cohesive_potential_ev"] == -8.16
        for json_row, csv_row in zip(payload["rows"], rows):
            assert json_row["rho"] == float(csv_row["rho"])

    def test_json_only_format(self, tmp_path):
        main(["electron", "--points", "4", "--format", "json", "--out", str(tmp_path)])
        assert not (tmp_path / "electron_profile.csv").exists()
        assert (tmp_path / "electron_profile.json").exists()

    def test_degenerate_grid_rejected(self, tmp_path, capsys):
        code = main(["electron", "--points", "0", "--out", str(tmp_path)])
        assert code != 0
        assert "electron.points" in capsys.readouterr().err

    def test_helicity_flag(self, tmp_path):
        main(["electron", "--points", "5", "--helicity", "-", "--out", str(tmp_path)])
        payload = read_json(tmp_path / "electron_profile.json")
        quarter = payload["rows"][1]  # z = pi/2 at the default window: spin antinode
        assert quarter["psi_pseudo"] == pytest.approx(-1.0, rel=1e-12)


class TestEprCurveAndSingles:
    def test_curve_contract(self, tmp_path):
        code = main(["epr", "--curve", "--step-deg", "10", "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "epr_curve.csv")
        assert header == ["phi_deg", "E"]
        assert len(rows) == 36
        assert float(rows[0]["E"]) == 1.0
        assert float(rows[9]["E"]) == pytest.approx(-1.0, abs=1e-12)  # 90 degrees

    def test_curve_delta_shift(self, tmp_path):
        main(["epr", "--curve", "--step-deg", "90", "--delta-deg", "45",
              "--format", "json", "--out", str(tmp_path)])
        payload = read_json(tmp_path / "epr_curve.json")
        assert payload["rows"][0]["E"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("delta", ["1e16", "1e20"])
    def test_curve_keeps_the_residue_of_a_huge_reference_angle(self, delta, tmp_path):
        """1e16 and 1e20 are 280 modulo 360, so the rows are the bytes of --delta-deg 280."""
        runs = [_artifacts(["epr", "--curve", "--delta-deg", angle, "--step-deg", "45"],
                           tmp_path / angle) for angle in (delta, "280")]
        assert runs[0] == runs[1]
        rows = read_json(tmp_path / delta / "epr_curve.json")["rows"]
        assert len(rows) == 8
        for row in rows:
            assert abs(row["E"] - math.cos(2.0 * math.radians(row["phi_deg"] + 280.0))) <= 1e-12

    def test_singles_report(self, tmp_path):
        code = main(["epr", "--singles", "--angle", "30", "--n", "20000",
                     "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "epr_singles.json")
        assert payload["angle_deg"] == 30.0
        assert payload["n"] == 20000
        assert payload["hits"] == round(payload["rate"] * 20000)
        assert payload["stderr"] == pytest.approx(
            math.sqrt(payload["rate"] * (1 - payload["rate"]) / 20000), rel=1e-12)
        assert abs(payload["rate"] - 0.5) < 0.02


class TestSternGerlach:
    def test_trajectory_and_summary(self, tmp_path):
        code = main(["sterngerlach", "--duration", "1.5707963267948966",
                     "--dt", "1e-4", "--record-every", "100",
                     "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "sterngerlach_trajectory.csv")
        assert header == ["t", "ex", "ey", "ez", "dot_B"]
        assert float(rows[0]["dot_B"]) == 0.0
        summary = read_json(tmp_path / "sterngerlach_summary.json")
        assert summary["classification"] == "antiparallel"
        assert summary["final"]["dot_B"] == pytest.approx(-1.0, abs=1e-8)
        assert summary["ramp"]["shape"] == "linear"
        assert summary["kappa"] == 1.0

    def test_record_every_beyond_double_range_keeps_first_and_last_state(self, tmp_path):
        assert main(["sterngerlach", "--record-every", str(10 ** 400),
                     "--out", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "sterngerlach_trajectory.csv")
        summary = read_json(tmp_path / "sterngerlach_summary.json")
        assert [float(r["t"]) for r in rows] == [0.0, summary["final"]["t"]]
        assert summary["final"]["t"] > 0.0

    def test_overflow_inside_the_integration_exits_1_with_one_error_line(self, tmp_path, capsys):
        # README run at kappa = 1e300: RK4 overflows to NaN, which the final state shows
        argv = ["sterngerlach", "--kappa", "1e300", "--u", "0,0,1", "--bdir", "1,0,0",
                "--brate", "1", "--duration", "1.5707963", "--dt", "1e-4", "--ramp", "linear"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: spin direction length must lie in "
                                           "[0.999999999, 1.000000001), got nan\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("shape", ["linear", "cosine"])
    def test_artifacts_equal_rows_rebuilt_from_the_trajectory_items(self, shape, every,
                                                                     tmp_path):
        """The trajectory tables as json.dumps(indent=2) and repr write the items."""
        argv = ["sterngerlach", "--ramp", shape, "--record-every", str(every), "--kappa", "1.7",
                "--u", "0.3,-0.2,1", "--bdir", "1,0.5,-0.7", "--es0", "0.3,0.4,0.8",
                "--brate", "0.8", "--duration", "0.9", "--dt", "1e-3", "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        config = parse_config("", cli._collect_overrides(cli.build_parser().parse_args(argv)))
        b_dir = (1.0, 0.5, -0.7)
        ramp = (linear_ramp(0.8, 0.9, b_dir) if shape == "linear"
                else cosine_ramp(0.8 * 0.9, 0.9, b_dir))
        bx, by, bz = ramp.b_dir
        traj = integrate(SpinState.from_vector((0.3, 0.4, 0.8)), ramp,
                         LLParams(kappa=1.7, u=(0.3, -0.2, 1.0), dt=1e-3), every)
        rows = []
        for t, state in traj:
            ex, ey, ez = state.e_s
            rows.append((t, ex, ey, ez, ex * bx + ey * by + ez * bz))
        assert len(rows) == 1 + math.ceil(900 / every)

        expected_json, expected_csv = table_texts(config, ("t", "ex", "ey", "ez", "dot_B"), rows)
        table = tmp_path / "sterngerlach_trajectory"
        assert table.with_suffix(".json").read_text(encoding="utf-8") == expected_json
        assert table.with_suffix(".csv").read_text(encoding="utf-8") == expected_csv
        final = read_json(tmp_path / "sterngerlach_summary.json")["final"]
        assert final == {"t": rows[-1][0], "e_s": list(rows[-1][1:4]), "dot_B": rows[-1][4]}

    def test_cosine_ramp_runs(self, tmp_path):
        code = main(["sterngerlach", "--ramp", "cosine", "--duration", "1.0",
                     "--dt", "1e-3", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "sterngerlach_summary.json")
        assert summary["classification"] in ("parallel", "antiparallel", "unresolved")


class TestErrorSurfacing:
    def test_flag_overrides_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("epr.delta_deg = 0\nepr.mode = curve\nepr.step_deg = 90\n",
                          encoding="utf-8")
        code = main(["epr", "--config", str(config), "--delta-deg", "45",
                     "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "epr_curve.json")
        assert payload["config"]["epr.delta_deg"] == 45.0

    def test_domain_error_exits_nonzero(self, tmp_path, capsys):
        code = main(["electron", "--rho0", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "rho0" in capsys.readouterr().err

    def test_overflow_prints_the_message_not_the_errno_tuple(self, tmp_path, capsys):
        assert main(["electron", "--u", "1e200", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: out of double-precision range: "
                                           f"{os.strerror(errno.ERANGE)}\n")

    @pytest.mark.parametrize("zmax, accepted", [(5e-324, True), (0.0, False), (-5e-324, False)])
    def test_z_window_must_be_positive(self, zmax, accepted, tmp_path, capsys):
        code = main(["electron", "--zmin", "0", "--zmax", repr(zmax), "--points", "2",
                     "--out", str(tmp_path / "out")])
        if accepted:
            assert code == 0
        else:
            assert code == 1
            assert capsys.readouterr().err == ("error: electron.zmax - electron.zmin must lie "
                                               f"in (0, inf), got {zmax!r}\n")

    def test_unwritable_output_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code = main(["budget", "--out", str(blocker / "sub")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")

    def test_unknown_config_key_reported(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epr.phase = 3\n", encoding="utf-8")
        code = main(["epr", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "epr.phase" in capsys.readouterr().err


# Every registry key, spelled as a user types it, with a non-default value, in a run that reads it.
FLAG_CASES = {
    "subcommand": (["budget"], "budget"),
    "seed": (["epr", "--singles", "--seed", "7"], 7),
    "out": (["budget", "--out", "elsewhere"], "elsewhere"),
    "format": (["electron", "--format", "json"], "json"),
    "electron.rho0": (["electron", "--rho0", "2.5"], 2.5),
    "electron.u": (["electron", "--u", "0.5"], 0.5),
    "electron.helicity": (["electron", "--helicity", "-"], "-"),
    "electron.zmin": (["electron", "--zmin", "1.5"], 1.5),
    "electron.zmax": (["electron", "--zmax", "9"], 9.0),
    "electron.points": (["electron", "--points", "17"], 17),
    "electron.t": (["electron", "--t", "0.25"], 0.25),
    "electron.units": (["electron", "--units", "si"], "si"),
    "electron.field_split": (["electron", "--field-split", "0.25"], 0.25),
    "epr.mode": (["epr", "--chsh"], "chsh"),
    "epr.delta_deg": (["epr", "--delta-deg", "45"], 45.0),
    "epr.step_deg": (["epr", "--step-deg", "5"], 5.0),
    "epr.angles_deg": (["epr", "--chsh", "--angles", "0,90,45,135"], (0.0, 90.0, 45.0, 135.0)),
    "epr.angle_deg": (["epr", "--singles", "--angle", "30"], 30.0),
    "epr.n": (["epr", "--singles", "--n", "1000"], 1000),
    "epr.workers": (["epr", "--singles", "--workers", "4"], 4),
    "sterngerlach.kappa": (["sterngerlach", "--kappa", "2.5"], 2.5),
    "sterngerlach.u": (["sterngerlach", "--u", "1,0,0"], (1.0, 0.0, 0.0)),
    "sterngerlach.bdir": (["sterngerlach", "--bdir", "0,1,0"], (0.0, 1.0, 0.0)),
    "sterngerlach.brate": (["sterngerlach", "--brate", "3"], 3.0),
    "sterngerlach.duration": (["sterngerlach", "--duration", "2"], 2.0),
    "sterngerlach.dt": (["sterngerlach", "--dt", "1e-4"], 1e-4),
    "sterngerlach.ramp": (["sterngerlach", "--ramp", "cosine"], "cosine"),
    "sterngerlach.es0": (["sterngerlach", "--es0", "1,0,0"], (1.0, 0.0, 0.0)),
    "sterngerlach.threshold": (["sterngerlach", "--threshold", "0.9"], 0.9),
    "sterngerlach.record_every": (["sterngerlach", "--record-every", "10"], 10),
    "budget.band_energy_mev": (["budget", "--band-energy-mev", "100"], 100.0),
    "budget.resolution_pm": (["budget", "--resolution-pm", "10"], 10.0),
    "budget.feature_pm": (["budget", "--feature-pm", "40"], 40.0),
    "budget.error_pm": (["budget", "--error-pm", "0.5"], 0.5),
    "budget.convention": (["budget", "--convention", "1"], 1.0),
}


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_flag_sets_its_key(key, monkeypatch):
    argv, expected = FLAG_CASES[key]
    assert expected != REGISTRY[key].default
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    assert main(argv) == 0
    assert seen[0][key] == expected


@pytest.mark.parametrize("key", sorted(set(REGISTRY) - {"subcommand", "out"}))
def test_every_option_moves_its_run(key, tmp_path):
    """A key's `FLAG_CASES` value moves the artifacts of the same subcommand and epr mode
    at the default, past the config echo; the worker count alone, as README promises, not."""
    argv = FLAG_CASES[key][0]
    mode = [a for a in argv if a in ("--curve", "--chsh", "--singles") and key != "epr.mode"]
    same = _artifacts(argv, tmp_path / "set") == _artifacts(argv[:1] + mode, tmp_path / "default")
    assert same == (key == "epr.workers")


REJECTED = [
    # bad values: parse_config, not argparse, checks types and choices
    (["electron", "--rho0", "abc"], "electron.rho0"),
    (["electron", "--points", "1.5"], "electron.points"),
    (["budget", "--convention", "0.7"], "budget.convention"),
    # a check across two keys, made by the runner
    (["electron", "--zmin", "1", "--zmax", "0", "--points", "2"], "electron.zmax"),
    # non-finite inputs
    (["electron", "--rho0", "nan"], "electron.rho0"),
    (["budget", "--band-energy-mev", "nan"], "budget.band_energy_mev"),
    (["epr", "--chsh", "--angles", "nan,45,22.5,67.5"], "epr.angles_deg"),
    (["sterngerlach", "--u", "nan,0,1"], "sterngerlach.u"),
    (["sterngerlach", "--u", "inf,0,1"], "sterngerlach.u"),
    (["sterngerlach", "--dt", "nan"], "sterngerlach.dt"),
    (["sterngerlach", "--duration", "inf"], "sterngerlach.duration"),
    # a zero-length cosine ramp is refused as the linear one is
    (["sterngerlach", "--duration", "0", "--ramp", "cosine"], "duration must lie in (0, inf)"),
    # finite inputs whose results overflow
    (["sterngerlach", "--kappa", "1e308", "--brate", "1e308"], "precession vector"),
    (["electron", "--rho0", "1e300", "--u", "1e300", "--points", "2"], "range"),
    (["electron", "--zmax", "1e308", "--points", "3"], "phase"),
    (["electron", "--t", "1e308", "--u", "1e10"], "phase"),
    # every profile cell is finite, but the header's wavelength 2*pi*hbar/(m*u) is inf
    (["electron", "--u", "1e-310"], "non-finite value"),
    # a zero length or speed, named by the key or the argument that is zero
    (["sterngerlach", "--bdir", "0,0,0"], "sterngerlach.bdir length must lie in (0, inf), got 0.0"),
    (["sterngerlach", "--es0", "0,0,0"], "sterngerlach.es0 length must lie in (0, inf), got 0.0"),
    (["electron", "--u", "0"], "velocity must lie in (0, inf), got 0.0"),
    # the row cap, checked before any row is built
    (["electron", "--points", "1000001"], "electron.points"),
    (["epr", "--curve", "--step-deg", "1e-300"], "epr.step_deg"),
    (["epr", "--curve", "--step-deg", "1000"], "epr.step_deg"),
    (["sterngerlach", "--dt", "1e-7"], "sterngerlach.dt"),
    # the step guard: 10**9 steps in 500 001 rows, about 20 minutes of RK4
    (["sterngerlach", "--dt", "1e-9", "--record-every", "2000"], "duration / dt must lie in"),
    (["sterngerlach", "--duration", "1e300", "--dt", "1e-300"], "duration / dt must lie in"),
    # the library refuses these only for --singles; the registry, for every mode
    (["epr", "--curve", "--seed", "-3"], "'seed' must lie in [0, inf)"),
    (["epr", "--curve", "--workers", "0"], "'epr.workers' must lie in [1, inf)"),
    # checked before the run, so no trajectory is written
    (["sterngerlach", "--threshold", "2"], "sterngerlach.threshold"),
    # the trial cap, checked before any Monte Carlo block runs
    (["epr", "--singles", "--n", "1000000001"], "epr.n"),
    # a path the operating system refuses before opening anything
    (["budget", "--config", "a\0b"], "embedded null byte"),
]


@pytest.mark.parametrize("argv, fragment", REJECTED, ids=[" ".join(a) for a, _ in REJECTED])
def test_rejected_input_exits_1_with_one_error_line(argv, fragment, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert fragment in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, fragment", [
    (["epr", "--config", "{tmp}/latin1.cfg", "--out", "{tmp}/out"], "can't decode byte 0xe9"),
    (["budget", "--out", "{tmp}/a\0b"], "control character '\\x00'"),
    (["electron", "--points", "2", "--out", "{tmp}/o\nx"], "control character '\\n'"),
    # Python decodes a non-UTF-8 byte of argv, here 0xff, as a lone surrogate
    (["electron", "--points", "2", "--out", "{tmp}/o\udcff"], "surrogates not allowed"),
], ids=["config file not UTF-8", "NUL byte in --out", "line break in --out",
        "non-UTF-8 byte in --out"])
def test_bad_config_file_or_out_path_exits_1_with_one_error_line(argv, fragment, tmp_path,
                                                                 capsys):
    (tmp_path / "latin1.cfg").write_bytes("epr.mode = chsh  # café\n".encode("latin-1"))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert fragment in err[0]
    assert [p.name for p in tmp_path.rglob("*")] == ["latin1.cfg"]


def test_row_cap_compares_the_exact_record_count(tmp_path, capsys):
    """Exactly MAX_ROWS records pass the row check, and one more is refused."""
    # 999 999.4 and 1 999 998.6 steps round to 999 999 and 1 999 999
    for keys in ("dt=1.00000060000036e-06", "duration=2 dt=1.0000010000005e-06 record_every=2"):
        overrides = ["subcommand=sterngerlach"] + [f"sterngerlach.{k}" for k in keys.split()]
        assert cli.plan(parse_config("", overrides))[0] == MAX_ROWS
    assert main(["sterngerlach", "--dt", "1e-6", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "sterngerlach.dt" in err[0]


@pytest.mark.parametrize("resolution, line", [
    ("1e-320", "error: target position uncertainty in m must lie in (0, inf), got 0.0"),
    ("1e-310", "error: compliance energy in eV must lie in [0, inf), got inf"),
])
def test_a_resolution_beyond_double_precision_names_the_quantity(resolution, line, tmp_path,
                                                                 capsys):
    out = tmp_path / "out"
    assert main(["budget", "--resolution-pm", resolution, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


def test_config_file_with_a_byte_order_mark(monkeypatch, tmp_path):
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbfseed = 3\n")
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    assert main(["budget", "--config", str(tmp_path / "bom.cfg")]) == 0
    assert seen[0]["seed"] == 3


@pytest.mark.parametrize("key", sorted(k for k, opt in REGISTRY.items() if opt.within))
def test_help_prints_each_declared_interval(key, capsys):
    prefix = key.partition(".")[0]  # a global key such as seed is a flag of every subcommand
    with pytest.raises(SystemExit) as exc:
        main([prefix if prefix in SUBCOMMANDS else SUBCOMMANDS[0], "--help"])
    assert exc.value.code == 0
    opt = REGISTRY[key]
    assert f"{opt.help} in {opt.within}" in " ".join(capsys.readouterr().out.split())


NEGATIVE_VALUES = [
    (["electron", "--zmin", "-1e3", "--zmax", "1"], ["electron", "--zmin=-1e3", "--zmax", "1"]),
    (["sterngerlach", "--es0", "-0.6,0.8,0"], ["sterngerlach", "--es0=-0.6,0.8,0"]),
    (["epr", "--chsh", "--angles", "-10,45,22.5,67.5"],
     ["epr", "--chsh", "--angles=-10,45,22.5,67.5"]),
]


@pytest.mark.parametrize("spaced, joined", NEGATIVE_VALUES,
                         ids=[" ".join(a) for a, _ in NEGATIVE_VALUES])
def test_negative_value_after_a_space_is_a_value(spaced, joined, tmp_path):
    out = tmp_path / "out"
    artifacts = []
    for argv in (joined, spaced):
        assert main(argv + ["--out", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert artifacts[0] == artifacts[1]


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, monkeypatch):
    """Each run through the shared parser ends as a run through a fresh one does."""
    assert cli.build_parser() is cli.build_parser()
    argvs = [["electron", "--bogus", "1"], ["electron", "--points", "0"], ["--version"],
             ["epr", "--curve", "--step-deg", "30", "--out", "out"]]

    def outcomes(fresh):
        """Exit code, stdout, stderr and artifacts of each argv, run in order."""
        results = []
        for k, argv in enumerate(argvs):
            if fresh:
                cli.build_parser.cache_clear()
            (tmp_path / f"{fresh}{k}").mkdir()
            monkeypatch.chdir(tmp_path / f"{fresh}{k}")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = f"SystemExit({exc.code})"
            out = Path("out")
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            results.append((code, stdout.getvalue(), stderr.getvalue(), files))
        return results

    shared = outcomes(fresh=False)
    assert [code for code, *_ in shared] == ["SystemExit(2)", 1, "SystemExit(0)", 0]
    assert shared == outcomes(fresh=True)


def test_unknown_flag_is_argparse_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["electron", "--bogus", "1"])
    assert exc.value.code == 2


def test_pyproject_takes_its_version_from_the_package():
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        config = pyproject.read_configuration(Path(__file__).parents[1] / "pyproject.toml")
    assert config["project"]["version"] == __version__


# Float cells with the edge cases of repr: signed zero, subnormals, exponents near the ends.
CELL = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308])
# Column names: any text but `,` and line breaks, which the CSV header does not quote,
# weighted towards `%` (the JSON row template's conversion mark), JSON's escapes and non-ASCII.
NAME = st.text(st.sampled_from('%"\\é€\U0001d49c') | st.characters(
    exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters=","))
TABLES = st.integers(1, 8).flatmap(lambda width: st.tuples(
    st.lists(NAME, min_size=width, max_size=width, unique=True).map(tuple),
    st.lists(st.tuples(*[CELL] * width), max_size=40)))


def _write_table(out, columns, rows, fmt):
    """cli._write_table of `rows`, one `array('d')` per column, into `out`; returns the config."""
    rows = list(rows)
    table = {c: array("d", [row[j] for row in rows]) for j, c in enumerate(columns)}
    config = parse_config("", ["subcommand=electron", f"format={fmt}", f"out={out}"])
    with contextlib.redirect_stdout(io.StringIO()):
        cli._write_table(Path(out), "table", table, config, wavelength=1.5)
    return config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=TABLES)
def test_table_writer_matches_the_json_and_csv_oracles(table):
    """JSON as json's indent=2 encoder writes it; CSV cells as repr(v), the JSON's tokens."""
    columns, rows = table
    with tempfile.TemporaryDirectory() as out:
        config = _write_table(out, columns, rows, "csv")
        expected_json, expected_csv = table_texts(config, columns, rows, wavelength=1.5)
        assert (Path(out) / "table.json").read_text(encoding="utf-8") == expected_json
        assert (Path(out) / "table.csv").read_text(encoding="utf-8") == expected_csv


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(table=TABLES, bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
def test_table_writer_rejects_a_non_finite_cell_before_writing(fmt, table, bad, data):
    columns, rows = table
    rows = rows or [(0.0,) * len(columns)]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(columns) - 1))
    rows[i] = rows[i][:j] + (bad,) + rows[i][j + 1:]
    with tempfile.TemporaryDirectory() as out:
        with pytest.raises(DomainError):
            _write_table(out, columns, rows, fmt)
        assert not list(Path(out).iterdir())


CHUNK = cli._CHUNK_ROWS


@pytest.mark.parametrize("count, width, fmt", [
    pytest.param(count, width, fmt, id=f"{count}-{width}" + ("-json" if fmt == "json" else ""))
    for count in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1) for width in (2, 8)
    for fmt in ("csv", "json")])
def test_table_writer_across_chunk_boundaries(count, width, fmt, tmp_path):
    columns = tuple(f"c{i}" for i in range(width))
    rows = [tuple((-1) ** i * (r + 1) / (i + 3) for i in range(width)) for r in range(count)]
    config = _write_table(tmp_path, columns, iter(rows), fmt)
    expected_json, expected_csv = table_texts(config, columns, rows, wavelength=1.5)
    assert (tmp_path / "table.json").read_text(encoding="utf-8") == expected_json
    if fmt == "csv":
        assert (tmp_path / "table.csv").read_text(encoding="utf-8") == expected_csv
    else:
        assert [path.name for path in tmp_path.iterdir()] == ["table.json"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_non_finite_cell_in_the_last_chunk_refuses_the_whole_table(fmt, tmp_path):
    rows = [(float(r), 0.5) for r in range(2 * CHUNK + 1)]
    rows[-1] = (rows[-1][0], math.inf)
    with pytest.raises(DomainError):
        _write_table(tmp_path / "out", ("a", "b"), rows, fmt)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_finite_cells_whose_sum_overflows_are_written(count, tmp_path):
    """A chunk's cells summing to infinity are checked one by one, and all are finite."""
    rows = [((-1) ** r * 1.7e308,) * 2 for r in range(count)]
    config = _write_table(tmp_path, ("a", "b"), iter(rows), "csv")
    expected_json, expected_csv = table_texts(config, ("a", "b"), rows, wavelength=1.5)
    assert (tmp_path / "table.json").read_text(encoding="utf-8") == expected_json
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == expected_csv


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_cell_in_a_chunk_whose_sum_overflows_is_refused(fmt, bad, tmp_path):
    rows = [(1.7e308, 1.7e308)] * (2 * CHUNK + 1)
    rows[CHUNK + 5] = (1.7e308, bad)  # the second chunk's sum is infinite at its first row
    with pytest.raises(DomainError):
        _write_table(tmp_path / "out", ("a", "b"), rows, fmt)
    assert not (tmp_path / "out").exists()


def test_a_non_finite_profile_cell_in_the_last_chunk_exits_1(monkeypatch, tmp_path, capsys):
    def last_rho_inf(*args, **kwargs):
        profile = profile_rows(*args, **kwargs)
        profile.columns[PROFILE_COLUMNS.index("rho")][-1] = math.inf
        return profile

    monkeypatch.setattr(cli, "profile_rows", last_rho_inf)
    out = tmp_path / "out"
    assert main(["electron", "--points", str(2 * CHUNK + 1), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]
    assert not out.exists()


def _with_fixed(columns, rows, k, name, value):
    """The columns with `name` at position k, and each row with `value` there."""
    return columns[:k] + (name,) + columns[k:], [row[:k] + (value,) + row[k:] for row in rows]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table=TABLES, value=CELL, data=st.data())
def test_a_fixed_column_is_written_as_if_every_row_held_it(table, value, data):
    """A column holding one value in every row is encoded once, with the bytes of each cell."""
    columns, rows = table
    name = data.draw(NAME.filter(lambda c: c not in columns))
    k = data.draw(st.integers(0, len(columns)))
    full_columns, full_rows = _with_fixed(columns, rows, k, name, value)
    with tempfile.TemporaryDirectory() as out:
        config = _write_table(out, full_columns, full_rows, "csv")
        expected_json, expected_csv = table_texts(config, full_columns, full_rows, wavelength=1.5)
        assert (Path(out) / "table.json").read_text(encoding="utf-8") == expected_json
        assert (Path(out) / "table.csv").read_text(encoding="utf-8") == expected_csv


@pytest.mark.parametrize("others, k", [pytest.param(("a", "b"), k, id=str(k)) for k in range(3)]
                         + [pytest.param((), 0, id="alone")])
@pytest.mark.parametrize("count", [0, 1, CHUNK, CHUNK + 1])
def test_a_fixed_column_across_chunk_boundaries(count, others, k, tmp_path):
    rows = [((r + 1) / 3, -(r + 1) / 7)[:len(others)] for r in range(count)]
    columns, full_rows = _with_fixed(others, rows, k, "t", -1e-300)
    config = _write_table(tmp_path, columns, iter(full_rows), "csv")
    expected_json, expected_csv = table_texts(config, columns, full_rows, wavelength=1.5)
    assert (tmp_path / "table.json").read_text(encoding="utf-8") == expected_json
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == expected_csv


@pytest.mark.parametrize("zero, other", [(0.0, -0.0), (-0.0, 0.0)])
@pytest.mark.parametrize("at", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK])
def test_a_column_of_both_signed_zeros_is_written_cell_by_cell(zero, other, at, tmp_path):
    """`0.0 == -0.0`, so only a comparison of bit patterns keeps the odd zero's sign."""
    rows = [(r / 3, zero) for r in range(2 * CHUNK + 1)]
    rows[at] = (rows[at][0], other)
    config = _write_table(tmp_path, ("a", "b"), rows, "csv")
    expected_json, expected_csv = table_texts(config, ("a", "b"), rows, wavelength=1.5)
    assert (tmp_path / "table.json").read_text(encoding="utf-8") == expected_json
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == expected_csv


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_fixed_value_refuses_the_table(fmt, bad, tmp_path):
    """A column holding one NaN or infinity in every row, beside another column or alone."""
    for columns, row in ((("a", "t"), (0.5, bad)), (("t",), (bad,))):
        with pytest.raises(DomainError, match=r"^the run produced a non-finite value; "):
            _write_table(tmp_path / "out", columns, [row] * (CHUNK + 1), fmt)
        assert not (tmp_path / "out").exists()


def test_table_writer_heap_peak_stays_within_2_5_times_the_bytes_written(tmp_path):
    """Chunked encoding peaks at 1.85 times the bytes written at 10 000 rows, 1.64 at 50 000.

    The table is built before tracing starts, so the peak is the writer's
    own. Holding every cell token of the table at once peaks at about 4.1
    times at any size, so 10 000 rows tell the two apart as well as 50 000
    do, in a fifth of the time that tracemalloc's per-allocation hook takes.
    """
    rows = [tuple((r + 1) / (i + 3) for i in range(5)) for r in range(10_000)]
    table = dict(zip("abcde", zip(*rows)))
    config = parse_config("", ["subcommand=electron", "format=csv", f"out={tmp_path}"])
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli._write_table(tmp_path, "table", table, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in tmp_path.iterdir())
    assert peak <= 2.5 * written, (peak, written)
