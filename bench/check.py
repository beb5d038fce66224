"""Output checker for the benchmark's electronlab artifacts.

Every JSON file is parsed strictly (no `NaN` or `Infinity` tokens), every
CSV row must equal its JSON mirror value for value, and each workload
is held to an oracle that does not go through the package:

- sterngerlach: both ramps turn the spin about the fixed axis
  kappa (u x b) by -kappa |u x b| F(t), with F(t) the field change so
  far, so each recorded row must match Rodrigues' rotation formula;
- electron: rho + S = rho0 and psi_scalar^2 + psi_pseudo^2 = rho0 at
  every point, on the requested z grid;
- epr singles: the hit count lies within SINGLES_Z_MAX standard
  deviations of n/2.

`check` raises `CheckError` on the first violation and otherwise returns
the counts and health figures it measured along the way.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SPIN_TOL = 1e-6          # RK4 at the benchmark step sizes is ~1e-12 off
UNIT_TOL = 1e-9          # renormalized every step
DENSITY_TOL = 1e-9       # relative to rho0; allows last-ULP reorderings
SINGLES_Z_MAX = 6.0      # a false alarm once in ~5e8 runs

TRAJECTORY_COLUMNS = ["t", "ex", "ey", "ez", "dot_B"]
PROFILE_COLUMNS = ["z", "t", "rho", "omega_kin", "omega_field", "S",
                   "psi_scalar", "psi_pseudo"]


class CheckError(Exception):
    """An artifact is missing, malformed or wrong."""


def _reject_constant(token: str):
    raise CheckError(f"non-RFC-8259 token {token!r} in JSON")


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise CheckError(f"{path.name}: invalid JSON: {exc}") from None


def load_csv(path: Path) -> tuple[dict, list[str], list[list[float]]]:
    """Header comments, column names and float rows of a CSV artifact."""
    if not path.is_file():
        raise CheckError(f"missing artifact {path.name}")
    meta, columns, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            try:
                rows.append([float(x) for x in line.split(",")])
            except ValueError as exc:
                raise CheckError(f"{path.name}: bad row {line!r}: {exc}") from None
    if columns is None:
        raise CheckError(f"{path.name}: no column line")
    return meta, columns, rows


def _finite(name: str, rows) -> None:
    for row in rows:
        for value in row:
            if not math.isfinite(value):
                raise CheckError(f"{name}: non-finite value {value!r}")


def check_table(out: Path, docs: dict, name: str, columns: list[str], expected_rows: int):
    """Rows of a tabular artifact, after checking CSV against its JSON mirror."""
    payload = _doc(docs, f"{name}.json")
    if payload.get("columns") != columns:
        raise CheckError(f"{name}.json: columns {payload.get('columns')} != {columns}")
    rows = [[row[c] for c in columns] for row in payload["rows"]]
    if len(rows) != expected_rows:
        raise CheckError(f"{name}.json: {len(rows)} rows, expected {expected_rows}")
    _finite(f"{name}.json", rows)
    _, csv_columns, csv_rows = load_csv(out / f"{name}.csv")
    if csv_columns != columns:
        raise CheckError(f"{name}.csv: columns {csv_columns} != {columns}")
    if len(csv_rows) != len(rows):
        raise CheckError(f"{name}.csv has {len(csv_rows)} rows, its JSON mirror {len(rows)}")
    for i, (a, b) in enumerate(zip(csv_rows, rows)):
        if a != b:
            raise CheckError(f"{name}.csv differs from its JSON mirror at row {i}")
    return payload, rows


def _doc(docs: dict, name: str) -> dict:
    if name not in docs:
        raise CheckError(f"missing artifact {name}")
    return docs[name]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _unit(v):
    n = math.sqrt(_dot(v, v))
    return (v[0] / n, v[1] / n, v[2] / n)


def spin_closed_form(expect: dict):
    """e(t) for de/dt = kappa e x (u x dB/dt), by Rodrigues' formula."""
    b = _unit(expect["bdir"])
    c = tuple(expect["kappa"] * x for x in _cross(expect["u"], b))
    speed = math.sqrt(_dot(c, c))
    n = (c[0] / speed, c[1] / speed, c[2] / speed)
    e0 = _unit(expect["es0"])
    n_x_e0 = _cross(n, e0)
    n_dot_e0 = _dot(n, e0)
    rate, duration = expect["rate"], expect["duration"]

    def field_change(t):
        if expect["shape"] == "linear":
            return rate * t
        return rate * duration * 0.5 * (1.0 - math.cos(math.pi * t / duration))

    def e_at(t):
        phi = -speed * field_change(t)
        cos, sin = math.cos(phi), math.sin(phi)
        return tuple(e0[i] * cos + n_x_e0[i] * sin + n[i] * n_dot_e0 * (1.0 - cos)
                     for i in range(3))

    return e_at


def check_sterngerlach(out: Path, docs: dict, expect: dict) -> dict:
    _, rows = check_table(out, docs, "sterngerlach_trajectory", TRAJECTORY_COLUMNS, expect["rows"])
    b = _unit(expect["bdir"])
    e_at = spin_closed_form(expect)
    if rows[0][0] != 0.0 or rows[-1][0] != expect["duration"]:
        raise CheckError(f"trajectory spans t = {rows[0][0]}..{rows[-1][0]}, "
                         f"expected 0..{expect['duration']}")
    max_err = 0.0
    previous_t = -1.0
    for t, ex, ey, ez, dot_b in rows:
        e = (ex, ey, ez)
        if t <= previous_t:
            raise CheckError(f"trajectory time not increasing at t = {t}")
        previous_t = t
        if abs(math.sqrt(_dot(e, e)) - 1.0) > UNIT_TOL:
            raise CheckError(f"spin not unit length at t = {t}")
        if abs(dot_b - _dot(e, b)) > UNIT_TOL:
            raise CheckError(f"dot_B != e . b at t = {t}")
        d = _sub(e, e_at(t))
        max_err = max(max_err, math.sqrt(_dot(d, d)))
    if max_err > SPIN_TOL:
        raise CheckError(f"trajectory departs from the closed-form rotation by {max_err:.3e}")
    summary = _doc(docs, "sterngerlach_summary.json")
    final = summary["final"]
    if final["t"] != rows[-1][0] or final["e_s"] != rows[-1][1:4] or final["dot_B"] != rows[-1][4]:
        raise CheckError("summary final state differs from the last trajectory row")
    return {"rows": len(rows), "max_err": max_err}


def check_electron(out: Path, docs: dict, expect: dict) -> dict:
    payload, rows = check_table(out, docs, "electron_profile", PROFILE_COLUMNS, expect["points"])
    rho0, u, points = expect["rho0"], expect["u"], expect["points"]
    zmin, zmax, t = expect["zmin"], expect["zmax"], expect["t"]
    step = (zmax - zmin) / (points - 1)
    sign = 1.0 if expect["helicity"] == "+" else -1.0
    residual = 0.0
    for i, (z, tz, rho, kin, fld, s, psi_s, psi_p) in enumerate(rows):
        if abs(z - (zmin + i * step)) > 1e-12 * max(1.0, abs(z)) or tz != t:
            raise CheckError(f"profile row {i} at (z, t) = ({z}, {tz}), off the requested grid")
        residual = max(residual, abs(rho + s - rho0))
        if abs(psi_s * psi_s + psi_p * psi_p - rho0) > DENSITY_TOL * rho0:
            raise CheckError(f"psi_scalar^2 + psi_pseudo^2 != rho0 at z = {z}")
        if abs(kin + fld - 0.5 * rho0 * u * u) > DENSITY_TOL * rho0 * u * u:
            raise CheckError(f"energy density not constant at z = {z}")
        if psi_s < 0.0 or sign * psi_p < 0.0:
            raise CheckError(f"wavefunction sign off at z = {z}")
    if residual > DENSITY_TOL * rho0:
        raise CheckError(f"rho + S departs from rho0 by {residual:.3e}")
    for key in ("wavelength", "nu", "E0", "H0"):
        if not isinstance(payload.get(key), float):
            raise CheckError(f"electron_profile.json: {key} missing")
    return {"rows": len(rows), "born_residual": residual}


def check_singles(out: Path, docs: dict, expect: dict) -> dict:
    payload = _doc(docs, "epr_singles.json")
    n, hits = payload.get("n"), payload.get("hits")
    if n != expect["n"] or payload.get("angle_deg") != expect["angle_deg"]:
        raise CheckError(f"singles ran n = {n} at {payload.get('angle_deg')} deg, "
                         f"expected n = {expect['n']} at {expect['angle_deg']} deg")
    if not isinstance(hits, int) or not 0 <= hits <= n:
        raise CheckError(f"singles hits {hits!r} outside 0..{n}")
    rate = hits / n
    if payload["rate"] != rate:
        raise CheckError(f"singles rate {payload['rate']} != hits/n = {rate}")
    stderr = math.sqrt(rate * (1.0 - rate) / n)
    if abs(payload["stderr"] - stderr) > 1e-12 * stderr:
        raise CheckError(f"singles stderr {payload['stderr']} != {stderr}")
    z = (hits - 0.5 * n) / (0.5 * math.sqrt(n))
    if abs(z) > SINGLES_Z_MAX:
        raise CheckError(f"singles hits {hits} lie {z:.2f} sigma from n/2")
    return {"rows": 0, "z": z}


CHECKERS = {"trajectory": check_sterngerlach, "profile": check_electron,
            "singles": check_singles}


def check(workload: str, out: Path, expect: dict) -> dict:
    """Check every artifact of one invocation; return counts and health figures."""
    docs = {path.name: load_json(path) for path in sorted(out.glob("*.json"))}
    for name, payload in docs.items():
        if not isinstance(payload, dict) or not payload.get("version") \
                or not isinstance(payload.get("config"), dict):
            raise CheckError(f"{name}: version or resolved config missing")
    try:
        result = CHECKERS[workload](out, docs, expect)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed artifact: {type(exc).__name__}: {exc}") from None
    result["bytes"] = sum(p.stat().st_size for p in out.iterdir())
    return result
