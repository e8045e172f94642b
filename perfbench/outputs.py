"""Check the CSV outputs of one CLI call against recorded reference values.

:func:`observe` reduces a call's output directory to the values that are
checked; :func:`compare` lists how they differ from the reference recorded
by ``record_reference.py``:

* ``spectrum``: the three -5 dB counts match exactly; ``reference_intensity``
  and every OAM mode energy match at rtol 1e-6.
* ``pathgain``: every path gain matches at rtol 1e-6.
* ``ber`` and ``tnr``: the link symbol energy matches at rtol 1e-6.  At the
  reference seed the data rows are identical; at any other seed each BER
  point lies within 5 combined binomial standard errors of the reference.
* ``profiles``: the bytes of every CSV are unchanged, apart from the
  ``# out = ...`` metadata line, which names the output directory.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

RTOL = 1e-6
BER_SIGMAS = 5.0
OUT_LINE = b"# out = "


def _read_csv(path: Path):
    meta, table = {}, []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            table.append(line)
    return meta, table[0].split(","), table[1:]


def _without_out_line(data: bytes) -> bytes:
    start = data.find(OUT_LINE)
    if start < 0:
        return data
    end = data.index(b"\n", start) + 1
    return data[:start] + data[end:]


def observe(directory: Path, verb: str) -> dict:
    """Checked values of every CSV a call wrote, keyed by file name."""
    found = {}
    for path in sorted(directory.glob("*.csv")):
        if verb == "profiles":
            digest = hashlib.sha256(_without_out_line(path.read_bytes())).hexdigest()
            found[path.name] = {"sha256": digest}
            continue
        meta, columns, rows = _read_csv(path)
        cells = [dict(zip(columns, row.split(","))) for row in rows]
        if verb == "spectrum":
            found[path.name] = {
                "counts": {k: int(meta[k]) for k in sorted(meta) if k.startswith("count_")},
                "reference_intensity": float(meta["reference_intensity"]),
                "energies": {
                    f"{c['label']}:{c['index']}": float(c["value_linear"])
                    for c in cells
                    if c["label"].startswith("oam")
                },
            }
        elif verb == "pathgain":
            found[path.name] = {
                "eta": {f"{c['preset']}:{c['distance']}:{c['label']}": float(c["eta"]) for c in cells}
            }
        elif verb in ("ber", "tnr"):
            entry = {"rows": rows}
            if "symbol_energy" in meta:
                entry["symbol_energy"] = float(meta["symbol_energy"])
            found[path.name] = entry
        else:
            raise ValueError(f"no output check for verb {verb!r}")
    return found


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= RTOL * abs(reference)


def _compare_values(label: str, values: dict, reference: dict, problems: list) -> None:
    if set(values) != set(reference):
        problems.append(f"{label}: keys {sorted(set(values) ^ set(reference))} differ")
        return
    for key in sorted(reference):
        if not _close(values[key], reference[key]):
            problems.append(f"{label} {key}: {values[key]!r} != {reference[key]!r}")


def _ber_points(rows):
    points = []
    for row in rows:
        axis, ber, trials, _ = row.split(",")
        points.append((axis, float(ber), int(trials)))
    return points


def _compare_ber(label: str, rows, reference_rows, exact: bool, problems: list) -> None:
    if exact:
        if rows != reference_rows:
            problems.append(f"{label}: rows differ from the reference seed's rows")
        return
    got, ref = _ber_points(rows), _ber_points(reference_rows)
    if [p[0] for p in got] != [p[0] for p in ref]:
        problems.append(f"{label}: axis differs")
        return
    for (axis, p, n), (_, q, m) in zip(got, ref):
        sigma = math.sqrt(p * (1 - p) / n + q * (1 - q) / m)
        if abs(p - q) > BER_SIGMAS * sigma:
            problems.append(f"{label} at {axis} dB: BER {p} vs reference {q} (sigma {sigma:.3g})")


def compare(found: dict, reference: dict, exact_ber: bool) -> list:
    """Differences between observed and reference values; empty when they agree."""
    problems = []
    if set(found) != set(reference):
        return [f"files {sorted(set(found) ^ set(reference))} differ from the reference"]
    for name in sorted(reference):
        got, want = found[name], reference[name]
        if "sha256" in want:
            if got["sha256"] != want["sha256"]:
                problems.append(f"{name}: bytes changed")
        elif "counts" in want:
            if got["counts"] != want["counts"]:
                problems.append(f"{name}: counts {got['counts']} != {want['counts']}")
            if not _close(got["reference_intensity"], want["reference_intensity"]):
                problems.append(f"{name}: reference_intensity {got['reference_intensity']!r}")
            _compare_values(f"{name} energy", got["energies"], want["energies"], problems)
        elif "eta" in want:
            _compare_values(f"{name} eta", got["eta"], want["eta"], problems)
        else:
            if "symbol_energy" in want and not _close(got.get("symbol_energy", math.nan), want["symbol_energy"]):
                problems.append(f"{name}: symbol_energy {got.get('symbol_energy')!r}")
            _compare_ber(name, got["rows"], want["rows"], exact_ber, problems)
    return problems
