"""Every number of the digest matrix's artifacts, held to recorded values.

test_digests.py holds the artifacts to their bytes, which move with the
BLAS kernel and the versions; this test holds them to their values, on any
host and version, and is never skipped.  values_table.json records every
leaf of every JSON artifact and every column of every CSV artifact that a
run's manifest lists.  A number passes when it is within

    RTOL * |recorded| + FLOOR * scale

of the recorded value.  RTOL is about 70x the largest move of a physical
value measured across BLAS kernels (1.4e-8).  FLOOR * scale lets values
whose true value is 0 differ in their rounding: scale is the largest
magnitude of the CSV column, and for a fitted quantity the fit's data (y)
or axis (x) scale in the unit that fitting declares for it.  The
rounding-level run diagnostics are held to the absolute bounds that the
dynamics and experiment tests put on them.  Anything that is not a number
(fit flags, converged, names) and the set of keys must match exactly.

Regenerate the table after a change that is meant to move a value by more
than rounding, and say in CHANGES.md which values moved and how far:

    PYTHONPATH=src python tests/test_values.py
"""

import csv
import json
import math
import re
import tempfile
from pathlib import Path

from digest_matrix import run_matrix

TABLE = Path(__file__).with_name("values_table.json")

RTOL = 1e-6
FLOOR = 1e-9

# absolute bounds on rounding-level diagnostics in results.json
DIAGNOSTIC_ATOL = {"max_trace_deviation": 1e-10,
                   "min_eigenvalue": 1e-8}

# the unit of a fitted quantity: the fit's data (y), its axis (x), the
# inverse of its axis (1/x), or none (a phase, in radians)
UNITS = {"amplitude": "y", "offset": "y", "residual_rms": "y",
         "fit_residual_rms": "y", "intercept_hz": "y", "residual_rms_hz": "y",
         "center": "x", "hwhm": "x", "time_constant": "x",
         "decay_time": "x", "frequency": "1/x", "phase": None}


def _flatten(node, prefix=""):
    """{"a/b/0/c": leaf} of a JSON document; an empty list is a leaf."""
    if isinstance(node, dict) and node:
        items = node.items()
    elif isinstance(node, list) and node:
        items = enumerate(node)
    else:
        return {prefix: node}
    out = {}
    for key, child in items:
        out.update(_flatten(child, f"{prefix}/{key}" if prefix else str(key)))
    return out


def _read(path):
    if path.suffix == ".json":
        return _flatten(json.loads(path.read_text()))
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    return {name: [float(row[i]) for row in rows[1:]]
            for i, name in enumerate(rows[0])}


def _values(root, manifests):
    """{run: {file: {key: value}}} over every file of every manifest."""
    return {name: {f["name"]: _read(Path(root) / name / f["name"])
                   for f in manifest.files}
            for name, manifest in manifests.items()}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _fit_scales(leaves):
    """{fit path: {"x": axis scale, "y": data scale}} of a fits.json.

    A fit is the parent of a "params" dict, or a dict of fitted numbers;
    its scales are the largest magnitudes of its y- and x-unit values,
    with 1/|frequency| counted as an x value.
    """
    scales = {}
    for key, v in leaves.items():
        parts = key.split("/")
        name = parts[-1]
        if not _is_number(v) or "std_errors" in parts \
                or name.startswith("residual_rms"):
            continue
        fit = "/".join(p for p in parts[:-1] if p != "params")
        unit = UNITS.get(name, "")
        s = scales.setdefault(fit, {"x": 0.0, "y": 0.0})
        if unit in ("x", "y"):
            s[unit] = max(s[unit], abs(v))
        elif unit == "1/x" and v:
            s["x"] = max(s["x"], 1.0 / abs(v))
    return scales


def _tolerances(file, leaves, fit_scales):
    """{key: (rtol, atol)} for the numbers of one file of a run.

    fit_scales are the run's fits.json scales; a results.json value takes
    the largest of them in its unit.
    """
    if file.endswith(".csv"):
        return {col: (RTOL, FLOOR * max(map(abs, vals), default=0.0))
                for col, vals in leaves.items()}
    run = {u: max((s[u] for s in fit_scales.values()), default=0.0)
           for u in ("x", "y")}
    tol = {}
    for key in leaves:
        parts = key.split("/")
        name = parts[-1]
        if file == "results.json" and name in DIAGNOSTIC_ATOL:
            tol[key] = (0.0, DIAGNOSTIC_ATOL[name])
            continue
        s = run
        if file == "fits.json":
            s = fit_scales.get("/".join(p for p in parts[:-1]
                                        if p not in ("params", "std_errors")),
                               s)
        unit = UNITS.get(name, "")
        scale = {None: 1.0, "x": s["x"], "y": s["y"],
                 "1/x": 1.0 / s["x"] if s["x"] else 0.0}.get(unit, 0.0)
        tol[key] = (RTOL, FLOOR * scale)
    return tol


def _mismatches(want, got):
    """Human-readable lines for every value of got that misses want."""
    bad = []
    for run in sorted(want.keys() | got.keys()):
        w_run, g_run = want.get(run, {}), got.get(run, {})
        fit_scales = _fit_scales(w_run.get("fits.json", {}))
        for file in sorted(w_run.keys() | g_run.keys()):
            w, g = w_run.get(file), g_run.get(file)
            where = f"{run}/{file}"
            if w is None or g is None or w.keys() != g.keys():
                bad.append(f"{where}: keys differ")
                continue
            tol = _tolerances(file, w, fit_scales)
            for key in sorted(w):
                bad += [f"{where}:{key} {m}"
                        for m in _compare(w[key], g[key], *tol[key])]
    return bad


def _compare(want, got, rtol, atol):
    if isinstance(want, list) and want and _is_number(want[0]):
        if len(want) != len(got):
            return [f"has {len(got)} rows, recorded {len(want)}"]
        return [f"[{i}] {m}" for i, (w, g) in enumerate(zip(want, got))
                for m in _compare(w, g, rtol, atol)]
    if _is_number(want) and _is_number(got):
        if math.isclose(got, want, rel_tol=rtol, abs_tol=atol):
            return []
        return [f"= {got!r}, recorded {want!r} (rtol {rtol:g}, "
                f"atol {atol:g})"]
    return [] if got == want else [f"= {got!r}, recorded {want!r}"]


def test_artifact_values_match_recorded_values(digest_runs):
    root, manifests = digest_runs
    table = json.loads(TABLE.read_text())
    bad = _mismatches(table["values"], _values(root, manifests))
    assert not bad, f"{len(bad)} values differ from {TABLE.name}:\n" \
        + "\n".join(bad[:40])


def test_tolerances_cover_rounding_zeros_only():
    fits = {"lines/0/params/center": 1.8e-10,
            "lines/0/params/hwhm": 7.0e6,
            "lines/0/params/amplitude": 0.02,
            "lines/0/params/offset": -5e-20,
            "lines/0/std_errors/center": 1.7e-10,
            "lines/0/residual_rms": 8e-19,
            "decay/params/frequency": 1e8,
            "decay/params/phase": 0.3}
    tol = _tolerances("fits.json", fits, _fit_scales(fits))
    assert tol["lines/0/params/center"] == (RTOL, FLOOR * 7.0e6)
    assert tol["lines/0/params/offset"] == (RTOL, FLOOR * 0.02)
    assert tol["lines/0/std_errors/center"] == (RTOL, FLOOR * 7.0e6)
    assert tol["lines/0/residual_rms"] == (RTOL, FLOOR * 0.02)
    assert tol["decay/params/frequency"] == (RTOL, FLOOR * 1e8)
    assert tol["decay/params/phase"] == (RTOL, FLOOR)
    # a center off by a part in 1e8 of the line width is not rounding
    assert _compare(1.8e-10, 0.07, *tol["lines/0/params/center"])
    assert not _compare(1.8e-10, -3e-10, *tol["lines/0/params/center"])
    assert _compare(0.02, 0.02 * (1 + 2 * RTOL),
                    *tol["lines/0/params/amplitude"])
    assert _compare([1.0, 2.0], [1.0, 2.0, 3.0], RTOL, 0.0)
    assert _compare([], ["poor-fit"], RTOL, 0.0)


def _dump(table):
    """JSON with each CSV column on one line."""
    text = json.dumps(table, indent=1, sort_keys=True)
    return re.sub(r"\[[-+0-9.eE,\s]+\]",
                  lambda m: " ".join(m.group().split()), text) + "\n"


if __name__ == "__main__":
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {"values": {}}
    with tempfile.TemporaryDirectory() as tmp:
        table = {"values": _values(tmp, run_matrix(tmp))}
    TABLE.write_text(_dump(table))
    print(f"wrote {TABLE}")
    for line in _mismatches(old["values"], table["values"]):
        print(f"moved {line}")
