"""Artifact digests of a small config matrix: every experiment kind, with
and without readout noise and Monte-Carlo dephasing.

A refactor keeps every artifact byte-identical.  This test reruns the
matrix in digest_configs.json and compares the sha256 of every file that
each run's manifest lists against digest_table.json.  Those bits depend on
the Python, numpy and scipy builds, so the table records the versions it
was made with, and on any other versions the test is skipped with both
sets named.

Regenerate the table after a change that is meant to move a digest, and
say in CHANGES.md which runs moved and why:

    PYTHONPATH=src python tests/test_digests.py

It prints each run/file whose digest differs from the table it replaces.
"""

import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from dotqed import experiments

CONFIGS = Path(__file__).with_name("digest_configs.json")
TABLE = Path(__file__).with_name("digest_table.json")


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _digests(root):
    """{run name: {file name: sha256}} over every file of every manifest."""
    matrix = json.loads(CONFIGS.read_text())
    digests = {}
    for name, raw in matrix["configs"].items():
        cfg = experiments.validate_config(
            dict(raw, device=matrix["device"]), seed=matrix["seed"],
            output_dir=str(Path(root) / name))
        manifest = experiments.run_experiment(cfg)
        digests[name] = {f["name"]: f["sha256"] for f in manifest.files}
    return digests


def test_artifacts_match_recorded_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    if table["versions"] != _versions():
        pytest.skip(f"digest table made with {table['versions']}, "
                    f"running {_versions()}; regenerate it to compare")
    differ = _differing(table["digests"], _digests(tmp_path))
    assert not differ, f"artifacts differ from {TABLE.name}: {differ}"


def _differing(want, got):
    """run/file names whose digest is in one table only or differs."""
    return [f"{name}/{file}"
            for name in sorted(want.keys() | got.keys())
            for file in sorted(want.get(name, {}).keys()
                               | got.get(name, {}).keys())
            if want.get(name, {}).get(file) != got.get(name, {}).get(file)]


if __name__ == "__main__":
    old = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        table = {"versions": _versions(), "digests": _digests(tmp)}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
    if old["versions"] != table["versions"]:
        print(f"versions changed: {old['versions']} -> {table['versions']}")
    for moved in _differing(old["digests"], table["digests"]):
        print(f"moved {moved}")
