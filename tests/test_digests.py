"""Artifact digests of a small config matrix: every experiment kind, with
and without readout noise and Monte-Carlo dephasing.

A refactor keeps every artifact byte-identical.  This test reruns the
matrix in digest_configs.json and compares the sha256 of every file that
each run's manifest lists against digest_table.json.  Those bits depend on
the Python, numpy and scipy builds and on the BLAS kernel that numpy picks
for the CPU, so the table records the versions it was made with and a
fingerprint of that kernel: the sha256 of a few complex matrix products and
one solve.  On any other versions or kernel the test is skipped with both
sets named; test_values.py still holds the same artifacts to their values.

Regenerate the table after a change that is meant to move a digest, and
say in CHANGES.md which runs moved and why:

    PYTHONPATH=src python tests/test_digests.py

It prints each run/file whose digest differs from the table it replaces.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from digest_matrix import run_matrix

TABLE = Path(__file__).with_name("digest_table.json")


def _blas_fingerprint():
    """sha256 of complex products of four sizes and one solve.

    Each BLAS kernel rounds these differently, and one or two threads
    round them alike.
    """
    rng = np.random.default_rng(20260818)
    h = hashlib.sha256()
    for n in (2, 5, 16, 61):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h.update((a @ b).tobytes())
    h.update(np.linalg.solve(a, b).tobytes())
    return h.hexdigest()


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas_fingerprint()}


def _digests(manifests):
    """{run name: {file name: sha256}} over every file of every manifest."""
    return {name: {f["name"]: f["sha256"] for f in manifest.files}
            for name, manifest in manifests.items()}


def test_artifacts_match_recorded_digests(digest_runs):
    table = json.loads(TABLE.read_text())
    if table["versions"] != _versions():
        pytest.skip(f"digest table made with {table['versions']}, "
                    f"running {_versions()}; regenerate it to compare")
    differ = _differing(table["digests"], _digests(digest_runs[1]))
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
        table = {"versions": _versions(), "digests": _digests(run_matrix(tmp))}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
    if old["versions"] != table["versions"]:
        print(f"versions changed: {old['versions']} -> {table['versions']}")
    for moved in _differing(old["digests"], table["digests"]):
        print(f"moved {moved}")
