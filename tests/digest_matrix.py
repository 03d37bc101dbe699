"""The digest matrix of digest_configs.json: every experiment kind, with and
without readout noise and Monte-Carlo dephasing.  test_digests.py holds its
artifacts to byte digests and test_values.py to recorded values."""

import json
from pathlib import Path

from dotqed import experiments

CONFIGS = Path(__file__).with_name("digest_configs.json")


def run_matrix(root):
    """Run every config of the matrix under root; {run name: manifest}."""
    matrix = json.loads(CONFIGS.read_text())
    manifests = {}
    for name, raw in matrix["configs"].items():
        cfg = experiments.validate_config(
            dict(raw, device=matrix["device"]), seed=matrix["seed"],
            output_dir=str(Path(root) / name))
        manifests[name] = experiments.run_experiment(cfg)
    return manifests
