"""The benchmark's own Rabi rotation fit, on synthetic sweeps.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


class RotationFitTest(unittest.TestCase):
    def test_recovers_pi_amplitude_at_any_axis_scale(self):
        for scale in (1e-12, 1.0, 1e9, 1e12):
            amps = np.linspace(0.0, 2.0, 11) * scale
            pe = 0.97 * np.sin(np.pi * amps / (2 * 0.83 * scale)) ** 2
            self.assertAlmostEqual(
                workloads.rotation_pi_amplitude(amps, pe) / scale, 0.83,
                places=6)

    def test_gate_fails_on_a_wrong_rate(self):
        amps = np.linspace(0.0, 2e9, 11)
        pe = np.sin(np.pi * amps / (2 * 1e9)) ** 2
        results = {"amplitudes": amps, "pe": pe, "max_trace_deviation": 0.0,
                   "predicted_pi_amplitude_hz": 0.9e9}
        (_, ok, _), _ = workloads._gate_rabi(results, {})
        self.assertFalse(ok)
        results["predicted_pi_amplitude_hz"] = 1.02e9
        (_, ok, _), _ = workloads._gate_rabi(results, {})
        self.assertTrue(ok)


if __name__ == "__main__":
    unittest.main()
