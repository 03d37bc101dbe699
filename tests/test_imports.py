import os
import subprocess
import sys
from pathlib import Path

# scipy subpackages that dotqed does not use; loading them (scipy.signal
# pulls in the rest) took about 0.6 s of a 1.5-1.8 s `import dotqed.cli`,
# and scipy.optimize, which loads scipy.special and scipy.constants, about
# 0.09 s of a 0.28 s one; scipy.sparse.linalg, once loaded for SuperLU,
# about 0.09 s and 10 MiB of RSS; scipy.linalg, because the exponentials of
# the dephasing modes are numpy-only (`dynamics._expm`)
UNUSED_SCIPY = ("scipy.signal", "scipy.integrate", "scipy.stats",
                "scipy.interpolate", "scipy.ndimage", "scipy.optimize",
                "scipy.special", "scipy.constants", "scipy.sparse.linalg",
                "scipy.linalg")


def test_cli_import_leaves_unused_scipy_unloaded():
    code = ("import sys, dotqed.cli; "
            f"print(sorted(set(sys.modules) & set({UNUSED_SCIPY!r})))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]", f"import dotqed.cli loaded {out.strip()}"
