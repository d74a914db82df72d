"""What ``import symtomo`` loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_out_scipy_interpolate():
    # scipy.interpolate took about 0.34 s of the package import; the line
    # integral works in Fourier space without it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys, symtomo; "
            "assert 'scipy.interpolate' not in sys.modules, 'scipy.interpolate imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
