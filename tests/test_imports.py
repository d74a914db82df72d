"""What ``import symtomo`` loads, and the helpers that let it leave scipy out."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.fft

from symtomo.radon import _next_fast_len

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_out_scipy():
    # scipy.fft and scipy.linalg took about 0.3 s of every CLI start; the
    # library runs on numpy.fft, and only `check`'s random draws import
    # scipy.linalg.expm, when they run.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys, symtomo.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == [], f"import symtomo.cli loaded {out.stdout.strip()}"


def test_next_fast_len_is_scipys_real_length():
    # Equal FFT lengths keep the line integral bit-identical to its scipy.fft form.
    assert [_next_fast_len(n) for n in range(1, 5001)] == \
        [scipy.fft.next_fast_len(n, real=True) for n in range(1, 5001)]
