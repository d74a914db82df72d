"""What ``import symtomo`` loads, and the helpers that let it run on numpy
alone."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from symtomo.checks import CONTRACT, random_free_symplectic, random_symplectic
from symtomo.metaplectic import standard_symplectic_form
from symtomo.radon import _next_fast_len

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code: str) -> str:
    """The stdout of ``python -c code`` with the package's source on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_out_scipy():
    # scipy.fft and scipy.linalg took about 0.3 s of every CLI start; the
    # library, `check` and its random draws run on numpy alone.
    out = _run_python("import sys, symtomo.cli; "
                      "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    assert out.split() == [], f"import symtomo.cli loaded {out.strip()}"


def test_draws_and_check_run_without_scipy():
    # None in sys.modules makes every `import scipy...` raise ImportError.
    out = _run_python(
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from symtomo.checks import random_free_symplectic, random_symplectic, run_checks\n"
        "rng = np.random.default_rng(0)\n"
        "random_symplectic(rng), random_free_symplectic(rng, 0.5 * np.eye(2))\n"
        "for o in run_checks(seed=0): print(o.name, o.passed)\n")
    outcomes = dict(line.split() for line in out.splitlines())
    assert len(outcomes) == len(CONTRACT) and set(outcomes.values()) == {"True"}, out


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1))
def test_random_draws_are_symplectic(seed):
    """Each Cayley draw S has |S^T J S - J| <= 1e-14 |S|^2 (spectral norms)."""
    rng = np.random.default_rng(seed)
    for s in (random_symplectic(rng), random_free_symplectic(rng, 0.5 * np.eye(2)).base.matrix):
        j = standard_symplectic_form(len(s) // 2)
        assert np.linalg.norm(s.T @ j @ s - j, 2) <= 1e-14 * np.linalg.norm(s, 2) ** 2


def test_next_fast_len_is_scipys_real_length():
    # Equal FFT lengths keep the line integral bit-identical to its scipy.fft form.
    assert [_next_fast_len(n) for n in range(1, 5001)] == \
        [scipy.fft.next_fast_len(n, real=True) for n in range(1, 5001)]
