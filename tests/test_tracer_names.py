"""The library names that the benchmark's span tracer patches.

``perfbench/spans.py`` wraps functions by module and name (``WRAPPED``) and
reads some of their arguments by parameter name (``COUNTERS``).  It is
loaded here by path, unedited, so renaming one of those functions or
parameters fails Tier-1 rather than the benchmark.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import symtomo
import symtomo.cli  # noqa: F401  (the tracer reaches the modules as package attributes)
import symtomo.serialization  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The parameters each counter of spans.COUNTERS reads by name.
COUNTER_PARAMETERS = {
    "grids.hbar_fourier": ("psi",),
    "radon.inverse_radon": ("tomos",),
    "radon.radon_line_integral": ("w", "step_fraction"),
    "radon.compute_tomogram_set": ("route",),
    "serialization.save_tomogram_set": ("ts",),
    "serialization.load_tomogram_set": (),
    "serialization.save_wigner": ("w",),
    "serialization.load_wigner": (),
    "serialization.save_wigner_csv": ("path",),
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_wrapped_names_resolve_with_counted_parameters():
    spans = load_spans()
    assert set(spans.COUNTERS) == set(COUNTER_PARAMETERS)
    for module, names in spans.WRAPPED.items():
        for name in names:
            fn = getattr(getattr(symtomo, module), name)
            assert callable(fn), f"{module}.{name}"
            params = inspect.signature(fn).parameters
            for param in COUNTER_PARAMETERS.get(f"{module}.{name}", ()):
                assert param in params, f"{module}.{name} lost parameter {param!r}"
    # radon keeps the import so that the tracer patches the name there too
    assert symtomo.radon.hbar_fourier is symtomo.grids.hbar_fourier
