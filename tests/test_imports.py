"""The package's public names, and what importing it loads.

The package exports the union of its modules' ``__all__`` lists.  It
needs numpy only; scipy is a test dependency.  Only a run with
``n_jobs > 1`` starts a process pool, so only such a run loads
``concurrent.futures.process`` and ``multiprocessing``.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import spectralgc

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("connectivity", "errors", "estimators", "experiments", "models", "simulate", "welch", "wilson")


def test_package_exports_the_union_of_its_modules_all_lists():
    names = spectralgc.__all__
    assert names == sorted(set(names))
    modules = [importlib.import_module(f"spectralgc.{name}") for name in MODULES]
    assert names == sorted(name for module in modules for name in module.__all__)
    namespace = {}
    exec("from spectralgc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == names
    for module in modules:
        for name in module.__all__:
            assert getattr(spectralgc, name) is getattr(module, name), name
    # the star import of spectralgc.simulate rebinds the package attribute to the function
    assert inspect.isfunction(spectralgc.simulate)
    assert spectralgc.simulate is sys.modules["spectralgc.simulate"].simulate

SCRIPT = """
import sys
import tempfile
import numpy as np
from spectralgc import (
    ExperimentSpec, FrequencyGrid, example_model, fit_var, fit_varma, fit_vma, run_example,
    simulate, theoretical_spectrum, wilson_factorize,
)
panel = simulate(example_model(2), 2048, seed=0)
fit_var(panel, p_max=5)
fit_vma(panel, 2, long_ar_order=20)
fit_varma(panel, 2, 2, long_ar_order=20)
wilson_factorize(theoretical_spectrum(example_model(1), FrequencyGrid(64)))
with tempfile.TemporaryDirectory() as out:
    run_example(ExperimentSpec(example_id=1, n_samples=512, n_realizations=2, out_dir=out))
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
print(sorted(name for name in ("concurrent.futures.process", "multiprocessing") if name in sys.modules))
"""


def test_fits_and_factorization_load_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
