"""The benchmark's workloads and the seeded inputs each one hands the program.

Inputs come in ``N_SLOTS`` slots; a slot fixes every random choice of
one call's inputs, so ``expected.json`` can hold the recorded outputs of
every slot.  The workload seed picks the slots of a run (see
``call_seed``), so the same seed always gives the same inputs.

Run as a script, this module builds one workload's inputs in a fresh
interpreter, which is what ``setup_s`` times::

    python3 bench/workloads.py <workload> <seed> <work_dir>
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "spectralgc" / "__init__.py").is_file():
    sys.exit(f"benchmark: no spectralgc sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from spectralgc.experiments import ExperimentSpec, example_model  # noqa: E402
from spectralgc.models import VarmaModel, ar_root_report  # noqa: E402
from spectralgc.simulate import save_panel_csv, simulate  # noqa: E402

N_SLOTS = 64
SLOT_CYCLE = 8

#: the generating model of the ``analyze-wide`` panel
PANEL_CHANNELS = 7
PANEL_ORDERS = (2, 1)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: which entry point runs, on what, per call."""

    name: str
    entry: str  # "run_example" or "analyze_panel"
    n_samples: int
    methods: tuple
    example_id: int | None = None
    n_realizations: int = 1  # Monte Carlo realizations per call
    n_jobs: int = 1

    @property
    def units_per_call(self) -> int:
        """Realizations (Monte Carlo) or panels (analyze) finished by one call."""
        return self.n_realizations if self.entry == "run_example" else 1

    @property
    def inputs_key(self) -> str:
        """Names the inputs, so workloads that differ only in n_jobs share recorded outputs."""
        if self.entry == "analyze_panel":
            return f"panel{PANEL_CHANNELS}x{self.n_samples}"
        return f"example{self.example_id}-ns{self.n_samples}-R{self.n_realizations}"


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline table row and the single-process baseline: time-domain
        # layers dominate (simulate's Python AR loop, three Nuttall-Strand lattices).
        Workload("mc-ex2-long", "run_example", 16384, ("var", "vma", "varma", "wn"),
                 example_id=2, n_realizations=4),
        # Bypasses simulate (vectorised for MA-only models); short panels make the lattice
        # cheap, so Wilson, transfer_function, the measures and minimum-phase swaps carry it.
        Workload("mc-ex1-short", "run_example", 1024, ("var", "vma", "wn"),
                 example_id=1, n_realizations=32),
        # N = 7 from a file: no simulate, no scoring; loads the N!-cost root reports in
        # models, load_panel_csv and the save_field_csv writer, which the Monte Carlo rows hide.
        Workload("analyze-wide", "analyze_panel", 16384, ("var", "vma", "varma", "wn")),
        # The inputs of mc-ex2-long through the ProcessPoolExecutor path of experiments:
        # fork, realizations in workers, fields pickled back.
        Workload("mc-ex2-jobs2", "run_example", 16384, ("var", "vma", "varma", "wn"),
                 example_id=2, n_realizations=4, n_jobs=2),
    )
}


def slot_of(seed: int) -> int:
    return seed % N_SLOTS


def call_seed(workload: Workload, seed: int, k: int) -> int:
    """The seed of the k-th call of a run.

    Monte Carlo calls cycle through ``SLOT_CYCLE`` consecutive slots: how
    often the minimum-phase guard fires, and so what a call costs, depends
    on the realizations, and a run that covers several slots keeps that
    out of the run-to-run spread.  The cycle bounds how many distinct
    outputs a run must reload and check.  The analyze panel is one file
    built during set-up.
    """
    return seed + k % SLOT_CYCLE if workload.entry == "run_example" else seed


def panel_model(slot: int) -> VarmaModel:
    """A random stable VARMA(2,1) on 7 channels, redrawn until its AR part is stable."""
    rng = np.random.default_rng([slot, PANEL_CHANNELS])
    n = PANEL_CHANNELS
    p, q = PANEL_ORDERS
    while True:
        ar = rng.normal(scale=0.5 / np.sqrt(n), size=(p, n, n))
        ma = np.concatenate([np.eye(n)[None], rng.normal(scale=0.3 / np.sqrt(n), size=(q, n, n))])
        w = rng.normal(size=(n, n))
        model = VarmaModel(ar, ma, w @ w.T / n + np.eye(n))
        if ar_root_report(model).classification == "stable":
            return model


def panel_path(work_dir: Path, workload: Workload) -> Path:
    return work_dir / "inputs" / f"{workload.name}.csv"


def make_spec(workload: Workload, seed: int, work_dir: Path) -> ExperimentSpec:
    """The spec of one call; the analyze panel must already exist (see build_inputs)."""
    out_dir = str(work_dir / "out" / workload.name)
    if workload.entry == "analyze_panel":
        return ExperimentSpec(
            panel_path=str(panel_path(work_dir, workload)),
            n_samples=workload.n_samples,
            methods=workload.methods,
            orders=PANEL_ORDERS,
            out_dir=out_dir,
        )
    return ExperimentSpec(
        example_id=workload.example_id,
        n_samples=workload.n_samples,
        n_realizations=workload.n_realizations,
        methods=workload.methods,
        base_seed=1000 * slot_of(seed),
        n_jobs=workload.n_jobs,
        out_dir=out_dir,
    )


def build_inputs(workload: Workload, seed: int, work_dir: Path) -> ExperimentSpec:
    """Everything the program receives: the spec plus the model, or the panel file."""
    if workload.entry == "analyze_panel":
        slot = slot_of(seed)
        path = panel_path(work_dir, workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_panel_csv(simulate(panel_model(slot), workload.n_samples, seed=slot), path)
    else:
        example_model(workload.example_id)
    return make_spec(workload, seed, work_dir)


if __name__ == "__main__":
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    build_inputs(WORKLOADS[name], seed, work_dir)
