"""Monte Carlo experiment drivers and the bundled benchmark systems.

Three entry points mirror the CLI subcommands:

* :func:`run_example` — one of the bundled benchmark generators;
* :func:`run_model` — a user-supplied model file;
* :func:`analyze_panel` — a user-supplied data panel (no reference, so
  no MSE scoring).

The Monte Carlo protocol: for realization ``r`` simulate with seed
``base_seed + r``, fit each selected method, compute the total PDC of
every fitted factor, and score it against the total PDC of the
generating model (reduced to innovation form, so references and
estimates share the zero-lag normalization).  Parametric estimates are
evaluated on a fixed 512-point grid; the nonparametric (Welch + Wilson,
method tag ``wn``) estimate lives on its segment-length grid, with the
reference evaluated there for scoring.  Total DTF is computed only for
the fields that are written: realization 0 and the analyzed panel.
Short realizations are simulated and fitted in groups, sized by
:data:`LATTICE_GROUP_SAMPLES`: one call of ``estimators._fit_group``
makes every parametric fit of a group from one set of lag products, with
one batched Nuttall-Strand lattice and one minimum-phase stack per VMA or
VARMA fit, and one Wilson stack factors the group's Welch estimates (see
:func:`_group_fields`).  Each realization's results are bit-identical to
fitting it alone, and a group is one task of the process pool.  A data
panel is analyzed as a group of one.

A run's serial work overlaps its pool: every group is submitted, then
the parent computes the reference fields while the workers fit.  The
groups are scored in realization order as they return and then dropped;
realization 0's fields, the only ones written, go to disk as soon as its
group is scored, so a run's memory does not grow with the number of
realizations.  The summary and the MSE tables follow the last group.  A
serial run does the same work in the same order.  Warnings raised while
fitting, in a worker or not, reach the caller in realization order, a
group's Welch and Wilson warnings ahead of its other fits'.

Every source gets its default methods and orders from one rule (see
:func:`_resolve_methods_and_orders`); a data panel has no generator and
counts as p = q = 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .connectivity import (
    ConnectivityField,
    mse_vs_reference,
    save_field_csv,
    total_dtf,
    total_pdc,
)
from .errors import ConfigError
from .estimators import DEFAULT_LONG_AR_ORDER, DEFAULT_VAR_P_MAX, _fit_group, _warn_if_unstable
from .models import (
    FrequencyGrid,
    VarmaModel,
    innovation_form,
    ma_root_report,
    transfer_function,
)
from .simulate import _check_panel, load_panel_csv, simulate
from .welch import _check_segment_len, welch_cross_spectrum
from .wilson import _factorize_stack

# bench/tracing.py wraps these names here; the runs below fit and factor
# through _fit_group and the Wilson stack instead, so they stay bound for it
from .estimators import fit_var, fit_vma, fit_varma  # noqa: F401
from .wilson import wilson_factorize  # noqa: F401

__all__ = ["ExperimentSpec", "example_model", "run_example", "run_model", "analyze_panel"]

KNOWN_METHODS = ("var", "vma", "varma", "wn")
PARAMETRIC_GRID_POINTS = 512

#: bundled examples whose default VMA order is not their MA order.
#: The second system carries an ARMA resonance whose pure-MA approximant
#: needs a long lag window; order 20 keeps the truncation bias of that
#: approximant below the sampling noise at the benchmark sample sizes.
EXAMPLE_VMA_Q = {2: 20}

#: realizations per group are ``max(1, LATTICE_GROUP_SAMPLES // (N n_s))``: eight
#: at N = 2 and five at N = 3 for n_s = 1024, one at n_s = 16384.  Measured on the
#: benchmark's mc-ex1-short workload (32 example-1 realizations at n_s = 1024 a call,
#: 1 BLAS thread): while a group's lattice kept its buffers to the end, groups of 4,
#: 16 and 32 took a median 0.270, 0.244 and 0.224 s a call in five rounds, gaps
#: smaller than the quartile spread of groups of four (0.259-0.345 s), at a peak RSS
#: of 44.5, 46.2 and 48.8 MB.  With the buffers freed at the deepest order the fits
#: read, groups of eight, with the group's Welch estimates factored as one Wilson
#: stack, took it from 0.273 to 0.230 s a call (medians of 10 alternating pairs
#: against groups of four), at a peak RSS of 44.18 MB against 44.13.
LATTICE_GROUP_SAMPLES = 16384

#: the spec fields :func:`analyze_panel` reads, the only ones its summary records
_ANALYZE_FIELDS = ("panel_path", "methods", "orders", "segment_len", "out_dir")


@dataclass
class ExperimentSpec:
    """Configuration of one experiment run."""

    example_id: int | None = None
    model_path: str | None = None
    panel_path: str | None = None
    n_samples: int = 16384
    n_realizations: int = 100
    methods: tuple = ()
    orders: tuple | None = None
    base_seed: int = 0
    segment_len: int = 256
    n_jobs: int = 1
    out_dir: str = "results"

    def __post_init__(self):
        self.methods = tuple(self.methods)
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be positive, got {self.n_samples}")
        if self.n_realizations < 1:
            raise ConfigError(f"need at least one realization, got {self.n_realizations}")
        if self.n_jobs < 1:
            raise ConfigError(f"need at least one job, got {self.n_jobs}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative, got {self.base_seed}")
        _check_segment_len(self.segment_len)
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {KNOWN_METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"each method may be given once, got {self.methods}")
        if self.orders is not None:
            try:
                p, q = (int(o) for o in self.orders)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"orders must be a pair of integers (p, q), got {self.orders!r}") from exc
            if p < 0 or q < 0 or p + q == 0:
                raise ConfigError(f"orders must be non-negative and not both zero, got ({p}, {q})")
            self.orders = (p, q)

    def config_hash(self) -> str:
        return _config_hash(asdict(self))


def _config_hash(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def example_model(example_id: int) -> VarmaModel:
    """The bundled benchmark generators (1, 2, and 4).

    Number 3 is deliberately absent: its published description has no
    usable parameter values, so requests for it are rejected rather than
    silently substituted.
    """
    if example_id == 1:
        ma = np.array([np.eye(2), [[0.0, 1.0], [0.0, 1.0]]])
        sigma = np.array([[1.0, 1.0], [1.0, 5.0]])
        return VarmaModel(np.zeros((0, 2, 2)), ma, sigma)
    if example_id == 2:
        r, theta, b, a, c = 0.95, np.pi / 3.0, 0.5, -0.5, 0.7
        ar = np.array(
            [
                [[2.0 * r * np.cos(theta), 0.0, 0.0], [b, a, 0.0], [0.0, 0.0, c]],
                [[-r * r, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            ]
        )
        ma = np.array(
            [
                [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            ]
        )
        return VarmaModel(ar, ma, np.eye(3))
    if example_id == 4:
        ma = np.array([np.eye(2), [[2.0, 1.0], [0.0, 0.0]], [[4.0, 2.0], [0.0, 2.0]]])
        sigma = np.array([[1.0, 1.0], [1.0, 5.0]])
        return VarmaModel(np.zeros((0, 2, 2)), ma, sigma)
    if example_id == 3:
        raise ConfigError(
            "example 3 is not reproducible: no usable parameter values were published "
            "for it; define the system yourself and use the 'model' subcommand instead"
        )
    raise ConfigError(f"unknown example {example_id}; available examples: 1, 2, 4")


def _resolve_methods_and_orders(spec: ExperimentSpec, model: VarmaModel | None):
    """``(methods, vma_q, varma_pq)`` for a generator, or a panel (``model=None``).

    With ``(p, q)`` the generator's orders (``0, 0`` for a panel) the
    defaults are ``var``, then ``vma`` if q >= 1, then ``varma`` if p, q >= 1,
    then ``wn``; ``vma_q = q`` (or :data:`EXAMPLE_VMA_Q`) and ``varma_pq = (p, q)``.
    Explicit ``spec.methods`` replace the methods and ``spec.orders`` both
    orders; ``vma``/``varma`` without a positive order raise ``ConfigError``.
    """
    p, q = (model.ar_order, model.ma_order) if model is not None else (0, 0)
    vma_q = EXAMPLE_VMA_Q.get(spec.example_id, q) if q >= 1 else None
    varma_pq = (p, q) if p >= 1 and q >= 1 else None
    methods = spec.methods or (
        ("var",) + ("vma",) * bool(vma_q) + ("varma",) * bool(varma_pq) + ("wn",)
    )
    if spec.orders is not None:
        p, q = spec.orders
        vma_q = q if q >= 1 else None
        varma_pq = (p, q) if p >= 1 else None
    if "vma" in methods and not vma_q:
        raise ConfigError("method 'vma' needs a positive MA order; pass --orders p,q")
    if "varma" in methods and not varma_pq:
        raise ConfigError("method 'varma' needs a positive AR order; pass --orders p,q")
    return tuple(methods), vma_q, varma_pq


def _method_fits(methods, vma_q, varma_pq) -> dict:
    """The ``estimators._fit_group`` fit of each parametric method of ``methods``."""
    fits = {}
    for method in methods:
        if method == "var":
            fits[method] = ("var", DEFAULT_VAR_P_MAX)
        elif method == "vma":
            fits[method] = ("two_step", 0, vma_q, DEFAULT_LONG_AR_ORDER)
        elif method == "varma":
            fits[method] = ("two_step", *varma_pq, DEFAULT_LONG_AR_ORDER)
    return fits


def _wn_factors(panels, segment_len: int) -> list:
    """Each panel's Welch + Wilson factor, or the error its own fit raises; one Wilson stack for all."""
    spectra = []
    for panel in panels:
        try:
            _check_panel(panel)  # Wilson cannot factor the singular spectrum of a constant channel
            spectra.append(welch_cross_spectrum(panel, segment_len=segment_len))
        except ConfigError as exc:  # raised by _panel_fields, in its turn
            spectra.append(exc)
    factors = iter(_factorize_stack([s for s in spectra if not isinstance(s, Exception)]))
    return [s if isinstance(s, Exception) else next(factors) for s in spectra]


def _panel_fields(outcomes: dict, methods, with_dtf: bool):
    """One panel's tPDC, tDTF and order dicts keyed by method, from its ``outcomes`` by method.

    An outcome is a parametric fit's ``FitReport``, the ``wn`` factor, or
    the error either raised, which is raised when the method loop reaches
    it; an unstable VARMA fit warns there.  The tDTF dict stays empty
    unless ``with_dtf``: only written fields need it.
    """
    grid = FrequencyGrid(PARAMETRIC_GRID_POINTS)
    tpdc_fields, tdtf_fields, orders_used = {}, {}, {}
    for method in methods:
        outcome = outcomes[method]
        if isinstance(outcome, Exception):
            raise outcome
        if method == "wn":
            factor, order = outcome, None
        else:
            if method == "varma":
                _warn_if_unstable(outcome, 1)
            factor, order = transfer_function(outcome.model, grid), outcome.selected_order
        tpdc_fields[method] = total_pdc(factor, method_tag=method)
        if with_dtf:
            tdtf_fields[method] = total_dtf(factor, method_tag=method)
        orders_used[method] = order
    return tpdc_fields, tdtf_fields, orders_used


def _group_fields(panels, spec: ExperimentSpec, methods, vma_q, varma_pq, dtf_first: bool):
    """Fit every method to each of ``panels`` as one group; one ``(tPDC, tDTF, orders)`` triple each.

    The group's Welch spectra are factored as one Wilson stack, then one
    ``estimators._fit_group`` call makes every parametric fit of every
    panel.  Each panel's fields are bit-identical to those it gets alone,
    and the first error raised is the one a panel-by-panel,
    method-by-method run would raise first.  Only the first panel gets
    tDTF fields, and only if ``dtf_first``.
    """
    fits = _method_fits(methods, vma_q, varma_pq)
    wn = _wn_factors(panels, spec.segment_len) if "wn" in methods else [None] * len(panels)
    fitted = _fit_group(panels, list(fits.values()))
    return [
        _panel_fields({"wn": factor, **{m: own[fit] for m, fit in fits.items()}}, methods, dtf_first and i == 0)
        for i, (own, factor) in enumerate(zip(fitted, wn))
    ]


def _realization_fields(model: VarmaModel, spec: ExperimentSpec, methods, vma_q, varma_pq, rs):
    """Simulate realizations ``rs`` and fit them as one group (see :func:`_group_fields`).

    Returns one ``(tPDC, tDTF, orders)`` triple per realization, in order,
    and the warnings the group raised as ``(category, message, filename,
    lineno, module)`` tuples, which pickle, so a pool worker's warnings
    reach the caller (see :func:`_fold_groups`); only realization 0 gets
    tDTF fields.  ``module`` is the name of the module the warning was
    attributed to, looked up from its file name, or None.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        panels = [simulate(model, spec.n_samples, spec.base_seed + r) for r in rs]
        fields = _group_fields(panels, spec, methods, vma_q, varma_pq, dtf_first=rs[0] == 0)
    modules = {getattr(m, "__file__", None): name for name, m in list(sys.modules.items())} if caught else {}
    return fields, [
        (w.category, str(w.message), w.filename, w.lineno, modules.get(w.filename)) for w in caught
    ]


def _reference_fields(model: VarmaModel, spec: ExperimentSpec):
    """Theoretical tPDC/tDTF on the parametric and Welch grids."""
    canonical = innovation_form(model)
    refs = {}
    for tag, n_points in (("theory", PARAMETRIC_GRID_POINTS), ("theory-wn", spec.segment_len)):
        factor = transfer_function(canonical, FrequencyGrid(n_points))
        refs[tag] = (
            total_pdc(factor, method_tag=tag),
            total_dtf(factor, method_tag=tag),
        )
    return refs


def _spurious_links(reference: ConnectivityField, per_method_mean: dict):
    """Off-diagonal entries that are exactly zero in theory but large in fits.

    "Large" means the real part averaged over the open band and over all
    realizations exceeds 0.1 in *every* selected method — a link that all
    factorizations agree on even though the generator has none.  The
    band mean (Nyquist excluded, as in the MSE) is deliberately not a
    grid maximum: a spectral zero on the unit circle leaves estimates
    unconstrained in its shrinking neighborhood, which inflates the peak
    without indicating a spurious link.
    """
    n = reference.n_channels
    theory_zero = np.max(np.abs(reference.values), axis=0) < 1e-12
    entries = []
    for i in range(n):
        for j in range(n):
            if i == j or not theory_zero[i, j]:
                continue
            if per_method_mean and all(m[i, j] > 0.1 for m in per_method_mean.values()):
                entries.append([i + 1, j + 1])
    return entries


def _write_bundle(
    spec: ExperimentSpec, model: VarmaModel, methods, orders, mse, spurious_entries, partial: Path
) -> dict:
    """Write ``summary.json`` and the MSE tables, then rename ``partial`` to ``fields_r0.csv``.

    ``partial`` holds realization 0's fields, written by :func:`_fold_groups`
    while the later groups ran; it is renamed last.  Returns the summary.
    """
    out = Path(spec.out_dir)
    summary = {
        "config": asdict(spec),
        "config_hash": spec.config_hash(),
        "model_hash": model.content_hash(),
        "seeds": [spec.base_seed + r for r in range(spec.n_realizations)],
        "methods": list(methods),
        "selected_orders": {m: list(o) if o else None for m, o in orders.items()},
        "mse": {m: float(np.mean(v)) for m, v in mse.items()},
        "mse_per_realization": {m: [float(x) for x in v] for m, v in mse.items()},
        "nonminimum_phase_generator": ma_root_report(model).classification == "nonminimum-phase",
        "spurious_link_detected": bool(spurious_entries),
        "spurious_entries": spurious_entries,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(out / "mse_table.txt", "w") as fh:
        fh.write(f"{'method':<10}{'mean tPDC MSE':>16}\n")
        for m in methods:
            fh.write(f"{m:<10}{summary['mse'][m]:>16.6e}\n")
    with open(out / "mse_table.csv", "w") as fh:
        fh.write("method,mse\n")
        for m in methods:
            fh.write(f"{m},{summary['mse'][m]:.17g}\n")
    os.replace(partial, out / "fields_r0.csv")
    return summary


def _score_group(group, methods, refs, mse, band_sums) -> None:
    """Append each realization's tPDC MSE to ``mse`` and add its band mean to ``band_sums``."""
    for tpdc_fields, _, _ in group:
        for m in methods:
            est = tpdc_fields[m]
            ref = refs["theory-wn"][0] if m == "wn" else refs["theory"][0]
            mse[m].append(mse_vs_reference(est, ref))
            band = est.values[:-1].real.mean(axis=0)
            band_sums[m] = band if band_sums[m] is None else band_sums[m] + band


def _fold_groups(per_group, methods, refs, mse, band_sums, partial: Path):
    """Score the groups as they arrive, in realization order; returns realization 0's orders.

    Realization 0's group is scored, its other members are dropped, and
    realization 0's tPDC and tDTF fields are written with the references
    to ``partial`` at once, before the next group is taken from
    ``per_group``; with a pool, the later groups run meanwhile.  Every
    group is dropped once scored, so the fold holds no fields but one
    group's.  The warnings each group recorded are re-emitted first, in
    realization order and with their module, so ``module=`` filters apply;
    under the default filter each distinct one shows once per run.
    """
    registry = {}
    orders = None
    for group, caught in per_group:
        for category, message, filename, lineno, module in caught:
            warnings.warn_explicit(message, category, filename, lineno, module, registry)
        _score_group(group, methods, refs, mse, band_sums)
        if orders is None:
            tpdc, tdtf, orders = group[0]
            del group[1:]  # realization 0's group-mates go before its fields are written
            partial.parent.mkdir(parents=True, exist_ok=True)
            save_field_csv(
                [f for tag in ("theory", "theory-wn") for f in refs[tag]]
                + [f for m in methods for f in (tpdc[m], tdtf[m])],
                partial,
            )
            del tpdc, tdtf
        del group
    return orders


def _run_monte_carlo(model: VarmaModel, spec: ExperimentSpec) -> dict:
    """Run the Monte Carlo protocol on ``model`` and write its bundle; returns the summary.

    With a pool every group is submitted first, and the parent computes
    the reference fields while the workers fit.  The groups are then
    folded in realization order (see :func:`_fold_groups`): realization
    0's fields are written to ``fields_r0.csv.partial`` as soon as its
    group is scored, and each group is dropped once scored, so the run
    holds one group's fields, however many realizations run; a group that
    a worker returns before its turn waits in its future.  The summary
    and MSE tables follow the last group, and the partial file is renamed
    to ``fields_r0.csv`` last.  The serial run takes the same steps in the
    same order, each group fitted when the fold asks for it.

    Any exception cancels the groups that have not started, removes the
    partial file and leaves an earlier bundle's ``fields_r0.csv`` in place.
    """
    methods, vma_q, varma_pq = _resolve_methods_and_orders(spec, model)
    mse = {m: [] for m in methods}
    mean_real = {m: None for m in methods}

    size = max(1, LATTICE_GROUP_SAMPLES // (model.n_channels * spec.n_samples))
    groups = [range(r, min(r + size, spec.n_realizations)) for r in range(0, spec.n_realizations, size)]
    args = [(model, spec, methods, vma_q, varma_pq, rs) for rs in groups]
    # clamped here, not in the spec, so the recorded config stays machine-independent
    workers = min(spec.n_jobs, len(groups), os.cpu_count() or 1)
    partial = Path(spec.out_dir) / "fields_r0.csv.partial"
    try:
        with contextlib.ExitStack() as stack:
            if workers > 1:
                # imported here, not at the top: the pool brings in multiprocessing
                # (1.2-1.6 MB of resident memory), which serial runs and analyze never use
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(max_workers=workers)
                # leaving the pool's own context would wait for every submitted group
                stack.callback(pool.shutdown, cancel_futures=True)
                per_group = pool.map(_realization_fields, *zip(*args))  # submits every group
            else:
                per_group = (_realization_fields(*a) for a in args)
            refs = _reference_fields(model, spec)
            orders = _fold_groups(per_group, methods, refs, mse, mean_real, partial)

        for m in methods:
            mean_real[m] /= spec.n_realizations
        spurious_entries = _spurious_links(refs["theory"][0], mean_real)
        return _write_bundle(spec, model, methods, orders, mse, spurious_entries, partial)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def run_example(spec: ExperimentSpec) -> dict:
    """Run the Monte Carlo protocol on a bundled example; returns the summary."""
    if spec.example_id is None:
        raise ConfigError("run_example needs spec.example_id")
    return _run_monte_carlo(example_model(spec.example_id), spec)


def run_model(spec: ExperimentSpec) -> dict:
    """Same protocol as :func:`run_example` for a model-file generator."""
    if spec.model_path is None:
        raise ConfigError("run_model needs spec.model_path")
    return _run_monte_carlo(VarmaModel.load_json(spec.model_path), spec)


def analyze_panel(spec: ExperimentSpec) -> dict:
    """Fit the selected methods to an existing panel CSV and export fields.

    There is no generating model, hence no reference and no MSE column;
    ``vma``/``varma`` must be given explicit orders.  Of the spec it reads
    only the :data:`_ANALYZE_FIELDS`, and only those are recorded under
    ``config`` in ``summary.json`` and hashed into ``config_hash``.
    """
    if spec.panel_path is None:
        raise ConfigError("analyze_panel needs spec.panel_path")
    panel = load_panel_csv(spec.panel_path)
    if panel.n_channels < 2:
        raise ConfigError("need at least 2 channels for connectivity analysis")
    methods, vma_q, varma_pq = _resolve_methods_and_orders(spec, None)

    ((tpdc_fields, tdtf_fields, orders),) = _group_fields(
        [panel], spec, methods, vma_q, varma_pq, dtf_first=True
    )
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_field_csv([f for m in methods for f in (tpdc_fields[m], tdtf_fields[m])], out / "fields.csv")
    config = {k: v for k, v in asdict(spec).items() if k in _ANALYZE_FIELDS}
    summary = {
        "config": config,
        "config_hash": _config_hash(config),
        "panel": {"n_channels": panel.n_channels, "n_samples": panel.n_samples},
        "methods": list(methods),
        "selected_orders": {m: list(o) if o else None for m, o in orders.items()},
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
