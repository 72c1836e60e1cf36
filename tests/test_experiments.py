import concurrent.futures
import gc
import hashlib
import json
import os
import time
import warnings
import weakref

import numpy as np
import pytest

from spectralgc import (
    ConfigError,
    ExperimentSpec,
    FrequencyGrid,
    NumericalError,
    analyze_panel,
    example_model,
    fit_var,
    load_field_csv,
    mse_vs_reference,
    run_example,
    run_model,
    save_panel_csv,
    simulate,
    total_pdc,
    transfer_function,
)
from spectralgc import experiments


def _group_size(example_id, n_samples=1024):
    """Realizations per lattice group of a bundled example."""
    return max(1, experiments.LATTICE_GROUP_SAMPLES // (example_model(example_id).n_channels * n_samples))


def _spec(tmp_path, name="out", **kw):
    defaults = dict(n_samples=1024, n_realizations=2, segment_len=128, out_dir=str(tmp_path / name))
    defaults.update(kw)
    return ExperimentSpec(**defaults)


# ---------------------------------------------------------------- catalogue

def test_example_model_shapes():
    m1 = example_model(1)
    assert (m1.n_channels, m1.ar_order, m1.ma_order) == (2, 0, 1)
    m2 = example_model(2)
    assert (m2.n_channels, m2.ar_order, m2.ma_order) == (3, 2, 2)
    m4 = example_model(4)
    assert (m4.n_channels, m4.ar_order, m4.ma_order) == (2, 0, 2)


def test_example_three_is_rejected_with_explanation():
    with pytest.raises(ConfigError, match="not reproducible"):
        example_model(3)


def test_unknown_example_rejected():
    with pytest.raises(ConfigError, match="unknown example"):
        example_model(7)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(example_id=1, n_realizations=0)
    with pytest.raises(ConfigError, match="n_samples"):
        ExperimentSpec(example_id=1, n_samples=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(example_id=1, methods=("var", "magic"))
    with pytest.raises(ConfigError):
        ExperimentSpec(example_id=1, orders=(0, 0))
    with pytest.raises(ConfigError):
        ExperimentSpec(example_id=1, orders=(-1, 2))
    for not_a_pair in ((1,), (1, 2, 3), 5, ("a", 1)):
        with pytest.raises(ConfigError, match="orders must be a pair of integers"):
            ExperimentSpec(example_id=1, orders=not_a_pair)
    for n_jobs in (0, -4):
        with pytest.raises(ConfigError, match="job"):
            ExperimentSpec(example_id=1, n_jobs=n_jobs)
    with pytest.raises(ConfigError, match="once"):
        ExperimentSpec(example_id=1, methods=("var", "wn", "var"))
    with pytest.raises(ConfigError, match="base_seed"):
        ExperimentSpec(example_id=1, base_seed=-3)


def test_run_example_requires_example_id():
    with pytest.raises(ConfigError):
        run_example(ExperimentSpec())
    with pytest.raises(ConfigError):
        run_model(ExperimentSpec())
    with pytest.raises(ConfigError):
        analyze_panel(ExperimentSpec())


# ---------------------------------------------------------------- bundles

def test_run_example_writes_bundle(tmp_path):
    spec = _spec(tmp_path, example_id=1, methods=("var", "wn"))
    summary = run_example(spec)

    out = tmp_path / "out"
    for name in ("summary.json", "mse_table.txt", "mse_table.csv", "fields_r0.csv"):
        assert (out / name).exists(), name
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == json.loads(json.dumps(summary))  # tuples become lists

    assert summary["methods"] == ["var", "wn"]
    assert summary["seeds"] == [0, 1]
    assert summary["config_hash"] == spec.config_hash()
    assert summary["model_hash"] == example_model(1).content_hash()
    assert not summary["nonminimum_phase_generator"]
    for m in ("var", "wn"):
        per_r = summary["mse_per_realization"][m]
        assert len(per_r) == 2
        assert all(v > 0.0 for v in per_r)
        assert summary["mse"][m] == pytest.approx(np.mean(per_r))
    # the VAR order was selected by the information criterion
    p, q = summary["selected_orders"]["var"]
    assert q == 0 and 1 <= p <= 30

    table = (out / "mse_table.csv").read_text().splitlines()
    assert table[0] == "method,mse"
    assert len(table) == 3


def test_run_example_is_deterministic(tmp_path):
    spec_a = _spec(tmp_path, "a", example_id=1, methods=("var", "wn"), base_seed=3)
    spec_b = _spec(tmp_path, "b", example_id=1, methods=("var", "wn"), base_seed=3)
    run_example(spec_a)
    run_example(spec_b)
    for name in ("fields_r0.csv", "mse_table.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emitted_mse_matches_exported_fields(tmp_path):
    spec = _spec(tmp_path, example_id=1, methods=("var",), n_realizations=1)
    summary = run_example(spec)
    fields = load_field_csv(tmp_path / "out" / "fields_r0.csv")
    by_tag = {(f.kind, f.method_tag): f for f in fields}
    recomputed = mse_vs_reference(by_tag[("tPDC", "var")], by_tag[("tPDC", "theory")])
    assert recomputed == pytest.approx(summary["mse"]["var"], rel=1e-12)


def test_nonminimum_phase_generator_flagged_and_spurious_link_found(tmp_path):
    spec = _spec(
        tmp_path, example_id=4, methods=("var", "wn"), n_samples=4096, n_realizations=2
    )
    summary = run_example(spec)
    assert summary["nonminimum_phase_generator"]
    # every method reports energy on the channel-1 -> channel-2 entry that
    # the generator leaves exactly empty
    assert summary["spurious_link_detected"]
    assert [2, 1] in summary["spurious_entries"]


def test_minimum_phase_example_has_no_spurious_link(tmp_path):
    spec = _spec(
        tmp_path, example_id=1, methods=("var", "wn"), n_samples=4096, n_realizations=2
    )
    summary = run_example(spec)
    assert not summary["nonminimum_phase_generator"]
    assert not summary["spurious_link_detected"]
    assert summary["spurious_entries"] == []


def test_run_model_from_file(tmp_path):
    path = tmp_path / "model.json"
    example_model(1).save_json(path)
    spec = _spec(tmp_path, model_path=str(path), methods=("var", "vma", "wn"), orders=(0, 1))
    summary = run_model(spec)
    assert summary["methods"] == ["var", "vma", "wn"]
    assert summary["mse"]["vma"] < summary["mse"]["wn"] * 10  # sanity: same scale


def test_run_model_default_methods_follow_model_structure(tmp_path):
    path = tmp_path / "model.json"
    example_model(1).save_json(path)  # pure MA: no varma default
    spec = _spec(tmp_path, model_path=str(path))
    summary = run_model(spec)
    assert summary["methods"] == ["var", "vma", "wn"]


# ---------------------------------------------------------------- analyze

def test_analyze_panel_matches_direct_fit(tmp_path):
    panel = simulate(example_model(2), 2048, seed=11)
    csv_path = tmp_path / "panel.csv"
    save_panel_csv(panel, csv_path)

    spec = _spec(tmp_path, panel_path=str(csv_path), methods=("var",))
    summary = analyze_panel(spec)
    assert "mse" not in summary
    assert summary["panel"] == {"n_channels": 3, "n_samples": 2048}

    fields = load_field_csv(tmp_path / "out" / "fields.csv")
    by_tag = {(f.kind, f.method_tag): f for f in fields}
    direct = total_pdc(
        transfer_function(fit_var(panel).model, FrequencyGrid(512)), method_tag="var"
    )
    assert np.array_equal(by_tag[("tPDC", "var")].values, direct.values)


def test_analyze_records_only_the_settings_it_reads(tmp_path):
    csv_path = tmp_path / "panel.csv"
    save_panel_csv(simulate(example_model(1), 4096, seed=4), csv_path)
    spec = ExperimentSpec(panel_path=str(csv_path), methods=("var",), out_dir=str(tmp_path / "out"))
    analyze_panel(spec)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"] == {
        "panel_path": str(csv_path), "methods": ["var"], "orders": None, "segment_len": 256,
        "out_dir": str(tmp_path / "out"),
    }
    assert summary["panel"]["n_samples"] == 4096
    payload = json.dumps(summary["config"], sort_keys=True)
    assert summary["config_hash"] == hashlib.sha256(payload.encode()).hexdigest()


def test_analyze_white_noise_panel_shows_no_links(tmp_path):
    rng = np.random.default_rng(5)
    from spectralgc import TimeSeriesPanel

    panel = TimeSeriesPanel(rng.standard_normal((2, 8192)))
    csv_path = tmp_path / "wn.csv"
    save_panel_csv(panel, csv_path)
    spec = _spec(tmp_path, panel_path=str(csv_path), methods=("var",))
    analyze_panel(spec)
    fields = load_field_csv(tmp_path / "out" / "fields.csv")
    tpdc = next(f for f in fields if f.kind == "tPDC")
    off = np.abs(tpdc.values[:, ~np.eye(2, dtype=bool)])
    assert np.max(off) < 0.05


def test_analyze_rejects_single_channel(tmp_path):
    from spectralgc import TimeSeriesPanel

    panel = TimeSeriesPanel(np.random.default_rng(0).standard_normal((1, 512)))
    csv_path = tmp_path / "one.csv"
    save_panel_csv(panel, csv_path)
    with pytest.raises(ConfigError, match="2 channels"):
        analyze_panel(_spec(tmp_path, panel_path=str(csv_path)))


def test_analyze_vma_requires_orders(tmp_path):
    panel = simulate(example_model(1), 512, seed=0)
    csv_path = tmp_path / "p.csv"
    save_panel_csv(panel, csv_path)
    with pytest.raises(ConfigError, match="MA order"):
        analyze_panel(_spec(tmp_path, panel_path=str(csv_path), methods=("vma",)))
    with pytest.raises(ConfigError, match="AR order"):
        analyze_panel(_spec(tmp_path, panel_path=str(csv_path), methods=("varma",)))


def test_process_pool_writes_the_same_bundle(tmp_path):
    # two groups each, the second one short
    for example_id, n_realizations in ((2, _group_size(2) + 1), (1, _group_size(1) + 2)):
        bundles = {}
        for n_jobs in (1, 2):
            run_example(_spec(tmp_path, example_id=example_id, n_realizations=n_realizations, n_jobs=n_jobs))
            out = tmp_path / "out"
            bundles[n_jobs] = {name: (out / name).read_bytes() for name in ("summary.json", "fields_r0.csv")}
        assert bundles[2]["fields_r0.csv"] == bundles[1]["fields_r0.csv"]
        # the recorded config (and so its hash) is the one line that may differ
        one = bundles[1]["summary.json"].decode().splitlines()
        two = bundles[2]["summary.json"].decode().splitlines()
        differing = [(a, b) for a, b in zip(one, two) if a != b]
        assert len(one) == len(two)
        assert [(a.strip(), b.strip()) for a, b in differing if '"config_hash"' not in a] == [
            ('"n_jobs": 1,', '"n_jobs": 2,')
        ]


def test_process_pool_is_clamped_to_the_work(tmp_path, monkeypatch):
    requested = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers):
        requested.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    fields = {}
    for n_jobs in (1, 8):
        spec = _spec(tmp_path, example_id=1, n_realizations=_group_size(1) + 2, n_jobs=n_jobs)
        summary = run_example(spec)
        assert summary["config"]["n_jobs"] == n_jobs  # recorded as requested
        fields[n_jobs] = (tmp_path / "out" / "fields_r0.csv").read_bytes()
    # a group and two more realizations are two tasks, which never need more
    # than two workers; one CPU runs in-process
    assert requested == ([2] if (os.cpu_count() or 1) > 1 else [])
    assert fields[8] == fields[1]


def test_realization_retains_no_panel(monkeypatch):
    # the panels, and with them their lattice and two-step groups, die when the realizations return
    refs = []
    real_join, real_join_two_step = experiments._join_lattice, experiments._join_two_step

    def tracking_join(panels, depth):
        real_join(panels, depth)
        refs.extend(weakref.ref(panel) for panel in panels)
        refs.append(weakref.ref(panels[0]._memo["lattice"][0]))

    def tracking_join_two_step(panels, fits):
        real_join_two_step(panels, fits)
        refs.append(weakref.ref(panels[0]._memo["two_step"][0]))

    monkeypatch.setattr(experiments, "_join_lattice", tracking_join)
    monkeypatch.setattr(experiments, "_join_two_step", tracking_join_two_step)
    spec = ExperimentSpec(example_id=2, n_samples=1024, n_realizations=2, segment_len=128)
    model = example_model(2)
    methods, vma_q, varma_pq = experiments._resolve_methods_and_orders(spec, model)
    fields, caught = experiments._realization_fields(model, spec, methods, vma_q, varma_pq, [0, 1])
    assert len(refs) == 4 and all(ref() is None for ref in refs)
    assert len(fields) == 2 and all(set(f[0]) == set(methods) for f in fields)
    assert caught == []


@pytest.mark.parametrize("example_id, n_realizations", [(1, 10), (2, 7)])
def test_bundle_does_not_depend_on_the_group_size(tmp_path, monkeypatch, example_id, n_realizations):
    # groups of one, of four and the default size, each run ending in a short group
    per_realization = example_model(example_id).n_channels * 1024
    sizes = (1, 4, _group_size(example_id))
    assert n_realizations % sizes[1] and n_realizations % sizes[2]
    bundles = []
    for size in sizes:
        monkeypatch.setattr(experiments, "LATTICE_GROUP_SAMPLES", size * per_realization)
        assert _group_size(example_id) == size
        run_example(_spec(tmp_path, example_id=example_id, n_realizations=n_realizations))
        bundles.append({name: (tmp_path / "out" / name).read_bytes() for name in ("summary.json", "fields_r0.csv")})
    assert bundles[0] == bundles[1] == bundles[2]


@pytest.mark.parametrize("var_seed, wn_seed", [(1, 3), (3, 1)])
def test_group_raises_its_first_error_in_realization_order(monkeypatch, var_seed, wn_seed):
    # a Welch + Wilson error is held until its realization's turn, as alone
    real_fit_var, real_welch = experiments.fit_var, experiments.welch_cross_spectrum

    def failing_fit_var(panel):
        if panel.meta["seed"] == var_seed:
            raise NumericalError(f"var of seed {var_seed}")
        return real_fit_var(panel)

    def failing_welch(panel, segment_len):
        spectrum = real_welch(panel, segment_len=segment_len)
        if panel.meta["seed"] == wn_seed:
            spectrum.values[:, 0, 0] *= -1.0  # indefinite
        return spectrum

    monkeypatch.setattr(experiments, "fit_var", failing_fit_var)
    monkeypatch.setattr(experiments, "welch_cross_spectrum", failing_welch)
    spec = ExperimentSpec(example_id=1, n_samples=1024, n_realizations=5, segment_len=128)
    model = example_model(1)
    methods, vma_q, varma_pq = experiments._resolve_methods_and_orders(spec, model)
    first = f"var of seed {var_seed}" if var_seed < wn_seed else "input spectrum has eigenvalue"
    with pytest.raises(NumericalError, match=first):
        experiments._realization_fields(model, spec, methods, vma_q, varma_pq, range(5))


def _held(simulate, out, first_held):
    """``simulate``, but realizations from ``first_held`` on wait until ``out`` holds realization 0's fields.

    Patched in before the pool forks, so the workers' groups wait too; a
    minute without the file fails the run.
    """

    def held_simulate(model, n_samples, seed):
        deadline = time.monotonic() + 60.0
        while seed >= first_held and not (out / "fields_r0.csv.partial").exists():
            if time.monotonic() > deadline:
                raise RuntimeError("realization 0's fields were not written before the later groups ran")
            time.sleep(0.005)
        return simulate(model, n_samples, seed)

    return held_simulate


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_bundle_is_written_with_only_realization_0_fields_alive(tmp_path, monkeypatch, n_jobs):
    # realization 0's fields are written as soon as its group is scored, with its
    # group-mates dropped.  The parent then holds realization 0's three tPDC
    # fields plus those of any group a worker has returned by then; holding the
    # groups after the first until the write makes that none, whatever R is
    live = []
    real_save = experiments.save_field_csv

    def counting_save(fields, path):
        gc.collect()
        live.append(sum(
            1 for obj in gc.get_objects()
            if isinstance(obj, experiments.ConnectivityField)
            and obj.kind == "tPDC" and obj.method_tag in ("var", "vma", "wn")
        ))
        real_save(fields, path)

    monkeypatch.setattr(experiments, "save_field_csv", counting_save)
    real_simulate = experiments.simulate
    size = _group_size(1)
    for n_realizations in (2 * size, 4 * size):  # two and four groups
        out = tmp_path / f"r{n_realizations}"
        monkeypatch.setattr(experiments, "simulate", _held(real_simulate, out, first_held=size))
        run_example(_spec(tmp_path, name=out.name, example_id=1, n_realizations=n_realizations, n_jobs=n_jobs))
        assert sorted(p.name for p in out.iterdir()) == ["fields_r0.csv", "mse_table.csv", "mse_table.txt", "summary.json"]
    assert live == [3, 3]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_failed_group_leaves_no_fields_and_an_earlier_bundle_intact(tmp_path, monkeypatch, n_jobs):
    # a group and a short one of two; the last realization fails after
    # realization 0's fields went to the partial file
    last = _group_size(1) + 1
    spec = _spec(tmp_path, example_id=1, n_realizations=last + 1, n_jobs=n_jobs)
    run_example(_spec(tmp_path, name="earlier", example_id=1, n_realizations=2))
    earlier = {p.name: p.read_bytes() for p in (tmp_path / "earlier").iterdir()}
    real_simulate = experiments.simulate

    def failing_simulate(model, n_samples, seed):  # patched before the pool forks
        if seed == last:
            raise NumericalError(f"realization {seed} failed")
        return real_simulate(model, n_samples, seed)

    monkeypatch.setattr(experiments, "simulate", failing_simulate)
    for out_dir in (tmp_path / "out", tmp_path / "earlier"):
        spec.out_dir = str(out_dir)
        with pytest.raises(NumericalError, match=f"realization {last} failed"):
            run_example(spec)
    assert not (tmp_path / "out" / "fields_r0.csv").exists()
    assert list((tmp_path / "out").iterdir()) == []  # no partial file either
    assert {p.name: p.read_bytes() for p in (tmp_path / "earlier").iterdir()} == earlier


def test_failed_references_cancel_the_groups_not_started(tmp_path, monkeypatch):
    # 16 groups; the references fail while the first groups run, and only the
    # groups already handed to a worker run to their end
    calls = tmp_path / "calls"
    real_join = experiments._join_lattice

    def counting_join(panels, depth):  # once per _realization_fields call, in the worker
        with open(calls, "a") as fh:
            fh.write("x")
        real_join(panels, depth)

    def failing_references(model, spec):
        raise NumericalError("references failed")

    monkeypatch.setattr(experiments, "_join_lattice", counting_join)
    monkeypatch.setattr(experiments, "_reference_fields", failing_references)
    with pytest.raises(NumericalError, match="references failed"):
        run_example(_spec(tmp_path, example_id=1, n_realizations=16 * _group_size(1), n_jobs=2))
    n_calls = len(calls.read_text()) if calls.exists() else 0
    # two running and the pool's three queued calls at most
    assert n_calls <= 5
    assert not (tmp_path / "out").exists()


def _warnings_of_serial_and_pooled_runs(tmp_path, monkeypatch, ignored_module=None):
    """``(category, message)`` of the warnings that reach the caller of example 2 runs, by n_jobs."""
    real_fit_varma = experiments.fit_varma

    def warning_fit_varma(panel, p, q):
        # attributed to the caller, spectralgc.experiments, as the fits' own warnings are
        warnings.warn(f"VARMA fit of seed {panel.meta['seed']}", UserWarning, stacklevel=2)
        return real_fit_varma(panel, p, q)

    monkeypatch.setattr(experiments, "fit_varma", warning_fit_varma)
    recorded = {}
    for n_jobs in (1, 2):
        # example 2 at n_s = 1024 runs a group and a short one of two
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if ignored_module:
                warnings.filterwarnings("ignore", module=ignored_module)
            run_example(_spec(tmp_path, example_id=2, n_realizations=_group_size(2) + 2, n_jobs=n_jobs))
        recorded[n_jobs] = [(w.category, str(w.message)) for w in caught]
    return recorded


def test_worker_warnings_reach_the_caller(tmp_path, monkeypatch):
    recorded = _warnings_of_serial_and_pooled_runs(tmp_path, monkeypatch)
    want = [(UserWarning, f"VARMA fit of seed {r}") for r in range(_group_size(2) + 2)]
    assert recorded[1] == recorded[2] == want


def test_worker_warnings_keep_their_module(tmp_path, monkeypatch):
    # a module= filter matches the re-emitted warnings as it would the direct ones
    recorded = _warnings_of_serial_and_pooled_runs(tmp_path, monkeypatch, "spectralgc.experiments")
    assert recorded == {1: [], 2: []}


# ------------------------------------------------------------ default methods

NEED_Q = "'vma' needs a positive MA order"
NEED_P = "'varma' needs a positive AR order"
EXPLICIT = ("vma", "varma", "var")

#: (example, methods, orders) -> (methods, vma_q, varma_pq) or the ConfigError message,
#: as resolved before examples, model files and panels shared one rule; None is a panel,
#: which a pure VAR model file (q = 0) resolves like
RESOLVED = {
    (1, (), None): (("var", "vma", "wn"), 1, None),
    (1, (), (0, 1)): (("var", "vma", "wn"), 1, None),
    (1, (), (2, 0)): NEED_Q,
    (1, (), (2, 2)): (("var", "vma", "wn"), 2, (2, 2)),
    (1, EXPLICIT, None): NEED_P,
    (1, EXPLICIT, (0, 1)): NEED_P,
    (1, EXPLICIT, (2, 0)): NEED_Q,
    (1, EXPLICIT, (2, 2)): (EXPLICIT, 2, (2, 2)),
    (2, (), None): (("var", "vma", "varma", "wn"), 20, (2, 2)),
    (2, (), (0, 1)): NEED_P,
    (2, (), (2, 0)): NEED_Q,
    (2, (), (2, 2)): (("var", "vma", "varma", "wn"), 2, (2, 2)),
    (2, EXPLICIT, None): (EXPLICIT, 20, (2, 2)),
    (2, EXPLICIT, (0, 1)): NEED_P,
    (2, EXPLICIT, (2, 0)): NEED_Q,
    (2, EXPLICIT, (2, 2)): (EXPLICIT, 2, (2, 2)),
    (4, (), None): (("var", "vma", "wn"), 2, None),
    (4, (), (0, 1)): (("var", "vma", "wn"), 1, None),
    (4, (), (2, 0)): NEED_Q,
    (4, (), (2, 2)): (("var", "vma", "wn"), 2, (2, 2)),
    (4, EXPLICIT, None): NEED_P,
    (4, EXPLICIT, (0, 1)): NEED_P,
    (4, EXPLICIT, (2, 0)): NEED_Q,
    (4, EXPLICIT, (2, 2)): (EXPLICIT, 2, (2, 2)),
    (None, (), None): (("var", "wn"), None, None),
    (None, (), (0, 1)): (("var", "wn"), 1, None),
    (None, (), (2, 0)): (("var", "wn"), None, (2, 0)),
    (None, (), (2, 2)): (("var", "wn"), 2, (2, 2)),
    (None, EXPLICIT, None): NEED_Q,
    (None, EXPLICIT, (0, 1)): NEED_P,
    (None, EXPLICIT, (2, 0)): NEED_Q,
    (None, EXPLICIT, (2, 2)): (EXPLICIT, 2, (2, 2)),
}


@pytest.mark.parametrize(
    "source, key",
    [(source, key) for source in ("example", "model file") for key in RESOLVED if key[0] is not None]
    + [(source, key) for source in ("panel", "VAR model file") for key in RESOLVED if key[0] is None],
    ids=str,
)
def test_default_methods_and_orders(tmp_path, source, key):
    example_id, methods, orders = key
    want = RESOLVED[key]
    if source == "panel":
        spec, model = ExperimentSpec(methods=methods, orders=orders), None
    elif source == "VAR model file":
        model = experiments.VarmaModel(np.array([[[0.5, 0.0], [0.2, 0.5]]]), np.eye(2)[None], np.eye(2))
        spec = ExperimentSpec(model_path="var1.json", methods=methods, orders=orders)
    elif source == "example":
        spec, model = ExperimentSpec(example_id=example_id, methods=methods, orders=orders), example_model(example_id)
    else:
        path = tmp_path / "model.json"
        example_model(example_id).save_json(path)
        spec = ExperimentSpec(model_path=str(path), methods=methods, orders=orders)
        model = experiments.VarmaModel.load_json(path)
        if example_id == 2 and orders is None:
            want = (want[0], 2, want[2])  # the long VMA window belongs to the bundled example only
    if isinstance(want, str):
        with pytest.raises(ConfigError, match=want):
            experiments._resolve_methods_and_orders(spec, model)
    else:
        assert experiments._resolve_methods_and_orders(spec, model) == want


def test_tdtf_is_computed_only_for_written_fields(tmp_path, monkeypatch):
    tags = []
    real_total_dtf = experiments.total_dtf

    def counting_total_dtf(factor, method_tag=""):
        tags.append(method_tag)
        return real_total_dtf(factor, method_tag=method_tag)

    monkeypatch.setattr(experiments, "total_dtf", counting_total_dtf)
    summary = run_example(_spec(tmp_path, example_id=1, n_realizations=3))
    # the two references, then one field per method of realization 0
    assert tags == ["theory", "theory-wn"] + summary["methods"]
    written = {(f.kind, f.method_tag) for f in load_field_csv(tmp_path / "out" / "fields_r0.csv")}
    assert {("tDTF", tag) for tag in tags} <= written
