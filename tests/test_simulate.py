import dataclasses
import json
import pickle
import warnings

import numpy as np
import pytest

import reference_impl as ref
from spectralgc import (
    ConfigError,
    TimeSeriesPanel,
    UnstableModelError,
    VarmaModel,
    ar_root_report,
    example_model,
    fit_var,
    load_panel_csv,
    save_panel_csv,
    simulate,
)
from spectralgc.models import BLOCK_BYTES
from spectralgc.simulate import BLOCK_LEN


def _identity_model(n=2):
    return VarmaModel(np.zeros((0, n, n)), np.eye(n)[None], np.eye(n))


def test_identity_model_sample_covariance():
    panel = simulate(_identity_model(), 100000, seed=11)
    cov = np.cov(panel.data, bias=True)
    assert np.max(np.abs(cov - np.eye(2))) < 0.02


def test_example1_channel2_variance():
    # x2(n) = w2(n) + w2(n-1) with var(w2) = 5, so var(x2) = 10
    panel = simulate(example_model(1), 100000, seed=3)
    var_x2 = panel.data[1].var()
    assert abs(var_x2 - 10.0) / 10.0 < 0.03


def test_simulation_is_deterministic():
    model = example_model(2)
    a = simulate(model, 2048, seed=99)
    b = simulate(model, 2048, seed=99)
    assert np.array_equal(a.data, b.data)
    c = simulate(model, 2048, seed=100)
    assert not np.array_equal(a.data, c.data)


def test_unstable_model_refused():
    bad = VarmaModel(np.array([[[1.05]]]), np.eye(1)[None], np.eye(1))
    with pytest.raises(UnstableModelError):
        simulate(bad, 100, seed=0)


def test_nonminimum_phase_generation_is_allowed():
    panel = simulate(example_model(4), 4096, seed=5)
    assert np.all(np.isfinite(panel.data))
    assert panel.n_samples == 4096


def test_sample_covariance_scalar_white_noise():
    panel = simulate(_identity_model(1), 16384, seed=21)
    var = np.cov(panel.data[0], bias=True)
    assert 0.95 < var < 1.05


def test_stationarity_of_long_run():
    panel = simulate(example_model(2), 65536, seed=8)
    half = panel.n_samples // 2
    c1 = np.cov(panel.data[:, :half], bias=True)
    c2 = np.cov(panel.data[:, half:], bias=True)
    rel = np.linalg.norm(c1 - c2) / np.linalg.norm(c1)
    assert rel < 0.10


def test_panel_csv_roundtrip(tmp_path):
    model = example_model(1)
    panel = simulate(model, 512, seed=17)
    path = tmp_path / "panel.csv"
    save_panel_csv(panel, path)
    loaded = load_panel_csv(path)
    assert np.array_equal(loaded.data, panel.data)
    sidecar = json.loads((tmp_path / "panel.json").read_text())
    assert sidecar["seed"] == 17
    assert sidecar["burn_in"] == 1000
    assert sidecar["model_hash"] == model.content_hash()


@pytest.mark.parametrize("n", [1, 2, 7])
def test_panel_csv_bytes_match_savetxt(tmp_path, n):
    rows_per_block = BLOCK_BYTES // (64 * (n + 1))
    rng = np.random.default_rng(n)
    # below one block, exactly one, and not a multiple of one
    for n_samples in (5, rows_per_block, 2 * rows_per_block + 3):
        data = rng.normal(size=(n, n_samples))
        data[:, :2] = [-0.0, 1e-300]
        panel = TimeSeriesPanel(data)
        save_panel_csv(panel, tmp_path / "new.csv")
        ref.save_panel_csv_savetxt(panel, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_panel_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,x2\n0,1.0,2.0\n1,oops,3.0\n")
    with pytest.raises(ConfigError):
        load_panel_csv(path)
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ConfigError):
        load_panel_csv(path)


@pytest.mark.parametrize("body", ["", "\n\n"])
def test_panel_csv_without_rows_rejected_without_a_warning(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("t,x1,x2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not escape
        with pytest.raises(ConfigError, match="no data rows"):
            load_panel_csv(path)


def _write_sidecar(tmp_path, body):
    """A valid panel CSV whose ``.json`` sidecar is ``body`` (text) or, for ``None``, a directory."""
    path = tmp_path / "panel.csv"
    save_panel_csv(simulate(example_model(1), 256, seed=3), path)
    sidecar = tmp_path / "panel.json"
    sidecar.unlink()
    if body is None:
        sidecar.mkdir()
    else:
        sidecar.write_text(body)
    return path


@pytest.mark.parametrize("body, match", [
    pytest.param("{bad", "cannot read panel sidecar", id="not-json"),
    pytest.param("[1, 2]", "must hold a JSON object, got list", id="list"),
    pytest.param(None, "cannot read panel sidecar", id="unreadable"),
])
def test_malformed_panel_sidecar_rejected(tmp_path, body, match):
    path = _write_sidecar(tmp_path, body)
    with pytest.raises(ConfigError, match=match) as info:
        load_panel_csv(path)
    assert "panel.json" in str(info.value)


def test_panel_data_is_read_only():
    panel = simulate(_identity_model(), 256, seed=2)
    with pytest.raises(ValueError):
        panel.data[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        panel.data = np.zeros((2, 256))
    assert panel.data.flags.c_contiguous


def test_panel_copies_its_source():
    source = np.arange(12.0).reshape(2, 6)
    panel = TimeSeriesPanel(source)
    source[0, 0] = -1.0
    assert panel.data[0, 0] == 0.0
    assert source.flags.writeable  # the caller's array is left alone


def test_panel_pickles_after_a_fit():
    panel = simulate(example_model(2), 1024, seed=6)
    report = fit_var(panel, p_max=5)
    clone = pickle.loads(pickle.dumps(panel))
    assert np.array_equal(clone.data, panel.data) and clone.meta == panel.meta
    assert not clone.data.flags.writeable
    assert np.array_equal(fit_var(clone, p_max=5).model.ar_blocks, report.model.ar_blocks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_panel_rejects_a_non_finite_sample_and_names_its_channel(bad):
    data = np.random.default_rng(0).standard_normal((3, 64))
    data[1, 17] = bad
    with pytest.raises(ConfigError, match="channel x2 has a non-finite sample"):
        TimeSeriesPanel(data)
    assert TimeSeriesPanel(np.zeros((2, 0))).n_samples == 0  # no samples, nothing non-finite


def test_panels_compare_and_hash_by_identity():
    first = TimeSeriesPanel(np.zeros((2, 3)))
    second = TimeSeriesPanel(np.zeros((2, 3)))
    assert first != second and not first == second
    assert first == first
    memo = {first: "first", second: "second"}
    assert memo[first] == "first" and memo[second] == "second"


def test_simulate_rejects_empty_request():
    with pytest.raises(ConfigError):
        simulate(_identity_model(), 0, seed=1)


@pytest.mark.parametrize("burn_in", [-5, -1000])  # an empty panel and numpy's negative dimensions
def test_simulate_rejects_negative_burn_in(burn_in):
    with pytest.raises(ConfigError, match=f"burn_in must be non-negative, got {burn_in}"):
        simulate(example_model(2), 10, seed=1, burn_in=burn_in)


def test_simulate_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        simulate(example_model(2), 10, seed=-1)


def _random_stable_model(rng, n, p, q, root_radius=None):
    """Random stable VARMA(p, q); ``root_radius`` plants a real AR root of that magnitude."""
    while True:
        ar = rng.normal(scale=0.8 / np.sqrt(n * p), size=(p, n, n))
        if root_radius is not None:
            ar[0] = np.diag(np.r_[root_radius, 0.1 * rng.uniform(size=n - 1)])
            ar[1:] = 0.0
        ma = np.concatenate([np.eye(n)[None], rng.normal(scale=0.5, size=(q, n, n))])
        w = rng.normal(size=(n, n))
        model = VarmaModel(ar, ma, w @ w.T + np.eye(n))
        if ar_root_report(model).classification == "stable":
            return model


@pytest.mark.parametrize("n", range(1, 8))
def test_block_recursion_matches_per_sample_loop(n):
    rng = np.random.default_rng(n)
    cases = [(p, q, None) for p in range(1, 5) for q in (0, 2)] + [(n % 4 + 1, 1, 0.995)]
    for p, q, radius in cases:
        model = _random_stable_model(rng, n, p, q, radius)
        for n_samples, burn_in in ((1, 0), (BLOCK_LEN - 3, 0), (3 * BLOCK_LEN + 5, 0), (700, 250)):
            got = simulate(model, n_samples, seed=p, burn_in=burn_in).data
            want = ref.simulate_per_sample(
                model.ar_blocks, model.ma_blocks, model.innovations_cov, n_samples, p, burn_in
            )
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (p, q, radius, n_samples)


def test_block_recursion_near_unit_root_example():
    r = 0.995
    model = VarmaModel(np.array([[[2 * r * np.cos(0.1), 0.0], [0.3, 0.5]], [[-r * r, 0.0], [0.0, 0.0]]]),
                       np.eye(2)[None], np.eye(2))
    assert ar_root_report(model).magnitudes.max() >= 0.99
    got = simulate(model, 5000, seed=4, burn_in=0).data
    want = ref.simulate_per_sample(model.ar_blocks, model.ma_blocks, model.innovations_cov, 5000, 4, 0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
