import sys
import threading
import time

import numpy as np
import pytest

from spectralgc import (
    ConfigError,
    DegeneratePanelError,
    ExperimentSpec,
    FrequencyGrid,
    NumericalError,
    TimeSeriesPanel,
    VarmaModel,
    ar_root_report,
    example_model,
    fit_var,
    fit_varma,
    fit_vma,
    hannan_quinn,
    innovation_form,
    ma_root_report,
    simulate,
    theoretical_spectrum,
)
from spectralgc import estimators, experiments

import reference_impl as ref
from test_simulate import _random_stable_model


def _white_panel(n_samples=16384, seed=0, n=2):
    model = VarmaModel(np.zeros((0, n, n)), np.eye(n)[None], np.eye(n))
    return simulate(model, n_samples, seed=seed)


def test_var_on_white_noise_finds_no_dynamics():
    report = fit_var(_white_panel(seed=41), p_max=10)
    assert np.max(np.abs(report.model.ar_blocks)) < 0.05


def test_var_recovers_scalar_ar1():
    model = VarmaModel(np.array([[[0.7]]]), np.eye(1)[None], np.eye(1))
    panel = simulate(model, 16384, seed=42)
    report = fit_var(panel, p_max=10)
    assert report.selected_order[0] >= 1
    assert abs(report.model.ar_blocks[0, 0, 0] - 0.7) < 0.02


def test_var_output_always_stable():
    for seed in range(3):
        panel = simulate(example_model(2), 4096, seed=seed)
        report = fit_var(panel, p_max=20)
        assert ar_root_report(report.model).classification == "stable"


def test_var_report_is_consistent():
    panel = simulate(example_model(2), 8192, seed=50)
    report = fit_var(panel, p_max=15)
    orders = [o for o, _ in report.criterion_values]
    values = [v for _, v in report.criterion_values]
    assert report.selected_order[0] == orders[int(np.argmin(values))]
    assert np.min(np.linalg.eigvalsh(report.model.innovations_cov)) > 0


def test_hannan_quinn_tie_breaks_small():
    cov = np.eye(2)
    assert hannan_quinn([(3, cov), (1, cov.copy())], 1000, 2) == 1
    assert hannan_quinn([(4, cov)], 1000, 2) == 4
    with pytest.raises(ConfigError):
        hannan_quinn([], 1000, 2)


def test_hannan_quinn_rejects_pure_var_for_varma_data():
    # VARMA(2,2) has no finite exact VAR representation, so the selected
    # order stays well above the AR order of the generator
    high = 0
    seeds = range(9)
    for seed in seeds:
        panel = simulate(example_model(2), 16384, seed=1000 + seed)
        report = fit_var(panel, p_max=20)
        if report.selected_order[0] >= 4:
            high += 1
    assert high > len(seeds) / 2


def test_vma_recovers_example1_parameters():
    panel = simulate(example_model(1), 16384, seed=7)
    report = fit_vma(panel, q=1)
    B1 = report.model.ma_blocks[1]
    assert np.max(np.abs(B1 - [[0.0, 1.0], [0.0, 1.0]])) < 0.05
    sigma = report.model.innovations_cov
    assert np.max(np.abs(sigma - [[1.0, 1.0], [1.0, 5.0]]) / [[1.0, 1.0], [1.0, 5.0]]) < 0.05


def test_vma_on_white_noise_finds_nothing():
    report = fit_vma(_white_panel(seed=43), q=1)
    assert np.max(np.abs(report.model.ma_blocks[1])) < 0.05


def test_varma_matches_var_when_q_zero():
    model = VarmaModel(np.array([[[0.6, 0.2], [0.0, 0.4]]]), np.eye(2)[None], np.eye(2))
    panel = simulate(model, 16384, seed=44)
    a_varma = fit_varma(panel, p=1, q=0).model.ar_blocks
    a_var = fit_var(panel, p_max=4).model.ar_blocks
    assert np.max(np.abs(a_varma[0] - a_var[0])) < 0.03


def test_varma_on_white_noise_finds_nothing():
    # On white data the x-lag and residual-lag regressors are nearly
    # collinear, so individual coefficients have inflated variance; the
    # AR/MA pair cancels and the fitted transfer stays at the identity.
    report = fit_varma(_white_panel(seed=45), p=1, q=1)
    cancel = report.model.ar_blocks[0] + report.model.ma_blocks[1]
    assert np.max(np.abs(cancel)) < 0.05
    from spectralgc import transfer_function

    H = transfer_function(report.model, FrequencyGrid(128)).values
    assert np.max(np.abs(H - np.eye(2))) < 0.05


def test_fitted_ma_is_minimum_phase_even_on_nonminimum_data():
    for seed in range(3):
        panel = simulate(example_model(4), 16384, seed=seed)
        report = fit_vma(panel, q=2)
        root_report = ma_root_report(report.model)
        assert np.all(root_report.magnitudes < 1.0 + 1e-6)


def test_spectral_agreement_of_fits():
    # fitted models reproduce the generating spectrum to a few percent
    # of its peak on the one-sided grid
    grid = FrequencyGrid(512)
    cases = [
        (example_model(1), lambda p: fit_vma(p, q=1)),
        (example_model(2), lambda p: fit_varma(p, p=2, q=2)),
        (example_model(2), lambda p: fit_var(p, p_max=30)),
    ]
    for model, fit in cases:
        devs = []
        S_ref = theoretical_spectrum(innovation_form(model), grid).values
        scale = np.max(np.abs(S_ref))
        for seed in range(3):
            panel = simulate(model, 16384, seed=200 + seed)
            S_fit = theoretical_spectrum(fit(panel).model, grid).values
            devs.append(np.max(np.abs(S_fit - S_ref)) / scale)
        assert np.mean(devs) < 0.10


def test_degenerate_panel_rejected():
    data = np.vstack([np.random.default_rng(0).standard_normal(4096), np.zeros(4096)])
    with pytest.raises(DegeneratePanelError):
        fit_var(TimeSeriesPanel(data), p_max=5)


def test_rank_deficient_regressors_rejected():
    x1 = np.random.default_rng(1).standard_normal(4096)
    panel = TimeSeriesPanel(np.vstack([x1, x1]))  # duplicated channel
    with pytest.raises(NumericalError):
        fit_vma(panel, q=1)


def test_panel_too_short_rejected():
    panel = _white_panel(n_samples=128, seed=9)
    with pytest.raises(ConfigError):
        fit_var(panel, p_max=100)
    with pytest.raises(ConfigError):
        fit_vma(panel, q=2)


def test_var_needs_positive_p_max():
    # a configuration error (CLI exit 2), not a numerical failure
    with pytest.raises(ConfigError, match="p_max"):
        fit_var(_white_panel(n_samples=1024, seed=4), p_max=0)


# ------------------------------------------------------------ shared lattice

def _assert_same_report(a, b):
    assert a.selected_order == b.selected_order
    assert a.criterion_values == b.criterion_values
    for name in ("ar_blocks", "ma_blocks", "innovations_cov"):
        assert np.array_equal(getattr(a.model, name), getattr(b.model, name)), name


def _fresh(panel):
    """A panel with the same data and an empty memo."""
    return TimeSeriesPanel(panel.data)


@pytest.mark.parametrize("order", [("var", "vma", "varma"), ("vma", "var", "varma"), ("varma", "vma", "var")])
def test_shared_lattice_fits_are_bit_identical_to_standalone(order):
    panel = simulate(example_model(2), 4096, seed=12)
    fits = {
        "var": lambda pn: fit_var(pn, p_max=30),
        "vma": lambda pn: fit_vma(pn, 5),
        "varma": lambda pn: fit_varma(pn, 2, 2),
    }
    shared = {m: fits[m](panel) for m in order}
    for m in order:
        _assert_same_report(shared[m], fits[m](_fresh(panel)))


def _count_stages(monkeypatch):
    counter = {"stages": 0}
    original = estimators._lattice_stages

    def counting(x):
        for k, stage in enumerate(original(x)):
            counter["stages"] += k > 0
            yield stage

    monkeypatch.setattr(estimators, "_lattice_stages", counting)
    return counter


@pytest.mark.parametrize("example_id, shared_stages, separate_stages", [(1, 50, 80), (2, 50, 130)])
def test_one_lattice_per_realization(monkeypatch, example_id, shared_stages, separate_stages):
    spec = ExperimentSpec(example_id=example_id, n_samples=1024, n_realizations=1)
    model = example_model(example_id)
    methods, vma_q, varma_pq = experiments._resolve_methods_and_orders(spec, model)
    counter = _count_stages(monkeypatch)
    experiments._realization_fields(model, spec, methods, vma_q, varma_pq, 0)
    assert counter["stages"] == shared_stages
    counter["stages"] = 0
    panel = simulate(model, spec.n_samples, spec.base_seed)
    for method in methods:
        experiments._fit_method(method, _fresh(panel), spec, vma_q, varma_pq)
    assert counter["stages"] == separate_stages


def test_standalone_panel_shares_one_lattice(monkeypatch):
    # no driver involved: any caller fitting one panel twice shares its lattice
    panel = simulate(example_model(1), 1024, seed=0)
    counter = _count_stages(monkeypatch)
    fit_var(panel, p_max=30)
    fit_vma(panel, q=1)
    assert counter["stages"] == 50  # not 30 + 50


def test_lattice_failure_is_not_cached(monkeypatch):
    panel = simulate(example_model(2), 2048, seed=3)
    real_solve = estimators._solve_sylvester
    calls = {"n": 0}

    def failing_at_stage_3(*args):
        calls["n"] += 1
        if calls["n"] == 3:
            raise np.linalg.LinAlgError("forced")
        return real_solve(*args)

    monkeypatch.setattr(estimators, "_solve_sylvester", failing_at_stage_3)
    with pytest.raises(NumericalError, match="stage 3"):
        fit_var(panel, p_max=10)
    assert panel._memo == {}
    calls["n"] = 0  # a retry runs a fresh lattice and fails the same way
    with pytest.raises(NumericalError, match="stage 3"):
        fit_var(panel, p_max=10)
    assert panel._memo == {}
    monkeypatch.setattr(estimators, "_solve_sylvester", real_solve)
    _assert_same_report(fit_var(panel, p_max=10), fit_var(_fresh(panel), p_max=10))


def test_long_var_residuals_computed_once_per_panel(monkeypatch):
    panel = simulate(example_model(2), 2048, seed=3)
    calls = {"n": 0}
    original = estimators._nuttall_strand

    def counting(pn, p_max):
        calls["n"] += 1
        return original(pn, p_max)

    monkeypatch.setattr(estimators, "_nuttall_strand", counting)
    vma, varma = fit_vma(panel, 3), fit_varma(panel, 2, 2)
    assert calls["n"] == 1  # the VARMA fit reuses the VMA fit's residuals
    fit_vma(panel, 3, long_ar_order=40)
    assert calls["n"] == 2  # another order is another entry
    _assert_same_report(vma, fit_vma(_fresh(panel), 3))
    _assert_same_report(varma, fit_varma(_fresh(panel), 2, 2))


def test_concurrent_fits_of_one_panel_share_one_lattice(monkeypatch):
    # more threads than cores, a short switch interval and stages that
    # sleep, so unlocked memo access would enter the generator twice
    panel = simulate(example_model(2), 2048, seed=8)
    counter = _count_stages(monkeypatch)
    counting = estimators._lattice_stages

    def slow(x):
        for stage in counting(x):
            time.sleep(1e-4)
            yield stage

    monkeypatch.setattr(estimators, "_lattice_stages", slow)
    orders = [5, 30, 12, 50, 20, 40, 8, 25]
    results, errors = [None] * len(orders), []

    def fit(i):
        try:
            results[i] = fit_var(panel, p_max=orders[i]) if i % 2 else fit_vma(panel, 3, long_ar_order=orders[i])
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert counter["stages"] == max(orders)
    for i, report in enumerate(results):
        fresh = _fresh(panel)
        want = fit_var(fresh, p_max=orders[i]) if i % 2 else fit_vma(fresh, 3, long_ar_order=orders[i])
        _assert_same_report(report, want)


# ------------------------------------------------------------ lattice internals

@pytest.mark.parametrize("n", range(1, 8))
def test_lattice_matches_per_block_reference(n):
    """Stacked blocks, fused errors and the eigen-based Sylvester solve against the per-block recursion."""
    rng = np.random.default_rng(100 + n)
    p_max = 12
    for p in (1, 3):
        panel = simulate(_random_stable_model(rng, n, p, 0), 1500, seed=p)
        got = estimators._nuttall_strand(panel, p_max)
        want = ref.nuttall_strand_blocks(panel.data, p_max)
        for m, ((ar, cov), (ar_ref, cov_ref)) in enumerate(zip(got, want)):
            assert ar.shape == (m, n, n)
            if m:
                ar_ref = np.array(ar_ref)
                assert np.max(np.abs(ar - ar_ref)) <= 1e-12 * np.max(np.abs(ar_ref)), (p, m)
            assert np.max(np.abs(cov - cov_ref)) <= 1e-12 * np.max(np.abs(cov_ref)), (p, m)


@pytest.mark.parametrize("n", range(1, 17))
def test_sylvester_solve_residual(n):
    rng = np.random.default_rng(n)
    pfh, pf, pbh, pb = (w @ w.T for w in rng.normal(size=(4, n, 3 * n)))
    c = rng.normal(size=(n, n))
    x = estimators._solve_sylvester(pfh, pf, pbh, pb, c)
    residual = pfh @ np.linalg.inv(pf) @ x + x @ np.linalg.inv(pb) @ pbh - c
    assert np.linalg.norm(residual) < 1e-12 * np.linalg.norm(c)


def test_nearly_collinear_panel_is_a_numerical_failure():
    a = np.random.default_rng(0).standard_normal(4096)
    panel = TimeSeriesPanel(np.vstack([a, a + 1e-9 * np.random.default_rng(1).standard_normal(4096)]))
    with pytest.raises(NumericalError, match="Nuttall-Strand stage"):
        fit_var(panel, p_max=5)
