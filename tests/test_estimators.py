import gc
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from spectralgc import (
    ConfigError,
    DegeneratePanelError,
    ExperimentSpec,
    FitReport,
    FrequencyGrid,
    NonConvergenceError,
    NumericalError,
    TimeSeriesPanel,
    VarmaModel,
    ar_root_report,
    example_model,
    fit_var,
    fit_varma,
    fit_vma,
    innovation_form,
    ma_root_report,
    simulate,
    theoretical_spectrum,
)
from spectralgc import estimators, experiments, wilson
from spectralgc.models import BLOCK_BYTES

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
    assert estimators._hq_argmin([(3, -1.5), (1, -1.5), (2, np.inf)]) == 1
    assert estimators._hq_argmin([(4, 0.0)]) == 4


def test_hq_values_take_one_slogdet_and_match_lone_ones(monkeypatch):
    rng = np.random.default_rng(5)
    covs = [(p, w @ w.T) for p, w in enumerate(rng.normal(size=(6, 3, 5)), start=1)]
    covs += [(7, np.zeros((3, 3))), (8, -np.eye(3))]  # singular and indefinite score inf
    unit = 2.0 * 3**2 * np.log(np.log(1000)) / 1000
    want = []
    for order, cov in covs:
        sign, logdet = np.linalg.slogdet(cov)
        want.append((order, (logdet + order * unit) if sign > 0 else np.inf))
    real_slogdet, calls = np.linalg.slogdet, []

    def counting(a):
        calls.append(np.shape(a))
        return real_slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", counting)
    assert estimators._hq_values(covs, 1000, 3) == want
    assert calls == [(8, 3, 3)]
    assert estimators._hq_argmin(estimators._hq_values([(1, np.zeros((3, 3))), (2, np.eye(3))], 1000, 3)) == 2


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


def test_varma_with_q_zero_is_a_regression_on_long_var_residuals():
    # not OLS VAR(p): the AR blocks regress x - eps on the p lags of x over
    # t >= long_ar_order + p, and Σ is the covariance of the long-VAR residuals;
    # the fit forms both from lag products, so they agree to rounding
    panel, p, off = simulate(example_model(2), 4096, seed=46), 2, estimators.DEFAULT_LONG_AR_ORDER
    model = fit_varma(panel, p, 0).model
    x = panel.data
    eps = _residuals(panel, off)
    n, n_samp = x.shape
    t0 = off + p
    Z = np.concatenate([x[:, t0 - r : n_samp - r] for r in range(1, p + 1)])
    C = np.linalg.solve(Z @ Z.T, Z @ (x[:, t0:] - eps[:, p:]).T).T
    want = C.reshape(n, p, n).transpose(1, 0, 2)
    assert np.max(np.abs(model.ar_blocks - want)) <= 1e-12 * np.max(np.abs(want))
    sigma = eps @ eps.T / eps.shape[1]
    assert np.max(np.abs(model.innovations_cov - sigma)) <= 1e-12 * np.max(np.abs(sigma))
    Z_ols = np.concatenate([x[:, p - r : n_samp - r] for r in range(1, p + 1)])
    C_ols = np.linalg.solve(Z_ols @ Z_ols.T, Z_ols @ x[:, p:].T).T
    assert np.max(np.abs(C - C_ols)) > 1e-3


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


@pytest.mark.parametrize(
    "fit",
    [lambda p: fit_var(p, p_max=5), lambda p: fit_vma(p, 1), lambda p: fit_varma(p, 1, 1)],
    ids=["var", "vma", "varma"],
)
def test_constant_channel_with_rounded_variance_rejected(fit):
    # np.var of a channel equal to 0.1 everywhere is 1.9e-34, not zero
    data = np.vstack([np.random.default_rng(0).standard_normal(4096), np.full(4096, 0.1)])
    with pytest.raises(DegeneratePanelError, match="x2"):
        fit(TimeSeriesPanel(data))


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
    # a configuration error (CLI exit 2), not a numerical failure; so is a long AR order
    # below 1, which would index the lattice from its end or fit the data as its own residuals
    with pytest.raises(ConfigError, match="p_max"):
        fit_var(_white_panel(n_samples=1024, seed=4), p_max=0)
    panel = simulate(example_model(1), 1024, 3)
    for long_ar_order in (-5, 0):
        with pytest.raises(ConfigError, match="long_ar_order"):
            fit_vma(panel, 1, long_ar_order=long_ar_order)
        with pytest.raises(ConfigError, match="long_ar_order"):
            fit_varma(panel, 1, 1, long_ar_order=long_ar_order)


# ------------------------------------------------------------ shared lattice

def _assert_same_report(a, b):
    assert a.selected_order == b.selected_order
    assert a.criterion_values == b.criterion_values
    for name in ("ar_blocks", "ma_blocks", "innovations_cov"):
        assert np.array_equal(getattr(a.model, name), getattr(b.model, name)), name


def _group_lattice(panels, depth):
    """Each panel's ``(stages, error)`` in one lattice of ``panels`` to order ``depth``, as ``_fit_group`` runs it."""
    lags, edges = estimators._lag_products(np.stack([panel.data for panel in panels]), depth)
    return estimators._lattice_run(lags, edges, panels[0].n_samples, depth)


def _stages(panel, p_max):
    """A lone panel's stages for p = 0..p_max; the error of a failed stage is raised."""
    ((stages, error),) = _group_lattice([panel], p_max)
    if error is not None:
        raise error
    return stages


def _residuals(panel, long_ar_order):
    """A lone panel's long-VAR residuals, formed from the samples by the reference."""
    return ref.long_var_residuals(panel.data, _stages(panel, long_ar_order)[long_ar_order][0])


def _lone_two_step(panel, p, q, step=estimators._regress_two_step):
    """``step`` (``_regress_two_step`` or ``_two_step_gram``) of a lone panel, from its lag products and lattice."""
    off = estimators.DEFAULT_LONG_AR_ORDER
    lags, edges = estimators._lag_products(panel.data[None], off + max(p, q))
    ((stages, _),) = estimators._lattice_run(lags, edges, panel.n_samples, off)
    return step(lags[0], edges[0], stages[off][0], panel.n_samples, p, q)


#: the fits of test_shared_lattice_fits_are_bit_identical_to_standalone, as _fit_group fits and as lone fits
GROUP_FITS = {"var": ("var", 30), "vma": ("two_step", 0, 5, 50), "varma": ("two_step", 2, 2, 50)}
LONE_FITS = {
    "var": lambda pn: fit_var(pn, p_max=30),
    "vma": lambda pn: fit_vma(pn, 5),
    "varma": lambda pn: fit_varma(pn, 2, 2),
}


@pytest.mark.parametrize("order", [("var", "vma", "varma"), ("vma", "var", "varma"), ("varma", "vma", "var")])
def test_shared_lattice_fits_are_bit_identical_to_standalone(order):
    # the fits of one panel share one lattice and one set of residuals, in any order
    panel = simulate(example_model(2), 4096, seed=12)
    (shared,) = estimators._fit_group([panel], [GROUP_FITS[m] for m in order])
    assert list(shared) == [GROUP_FITS[m] for m in order]
    for m in order:
        _assert_same_report(shared[GROUP_FITS[m]], LONE_FITS[m](panel))


def _count_stages(monkeypatch):
    """Records the number of panels of every batched lattice step after stage 0."""
    sizes = []  # list.append is atomic, so threads may share it
    original = estimators._lattice_stages

    def counting(lags, edges, n_samp):
        for k, stage in enumerate(original(lags, edges, n_samp)):
            if k:
                sizes.append(len(lags))
            yield stage

    monkeypatch.setattr(estimators, "_lattice_stages", counting)
    return sizes


@pytest.mark.parametrize("example_id, shared_stages, separate_stages", [(1, 50, 80), (2, 50, 130)])
def test_one_lattice_per_realization(monkeypatch, example_id, shared_stages, separate_stages):
    spec = ExperimentSpec(example_id=example_id, n_samples=1024, n_realizations=1)
    model = example_model(example_id)
    methods, vma_q, varma_pq = experiments._resolve_methods_and_orders(spec, model)
    sizes = _count_stages(monkeypatch)
    experiments._realization_fields(model, spec, methods, vma_q, varma_pq, [0])
    assert sum(sizes) == len(sizes) == shared_stages
    del sizes[:]
    # each public fit is a group of one with a lattice of its own
    panel = simulate(model, spec.n_samples, spec.base_seed)
    lone = {"var": lambda: fit_var(panel), "vma": lambda: fit_vma(panel, vma_q), "varma": lambda: fit_varma(panel, *varma_pq)}
    for method in methods:
        if method != "wn":  # Welch and Wilson run no lattice stages
            lone[method]()
    assert sum(sizes) == len(sizes) == separate_stages


@pytest.mark.parametrize("example_id", [1, 2])
def test_grouped_realizations_match_single_ones(monkeypatch, example_id):
    # three realizations run one batched lattice, and each gets the fields it gets alone
    spec = ExperimentSpec(example_id=example_id, n_samples=1024, n_realizations=3)
    model = example_model(example_id)
    methods, vma_q, varma_pq = experiments._resolve_methods_and_orders(spec, model)
    sizes = _count_stages(monkeypatch)
    grouped, _ = experiments._realization_fields(model, spec, methods, vma_q, varma_pq, [0, 1, 2])
    assert (sum(sizes), len(sizes)) == (150, 50)
    for r, (tpdc, tdtf, orders) in enumerate(grouped):
        alone_tpdc, alone_tdtf, alone_orders = experiments._realization_fields(
            model, spec, methods, vma_q, varma_pq, [r]
        )[0][0]
        assert orders == alone_orders
        assert set(tdtf) == set(alone_tdtf) == (set(methods) if r == 0 else set())
        for m in methods:
            assert np.array_equal(tpdc[m].values, alone_tpdc[m].values), (r, m)
            if r == 0:
                assert np.array_equal(tdtf[m].values, alone_tdtf[m].values), m


def _fail_at_stage_3(monkeypatch, error):
    """Make the third Sylvester solve raise ``error``; returns the call counter."""
    real_solve = estimators._solve_sylvester
    calls = {"n": 0}

    def failing_at_stage_3(*args):
        calls["n"] += 1
        if calls["n"] == 3:
            raise error
        return real_solve(*args)

    monkeypatch.setattr(estimators, "_solve_sylvester", failing_at_stage_3)
    return calls


def test_lattice_failure_is_not_cached(monkeypatch):
    panel = simulate(example_model(2), 2048, seed=3)
    want = fit_var(panel, p_max=10)
    real_solve = estimators._solve_sylvester
    calls = _fail_at_stage_3(monkeypatch, np.linalg.LinAlgError("forced"))
    with pytest.raises(NumericalError, match="stage 3"):
        fit_var(panel, p_max=10)
    calls["n"] = 0  # a retry runs a fresh lattice and fails the same way
    with pytest.raises(NumericalError, match="stage 3"):
        fit_var(panel, p_max=10)
    monkeypatch.setattr(estimators, "_solve_sylvester", real_solve)
    _assert_same_report(fit_var(panel, p_max=10), want)


@pytest.mark.parametrize("size", [1, 2])
def test_interrupted_lattice_is_not_cached(monkeypatch, size):
    # any other exception out of a stage propagates, from a group of any size, with no lone rerun
    panels = [simulate(example_model(2), 2048, seed=s) for s in range(3, 3 + size)]
    want = [fit_var(panel, p_max=10) for panel in panels]
    calls = _fail_at_stage_3(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        estimators._fit_group(panels, [("var", 10), ("two_step", 0, 1, 10)])
    assert calls["n"] == 3
    for panel, report in zip(panels, want):
        _assert_same_report(fit_var(panel, p_max=10), report)


def test_lag_products_computed_once_per_group(monkeypatch):
    # one set of lag products, to the deepest lag any fit reads (50 + 20), serves the lattice
    # to order 50 and every fit of both panels: the VAR sweep, two long AR orders, VMA and VARMA
    panels = [simulate(example_model(2), 2048, seed=s) for s in (3, 4)]
    sizes = _count_stages(monkeypatch)
    real, calls = estimators._lag_products, []
    monkeypatch.setattr(estimators, "_lag_products", lambda x, depth: calls.append((len(x), depth)) or real(x, depth))
    fits = [("var", 30), ("two_step", 0, 20, 50), ("two_step", 2, 2, 50), ("two_step", 0, 3, 40)]
    got = estimators._fit_group(panels, fits)
    assert calls == [(2, 70)]
    assert sum(sizes) == 2 * len(sizes) == 100
    for panel, own in zip(panels, got):
        _assert_same_report(own[fits[0]], fit_var(panel, p_max=30))
        _assert_same_report(own[fits[1]], fit_vma(panel, 20))
        _assert_same_report(own[fits[2]], fit_varma(panel, 2, 2))
        _assert_same_report(own[fits[3]], fit_vma(panel, 3, long_ar_order=40))


def test_outcome_dicts_keep_the_order_of_fits():
    # the two-step outcomes are filled in after the var ones, past the guard, and a fit with
    # too few samples or a degenerate panel takes its error in place: each dict lists the fits as given
    rng = np.random.default_rng(0)
    constant = TimeSeriesPanel(np.vstack([rng.standard_normal((2, 1024)), np.full(1024, 0.1)]))
    panels = [simulate(example_model(2), 1024, seed=0), constant, simulate(example_model(2), 1024, seed=1)]
    fits = [("two_step", 2, 2, 50), ("var", 30), ("two_step", 0, 300, 50), ("two_step", 0, 5, 50), ("var", 5)]
    got = estimators._fit_group(panels, fits)
    assert [list(own) for own in got] == [fits] * 3
    assert all(type(outcome) is DegeneratePanelError for outcome in got[1].values())
    for own in (got[0], got[2]):
        assert [type(outcome) for outcome in own.values()] == [FitReport, FitReport, ConfigError, FitReport, FitReport]


#: normal equations and Σ, and coefficients: bounds on the deviation from products over the window,
#: relative to the largest reference entry and to the panel's energy ratio (see below)
GRAM_BOUNDS = {"16384": (5e-13, 1e-12), "shortest": (2e-12, 1e-11)}


def _gram_deviations(panel, p, q):
    """The lag-product route's normal equations, Σ and coefficients against the window products, and the energy ratio."""
    off, n_s = estimators.DEFAULT_LONG_AR_ORDER, panel.n_samples
    lags, edges = estimators._lag_products(panel.data[None], off + max(p, q))
    ((stages, _),) = estimators._lattice_run(lags, edges, n_s, off)
    zz, zy, sigma = estimators._two_step_gram(lags[0], edges[0], stages[off][0], n_s, p, q)
    eps = ref.long_var_residuals(panel.data, stages[off][0])
    want_zz, want_zy = ref.two_step_normal_equations(panel.data, eps, p, q)
    want_sigma = eps @ eps.T / eps.shape[1]

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    ratio = np.trace(panel.data @ panel.data.T) / n_s / np.trace(want_sigma)
    coefficients = rel(np.linalg.solve(zz, zy), np.linalg.solve(want_zz, want_zy))
    return max(rel(zz, want_zz), rel(zy, want_zy), rel(sigma, want_sigma)), coefficients, ratio


@pytest.mark.parametrize("p, q", [(0, 1), (0, 20), (1, 0), (2, 1), (2, 2)])
@pytest.mark.parametrize("n", range(1, 8))
def test_gram_normal_equations_match_the_window_products(n, p, q):
    """The two-step normal equations and Σ from lag products against products over the window.

    Random stable VARMA(2, 1) panels of N = 1..7 channels, at n_s = 16384
    (seed N) and at the shortest panels the fits accept, n_s = 4 (P + max(p, q))
    (seeds 0-11).  The Gram is a difference of sums over the whole record,
    so it loses digits in proportion to the energy ratio
    ``tr(C_0 / n_s) / tr(Σ)``, how far the residuals lie below the data:
    that ratio reaches 1374 at 16384 and 2138 at the shortest panels here.
    Over seeds 0-11 the normal equations and Σ deviated by at most
    1.6e-13 times the ratio at 16384 (1.6e-10 in all) and 6.9e-13 times it
    at the shortest panels (6.3e-10), the coefficients by 3.6e-13 and
    4.5e-12 times it (4.9e-10 and 3.1e-9, the latter at a design condition
    number of 6e4).  On ratios near 1 every deviation is near 1e-15.
    """
    off = estimators.DEFAULT_LONG_AR_ORDER
    cases = [("16384", 16384, n)] + [("shortest", 4 * (off + max(p, q)), seed) for seed in range(12)]
    for label, n_s, seed in cases:
        model = _random_stable_model(np.random.default_rng(1000 * n + seed), n, 2, 1)
        products, coefficients, ratio = _gram_deviations(simulate(model, n_s, seed=seed), p, q)
        bound, coefficient_bound = GRAM_BOUNDS[label]
        assert products <= bound * ratio, (label, seed, products, ratio)
        assert coefficients <= coefficient_bound * ratio, (label, seed, coefficients, ratio)


def _traced_peak(f):
    """Peak bytes that ``f()`` holds at once beyond what was allocated before the call."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "p, q, n_blocks, extra",
    [
        (0, 20, 1, 0),  # the window is exactly one block
        (0, 20, 1, -100),  # part of one block
        (0, 20, 4, 0),  # a multiple of the block
        (0, 20, 4, 100),  # not a multiple
        (2, 2, 3, 17),
        (0, 1, 1, -5000),  # example 2's VMA(1) at 5973 samples is one block
    ],
)
def test_streamed_normal_equations_match_one_product(p, q, n_blocks, extra):
    # the panel lengths at and around the ends of the 256 KiB regressor blocks that the normal
    # equations were once accumulated over: the lag-product route, which has no blocks, matches
    # one product over the whole window, and Σ the covariance of the residuals
    step = BLOCK_BYTES // (8 * 3 * (p + q))  # samples per block on 3 channels
    off = estimators.DEFAULT_LONG_AR_ORDER
    n_s = off + max(p, q) + n_blocks * step + extra
    panel = simulate(example_model(2), n_s, seed=p + q + n_blocks)
    eps = _residuals(panel, off)
    got = _lone_two_step(panel, p, q, estimators._two_step_gram)
    want = ref.two_step_normal_equations(panel.data, eps, p, q) + (eps @ eps.T / eps.shape[1],)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_two_step_memory_does_not_grow_with_the_panel():
    # a VMA(20) fit reads its panel only through the lag products: no residual or regressor
    # sequence of the panel's length is formed, so its peak stays put when n_s doubles
    peaks = []
    for n_s in (16384, 32768):
        panel = simulate(example_model(2), n_s, seed=8)
        peaks.append(_traced_peak(lambda: fit_vma(panel, 20)))
    assert peaks[1] < 1.05 * peaks[0]


CONCURRENT_ORDERS = [5, 30, 12, 50, 20, 40, 8, 25]


def _concurrent_fit(i):
    """Thread ``i``'s fit, as a ``_fit_group`` fit."""
    order = CONCURRENT_ORDERS[i]
    return ("var", order) if i % 2 else ("two_step", 0, 3, order)


def _lone_fit(panel, fit):
    return fit_var(panel, p_max=fit[1]) if fit[0] == "var" else fit_vma(panel, 3, long_ar_order=fit[3])


def _run_concurrently(monkeypatch, work):
    """Eight threads run ``work(i)``; returns their results and the lattice step sizes they ran.

    More threads than cores, a short switch interval and stages that
    sleep, so any state the fits shared would be entered by two threads
    at once.
    """
    sizes = _count_stages(monkeypatch)
    counting = estimators._lattice_stages

    def slow(*args):
        for stage in counting(*args):
            time.sleep(1e-4)
            yield stage

    monkeypatch.setattr(estimators, "_lattice_stages", slow)
    results, errors = [None] * len(CONCURRENT_ORDERS), []

    def run(i):
        try:
            results[i] = work(i)
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(CONCURRENT_ORDERS))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    return results, list(sizes)  # before the lone fits of the caller add their own stages


def test_concurrent_fits_of_one_panel_match_lone_fits(monkeypatch):
    # public fits of one panel from eight threads: each runs a lattice of its own
    panel = simulate(example_model(2), 2048, seed=8)
    results, sizes = _run_concurrently(monkeypatch, lambda i: _lone_fit(panel, _concurrent_fit(i)))
    assert sum(sizes) == len(sizes) == sum(CONCURRENT_ORDERS)
    for i, report in enumerate(results):
        _assert_same_report(report, _lone_fit(panel, _concurrent_fit(i)))


def test_concurrent_fits_of_one_group_share_one_lattice(monkeypatch):
    # eight threads fit one group of three panels; each call runs one batched lattice for the group
    panels = [simulate(example_model(2), 2048, seed=s) for s in range(8, 11)]
    results, sizes = _run_concurrently(monkeypatch, lambda i: estimators._fit_group(panels, [_concurrent_fit(i)]))
    assert len(sizes) == sum(CONCURRENT_ORDERS) and set(sizes) == {len(panels)}
    for i, outcomes in enumerate(results):
        fit = _concurrent_fit(i)
        for panel, own in zip(panels, outcomes):
            _assert_same_report(own[fit], _lone_fit(panel, fit))


# ------------------------------------------------------------ lattice internals

def _assert_matches_reference(panel, p_max, bound, label):
    """A lone panel's stages against the per-block recursion, relative to each stage's largest entry."""
    n = panel.n_channels
    got = _stages(panel, p_max)
    want = ref.nuttall_strand_blocks(panel.data, p_max)
    assert len(got) == len(want) == p_max + 1
    for m, ((ar, cov), (ar_ref, cov_ref)) in enumerate(zip(got, want)):
        assert ar.shape == (m, n, n)
        if m:
            ar_ref = np.array(ar_ref)
            assert np.max(np.abs(ar - ar_ref)) <= bound * np.max(np.abs(ar_ref)), (label, m)
        assert np.max(np.abs(cov - cov_ref)) <= bound * np.max(np.abs(cov_ref)), (label, m)


def _assert_same_stages(got, want):
    assert len(got) == len(want)
    for m, ((ar, cov), (ar_want, cov_want)) in enumerate(zip(got, want)):
        assert np.array_equal(ar, ar_want) and np.array_equal(cov, cov_want), m


def _assert_group_matches_lone_panels(panels, p_max):
    """Each panel's stages in one lattice of ``panels`` are its lone stages, bit for bit."""
    grouped = _group_lattice(panels, p_max)
    assert len(grouped) == len(panels)
    for panel, (stages, error) in zip(panels, grouped):
        assert error is None
        _assert_same_stages(stages, _stages(panel, p_max))


@pytest.mark.parametrize("n", range(1, 8))
def test_lattice_matches_per_block_reference(n):
    """Filter-domain stages, lag products and the eigen-based Sylvester solve against the per-block recursion.

    A lone panel's stages are checked against the reference; in a group
    of R = 1..5 panels each panel's stages equal its lone ones bit for bit.
    """
    rng = np.random.default_rng(100 + n)
    p_max = 12
    for p in (1, 3):
        panel = simulate(_random_stable_model(rng, n, p, 0), 1500, seed=p)
        _assert_matches_reference(panel, p_max, 1e-12, p)
    for size in range(1, 6):
        panels = [
            simulate(_random_stable_model(rng, n, int(rng.integers(1, 4)), 0), 1500, seed=s)
            for s in range(size)
        ]
        for panel, (stages, _) in zip(panels, _group_lattice(panels, p_max)):
            assert all(ar.shape == (m, n, n) and cov.shape == (n, n) for m, (ar, cov) in enumerate(stages))
        _assert_group_matches_lone_panels(panels, p_max)


def _random_panel(n, n_samples, seed):
    return simulate(_random_stable_model(np.random.default_rng(seed), n, 2, 0), n_samples, seed=seed)


# case: (panel factory, p_max, bound).  A stage forms its Gram as W T Wᵀ
# minus the edge errors' Gram, so an error Gram far below the lag products it
# comes from loses digits: the shortest panels the fits accept (N p_max + 2
# samples for fit_var, 4 (50 + q) for fit_vma) are fitted nearly to their
# noise floor, and example 1's unit-circle MA zero gives long, slowly decaying
# filters.  Over seeds 0-11 the largest deviations were 2.0e-13 (ex2, 16384),
# 6.3e-14 (N = 7, 16384), 1.2e-11 (ex2, 152), 2.3e-12 (N = 7, 352), 7.7e-13
# (ex2, 280), 1.3e-11 (ex1, 102) and 1.6e-12 (ex1, 16384); the error-domain
# lattice stays within 1.1e-13 on all of them.  Order 140 runs a lattice
# sized once for it.  Example 2 with 20, 40, 64 and 65 samples (p 8, 15, 30,
# 30) fits orders near half the record, where the edge windows span most of
# it: at seed 0 those deviate by 1.4e-12, 2.5e-12, 1.3e-11 and 8.6e-12, over
# seeds 0-11 by at most 5.5e-11 (64 samples, p = 30).
EXTREME_LATTICES = {
    "ex2-16384": (lambda: simulate(example_model(2), 16384, seed=0), 50, 1e-12),
    "n7-16384": (lambda: _random_panel(7, 16384, 0), 50, 1e-12),
    "ex2-shortest-var": (lambda: simulate(example_model(2), 3 * 50 + 2, seed=0), 50, 5e-11),
    "n7-shortest-var": (lambda: _random_panel(7, 7 * 50 + 2, 0), 50, 5e-11),
    "ex2-shortest-vma": (lambda: simulate(example_model(2), 4 * (50 + 20), seed=0), 50, 5e-11),
    "ex1-shortest-var": (lambda: simulate(example_model(1), 2 * 50 + 2, seed=0), 50, 5e-11),
    "ex1-16384": (lambda: simulate(example_model(1), 16384, seed=0), 50, 1e-11),
    "n2-order-140": (lambda: _random_panel(2, 2048, 0), 140, 1e-12),
    "ex2-20": (lambda: simulate(example_model(2), 20, seed=0), 8, 5e-11),
    "ex2-40": (lambda: simulate(example_model(2), 40, seed=0), 15, 5e-11),
    "ex2-64": (lambda: simulate(example_model(2), 64, seed=0), 30, 5e-11),
    "ex2-65": (lambda: simulate(example_model(2), 65, seed=0), 30, 5e-11),
}


@pytest.mark.parametrize("case", sorted(EXTREME_LATTICES))
def test_lattice_matches_per_block_reference_at_the_extremes(case):
    make, p_max, bound = EXTREME_LATTICES[case]
    _assert_matches_reference(make(), p_max, bound, case)


@pytest.mark.parametrize(
    "n_samples, p_max",
    [pytest.param(2048, 140, id="n2048-order140"), pytest.param(40, 19, id="n40-order19")],
)
def test_lattice_group_past_capacity_matches_lone_panels(n_samples, p_max):
    # a deep lattice, sized once for its order, and one whose edge windows hold nearly
    # the whole record of a short panel: grouped stages stay bit-identical either way,
    # and so do the reports of fits that read them
    panels = [_random_panel(2, n_samples, s) for s in range(3)]
    _assert_group_matches_lone_panels(panels, p_max)
    for panel, own in zip(panels, estimators._fit_group(panels, [("var", p_max)])):
        _assert_same_report(own[("var", p_max)], fit_var(panel, p_max=p_max))


PAST_N_S = "Nuttall-Strand stage 40 is past order n_s - 1 = 39"


@pytest.mark.parametrize("seed", [2, 3])
def test_lattice_past_order_n_s_minus_1_is_a_numerical_failure(seed):
    # seeds 2 and 3 stay positive definite up to order n_s - 1 = 39, where stage 40's
    # lag product would take a negative, wrapping slice of the 40 samples
    with pytest.raises(NumericalError, match=PAST_N_S):
        _stages(simulate(example_model(4), 40, seed=seed), 140)


@pytest.mark.parametrize("failing", [0, 1])
def test_lattice_past_order_n_s_minus_1_spends_its_group(failing):
    # the stacked stage 40 fails, and each panel, in either place of the group, reruns
    # alone and keeps the 40 stages it reaches, with its own error
    seeds = (2, 3) if failing == 0 else (3, 2)
    panels = [simulate(example_model(4), 40, seed=s) for s in seeds]
    grouped = _group_lattice(panels, 140)
    for panel, (stages, error) in zip(panels, grouped):
        assert isinstance(error, NumericalError) and str(error) == PAST_N_S
        _assert_same_stages(stages, _stages(panel, 39))


@pytest.mark.parametrize("size", [1, 3])
def test_group_frees_its_lag_products_before_the_guard(monkeypatch, size):
    # the group's one lag column and one E serve the lattice and every regression, and are
    # gone before the first minimum-phase stack
    buffers, alive = [], []
    real_lag_products, real_regress = estimators._lag_products, estimators._regress_two_step
    real_guard = estimators._minimum_phase_stack

    def tracked_lag_products(x, depth):
        lags, edges = real_lag_products(x, depth)
        buffers.extend([weakref.ref(lags), weakref.ref(edges)])
        return lags, edges

    def regressing(*args):
        alive.append([ref() is not None for ref in buffers])
        return real_regress(*args)

    def checking_guard(parts):
        gc.collect()
        alive.append([ref() is not None for ref in buffers])
        return real_guard(parts)

    monkeypatch.setattr(estimators, "_lag_products", tracked_lag_products)
    monkeypatch.setattr(estimators, "_regress_two_step", regressing)
    monkeypatch.setattr(estimators, "_minimum_phase_stack", checking_guard)
    panels = [simulate(example_model(2), 1024, seed=s) for s in range(size)]
    fits = [("var", 7), ("two_step", 0, 1, 12), ("two_step", 1, 1, 12)]
    got = estimators._fit_group(panels, fits)
    assert len(buffers) == 2
    assert alive == [[True, True]] * (2 * size) + [[False, False]] * 2  # two regressions a panel, two stacks
    for panel, own in zip(panels, got):
        _assert_same_report(own[fits[0]], fit_var(panel, p_max=7))
        _assert_same_report(own[fits[1]], fit_vma(panel, 1, long_ar_order=12))
        _assert_same_report(own[fits[2]], fit_varma(panel, 1, 1, long_ar_order=12))


@pytest.mark.parametrize("cap, n_samples", [(8, 1), (8, 5), (8, 8), (8, 13), (64, 40), (64, 64), (64, 65), (64, 300)])
def test_edge_windows_layout(cap, n_samples):
    """Column 2t holds X(t) and column 2t + 1 holds X(n_s + t), X(t) = [x(t); ...; x(t - cap)], zero off the record."""
    rng = np.random.default_rng(cap + n_samples)
    for r in (1, 2, 3):
        for n in (1, 2, 3):
            x = rng.standard_normal((r, n, n_samples))
            want = np.zeros((r, (cap + 1) * n, 2 * cap))
            for t in range(cap):
                for edge, start in enumerate((0, n_samples)):
                    for k in range(cap + 1):
                        if 0 <= start + t - k < n_samples:
                            want[:, k * n : (k + 1) * n, 2 * t + edge] = x[:, :, start + t - k]
            got = estimators._edge_windows(x, cap)
            assert got.shape == want.shape and np.array_equal(got, want), (r, n)


@pytest.mark.parametrize("n", range(1, 17))
def test_sylvester_solve_residual(n):
    rng = np.random.default_rng(n)
    size = 3  # panels of a group, solved in one call
    pfh, pf, pbh, pb = (w @ w.swapaxes(1, 2) for w in rng.normal(size=(4, size, n, 3 * n)))
    c = rng.normal(size=(size, n, n))
    ab = estimators._solve_sylvester(np.stack([pfh, pbh], axis=1), np.stack([pf, pb], axis=1), c)
    assert ab.shape == (size, 2, n, n)
    for k in range(size):
        a_m, b_m = ab[k]
        x = a_m @ pb[k]  # [A_m, B_m] = [X pb⁻¹, Xᵀ pf⁻¹]
        residual = pfh[k] @ np.linalg.inv(pf[k]) @ x + x @ np.linalg.inv(pb[k]) @ pbh[k] - c[k]
        assert np.linalg.norm(residual) < 1e-12 * np.linalg.norm(c[k])
        b_want = x.T @ np.linalg.inv(pf[k])
        assert np.linalg.norm(b_m - b_want) < 1e-12 * np.linalg.norm(b_want)


def _collinear_panel(n_samples=4096):
    a = np.random.default_rng(0).standard_normal(n_samples)
    return TimeSeriesPanel(np.vstack([a, a + 1e-9 * np.random.default_rng(1).standard_normal(n_samples)]))


def test_nearly_collinear_panel_is_a_numerical_failure():
    with pytest.raises(NumericalError, match="Nuttall-Strand stage"):
        fit_var(_collinear_panel(), p_max=5)


def _failing_group(failing):
    """Two healthy example-1 panels and a collinear one at place ``failing``, and its lone error."""
    panels = [simulate(example_model(1), 4096, seed=60), simulate(example_model(1), 4096, seed=61)]
    panels.insert(failing, _collinear_panel())
    return panels, _error_text(lambda: fit_var(panels[failing], p_max=5))


def _error_text(fit):
    with pytest.raises(NumericalError, match=r"Nuttall-Strand stage \d+") as info:
        fit()
    return str(info.value)


VAR_AND_VMA = [("var", 5), ("var", 30), ("two_step", 0, 1, 50)]


@pytest.mark.parametrize("first", [0, 1])
def test_failed_group_breaks_up(first):
    # the collinear panel, first or in the middle, takes its lone error for every fit,
    # and the others, rerun on lattices of their own, get their lone reports
    panels, alone = _failing_group(first)
    got = estimators._fit_group(panels, VAR_AND_VMA)
    for k, (panel, own) in enumerate(zip(panels, got)):
        if k == first:
            assert all(type(own[fit]) is NumericalError and str(own[fit]) == alone for fit in VAR_AND_VMA)
            assert _error_text(lambda: fit_var(panel, p_max=5)) == alone  # a retry fails the same way
        else:
            _assert_same_report(own[VAR_AND_VMA[0]], fit_var(panel, p_max=5))
            _assert_same_report(own[VAR_AND_VMA[1]], fit_var(panel, p_max=30))
            _assert_same_report(own[VAR_AND_VMA[2]], fit_vma(panel, 1))


def test_failed_stage_fails_only_the_deeper_fits_of_its_panel(monkeypatch):
    # a stage forced to fail at order 12 for one panel, in the stack and alone: that panel
    # keeps its fits up to order 11, and every other panel gets its lone reports
    panels = [simulate(example_model(1), 1024, seed=s) for s in range(3)]
    real = estimators._lattice_stages

    def failing(lags, edges, n_samp):
        for m, stage in enumerate(real(lags, edges, n_samp)):
            # the first column of a panel's edge windows starts with its first sample
            if m == 12 and any(np.array_equal(e[:2, 0], panels[1].data[:, 0]) for e in edges):
                raise NumericalError("Nuttall-Strand stage 12 failed: forced")
            yield stage

    monkeypatch.setattr(estimators, "_lattice_stages", failing)
    fits = [("var", 11), ("var", 12), ("two_step", 0, 1, 50)]
    got = estimators._fit_group(panels, fits)
    _assert_same_report(got[1][fits[0]], fit_var(panels[1], p_max=11))
    assert all(str(got[1][fit]) == "Nuttall-Strand stage 12 failed: forced" for fit in fits[1:])
    for k in (0, 2):
        _assert_same_report(got[k][fits[0]], fit_var(panels[k], p_max=11))
        _assert_same_report(got[k][fits[1]], fit_var(panels[k], p_max=12))
        _assert_same_report(got[k][fits[2]], fit_vma(panels[k], 1))


@pytest.mark.xfail(strict=True, reason="the Wilson swap leaves MA zeros next to the unit circle outside it")
@pytest.mark.parametrize("seed", [56003, 56015])
def test_fitted_ma_is_minimum_phase_near_the_unit_circle(seed):
    # the two-step fit lands at 1.000138 and 1.000091; the swap moves them to 1.003363 and 1.004099
    report = fit_vma(simulate(example_model(1), 1024, seed=seed), 1)
    assert np.max(ma_root_report(report.model).magnitudes) <= 1.0 + 1e-6


# ------------------------------------------------------- two-step groups and the guard

#: example-1 seeds whose VMA(1) fit the guard swaps (56003 and 56015 land next to the unit circle)
SWAPPED_SEEDS = (56001, 56003, 56004, 56006, 56007, 56012, 56013, 56014, 56015)


VMA1 = ("two_step", 0, 1, estimators.DEFAULT_LONG_AR_ORDER)


def _group_outcomes(panels, size, fit):
    """Each panel's outcome of ``fit``, made in groups of ``size`` as the Monte Carlo driver makes it."""
    return [own[fit] for k in range(0, len(panels), size) for own in estimators._fit_group(panels[k : k + size], [fit])]


def _record_stacks(monkeypatch, budget=None):
    """Record the size of every Wilson stack the guard runs; optionally force its iteration budget."""
    real, sizes = wilson._factorize_stack, []

    def recording(spectra, tol, max_iter):
        sizes.append(len(spectra))
        return real(spectra, tol, max_iter if budget is None else budget)

    monkeypatch.setattr(wilson, "_factorize_stack", recording)
    return sizes


def _outcome(fit):
    try:
        return fit()
    except Exception as exc:
        return exc


@pytest.mark.parametrize("size", [1, 4, 8])
def test_grouped_vma_fits_match_lone_ones(monkeypatch, size):
    # seeds 56000-56015: a group swaps its members' MA parts in one Wilson stack,
    # and each report is the lone fit's
    panels = [simulate(example_model(1), 1024, seed=s) for s in range(56000, 56016)]
    sizes = _record_stacks(monkeypatch)
    got = _group_outcomes(panels, size, VMA1)
    swapped = [sum(s in SWAPPED_SEEDS for s in range(56000 + k, 56000 + k + size)) for k in range(0, 16, size)]
    assert sizes == [n for n in swapped if n]
    del sizes[:]
    for panel, report in zip(panels, got):
        _assert_same_report(report, fit_vma(panel, 1))
    assert sizes == [1] * len(SWAPPED_SEEDS)


def test_swap_out_of_iterations_fails_its_own_fit(monkeypatch):
    # with 15 iterations 56003's swap (19 alone) runs out; 56001, 56004, 56006 and 56007
    # (11-14) converge in the same stack, and every other member gets its lone report
    panels = [simulate(example_model(1), 1024, seed=s) for s in range(56000, 56008)]
    sizes = _record_stacks(monkeypatch, budget=15)
    got = _group_outcomes(panels, 8, VMA1)
    assert sizes == [5]
    want = [_outcome(lambda: fit_vma(panel, 1)) for panel in panels]
    for seed, g, w in zip(range(56000, 56008), got, want):
        if seed == 56003:
            assert type(g) is type(w) is NonConvergenceError and str(g) == str(w)
        else:
            _assert_same_report(g, w)


def test_failed_root_check_fails_only_its_own_fit(monkeypatch):
    # 56002's MA root check raising (forced) fails its fit alone; in the same guard stack
    # 56001 and 56003 are swapped and 56000 is kept, each with its lone report
    panels = [simulate(example_model(1), 1024, seed=s) for s in range(56000, 56004)]
    bad_ma = _lone_two_step(panels[2], 0, 1)[1]
    real = estimators.ma_root_report

    def failing(model):
        if np.array_equal(model.ma_blocks, bad_ma):
            raise NumericalError("forced root-check failure")
        return real(model)

    monkeypatch.setattr(estimators, "ma_root_report", failing)
    sizes = _record_stacks(monkeypatch)
    got = _group_outcomes(panels, 4, VMA1)
    assert sizes == [2]
    want = [_outcome(lambda: fit_vma(panel, 1)) for panel in panels]
    for k, (g, w) in enumerate(zip(got, want)):
        if k == 2:
            assert type(g) is type(w) is NumericalError and str(g) == str(w) == "forced root-check failure"
        else:
            _assert_same_report(g, w)


def _pole_model():
    """Example 2 with a third-channel pole at 0.999: the VARMA(2, 2) fits of seeds 14 and 29 are not stable."""
    base = example_model(2)
    ar = base.ar_blocks.copy()
    ar[0, 2, 2] = 0.999
    return VarmaModel(ar, base.ma_blocks, base.innovations_cov)


def test_grouped_varma_fits_keep_their_warnings():
    # in groups of five each unstable member warns at its turn, from spectralgc.experiments,
    # as it does alone; the public fit_varma attributes its warning to its caller
    model, seeds = _pole_model(), (12, 13, 14, 15, 16, 27, 28, 29, 30, 31)
    spec = ExperimentSpec(n_samples=1024, methods=("varma",), orders=(2, 2))

    def warnings_of(rs):
        fields, caught = experiments._realization_fields(model, spec, ("varma",), None, (2, 2), rs)
        return [w for w in caught if w[0] is not UserWarning or "not stable" in w[1]]

    for group in (seeds[:5], seeds[5:]):
        got = warnings_of(group)
        assert [(category, message, module) for category, message, _, _, module in got] == [
            (UserWarning, "fitted VARMA autoregressive part is not stable", "spectralgc.experiments")
        ]
        assert got == [w for r in group for w in warnings_of([r])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k, seed in enumerate(seeds):
            n = len(caught)
            fit_varma(simulate(model, 1024, seed=seed), 2, 2)
            caught[n:] = [(k, w.category, w.filename) for w in caught[n:]]
    assert caught == [(k, UserWarning, __file__) for k in (2, 7)]


def test_guard_stack_members_match_lone_guards():
    # the stack-level guard against its stack of one, on swapped and untouched MA parts
    parts = []
    for seed in range(56000, 56008):
        parts.append(_lone_two_step(simulate(example_model(1), 1024, seed=seed), 0, 1)[1:])
    for part, (got_ma, got_sigma) in zip(parts, estimators._minimum_phase_stack(parts)):
        ((want_ma, want_sigma),) = estimators._minimum_phase_stack([part])
        assert np.array_equal(got_ma, want_ma) and np.array_equal(got_sigma, want_sigma)


def test_concurrent_fits_of_one_two_step_group():
    # eight threads fit one group of eight at once: each call swaps in its own Wilson stack,
    # and every member gets its lone report
    panels = [simulate(example_model(1), 1024, seed=s) for s in range(56000, 56008)]
    got = [None] * 8

    def fit(k):
        got[k] = estimators._fit_group(panels, [VMA1])

    threads = [threading.Thread(target=fit, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for panel, *outcomes in zip(panels, *got):
        want = fit_vma(panel, 1)
        for own in outcomes:
            _assert_same_report(own[VMA1], want)
