import re

import numpy as np
import pytest

import reference_impl as ref
from spectralgc import (
    ConfigError,
    FrequencyGrid,
    NonConvergenceError,
    NonPositiveSpectrumError,
    SpectralMatrix,
    TimeSeriesPanel,
    example_model,
    innovation_form,
    simulate,
    theoretical_spectrum,
    transfer_function,
    welch_cross_spectrum,
    wilson_factorize,
)
from spectralgc import wilson


def test_identity_spectrum_factors_trivially():
    grid = FrequencyGrid(32)
    S = SpectralMatrix(grid, np.broadcast_to(np.eye(2), (grid.one_sided_count, 2, 2)).astype(complex))
    factor = wilson_factorize(S)
    assert np.max(np.abs(factor.values - np.eye(2))) < 1e-8
    assert np.max(np.abs(factor.sigma - np.eye(2))) < 1e-8


def test_factor_matches_transfer_function_example2():
    # the theoretical spectrum is sampled on a fine grid so that the lag
    # truncation inside the iteration sits well below the tolerance
    model = example_model(2)
    grid = FrequencyGrid(4096)
    S = theoretical_spectrum(model, grid)
    factor = wilson_factorize(S, tol=1e-8)
    canonical = innovation_form(model)
    H_ref = transfer_function(canonical, grid).values
    assert np.max(np.abs(factor.values - H_ref)) < 1e-6
    assert np.max(np.abs(factor.sigma - canonical.innovations_cov)) < 1e-6
    assert factor.diagnostics["residual"] < 1e-6


def test_factor_zero_lag_is_identity():
    S = theoretical_spectrum(example_model(2), FrequencyGrid(1024))
    factor = wilson_factorize(S)
    lag0 = np.fft.irfft(factor.values, n=S.grid.n_points, axis=0)[0]
    assert np.max(np.abs(lag0 - np.eye(3))) < 1e-6


def test_idempotence_on_factored_input():
    model = example_model(2)
    grid = FrequencyGrid(1024)
    factor = wilson_factorize(theoretical_spectrum(model, grid), tol=1e-7)
    refactored = wilson_factorize(factor.spectrum(), tol=1e-7)
    assert np.max(np.abs(refactored.values - factor.values)) < 1e-6
    assert np.max(np.abs(refactored.sigma - factor.sigma)) < 1e-6


def test_phase_blindness_on_nonminimum_phase_spectrum():
    # the factor of Example 4's spectrum is a different (minimum-phase)
    # system, but it reassembles the same spectrum
    model = example_model(4)
    grid = FrequencyGrid(1024)
    S = theoretical_spectrum(model, grid)
    factor = wilson_factorize(S, tol=1e-8)
    assert np.max(np.abs(factor.spectrum().values - S.values)) < 1e-8 * np.max(np.abs(S.values))
    # and it is genuinely a different transfer function
    H_gen = transfer_function(model, grid).values
    assert np.max(np.abs(factor.values - H_gen)) > 0.1


def test_non_psd_input_rejected():
    grid = FrequencyGrid(16)
    values = np.broadcast_to(np.diag([1.0, -1.0]), (grid.one_sided_count, 2, 2)).astype(complex)
    with pytest.raises(NonPositiveSpectrumError):
        wilson_factorize(SpectralMatrix(grid, values))


def test_iteration_budget_enforced():
    S = theoretical_spectrum(example_model(2), FrequencyGrid(512))
    with pytest.raises(NonConvergenceError):
        wilson_factorize(S, tol=1e-12, max_iter=2)


def test_diagnostics_reported():
    S = theoretical_spectrum(example_model(2), FrequencyGrid(512))
    factor = wilson_factorize(S)
    assert factor.diagnostics["iterations"] >= 1
    assert factor.diagnostics["final_delta"] < 1e-6
    assert factor.diagnostics["residual"] < 1e-5


def _seven_channel_welch():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 8192))
    x[1:] += 0.5 * x[:-1]  # correlated channels
    return welch_cross_spectrum(TimeSeriesPanel(x))


EQUIVALENCE_CASES = {
    "theory-ex2": lambda: theoretical_spectrum(example_model(2), FrequencyGrid(1024)),
    "theory-ex4": lambda: theoretical_spectrum(example_model(4), FrequencyGrid(1024)),
    "welch-ex1": lambda: welch_cross_spectrum(simulate(example_model(1), 8192, seed=3)),
    "welch-ex2": lambda: welch_cross_spectrum(simulate(example_model(2), 8192, seed=3)),
    "welch-7ch": _seven_channel_welch,
}


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_one_sided_matches_two_sided_reference(case, tol):
    S = EQUIVALENCE_CASES[case]()
    factor = wilson_factorize(S, tol=tol)
    H, sigma, iterations = ref.wilson_two_sided(ref.two_sided(S.values), tol=tol)
    H = H[: S.grid.one_sided_count]
    assert factor.diagnostics["iterations"] == iterations
    assert np.max(np.abs(factor.values - H)) <= 1e-10 * np.max(np.abs(H))
    assert np.max(np.abs(factor.sigma - sigma)) <= 1e-10 * np.max(np.abs(sigma))


def test_one_sided_no_worse_than_two_sided_at_a_unit_circle_zero():
    # Example 1's MA zero lies on the unit circle, at nu = 1/2, so its
    # spectrum is singular at that grid point and the iteration creeps
    # towards its fixed point.  There rounding alone moves the stopping
    # point: rescaling S by one ulp moves the two-sided H by up to 2e-7
    # (relative), and the one- and two-sided factors stop 4e-3 to 6e-3
    # apart, both far from the true factor.  So the check is that the
    # one-sided factor is no farther from it, and reconstructs S no
    # worse, than the two-sided one.
    model = example_model(1)
    for n_points in (256, 1024):
        grid = FrequencyGrid(n_points)
        S = theoretical_spectrum(model, grid)
        factor = wilson_factorize(S)
        H, sigma, _ = ref.wilson_two_sided(ref.two_sided(S.values))
        H = H[: grid.one_sided_count]
        H_true = transfer_function(innovation_form(model), grid).values
        assert np.max(np.abs(factor.values - H_true)) <= np.max(np.abs(H - H_true))
        residual_ref = np.max(np.abs(H @ sigma @ H.conj().transpose(0, 2, 1) - S.values))
        assert factor.diagnostics["residual"] * np.max(np.abs(S.values)) <= residual_ref


def test_input_of_a_complex_process_rejected():
    # Hermitian and positive definite at every frequency, but constant
    # with an imaginary cross term, so S(-nu) = S(nu) != conj S(nu)
    grid = FrequencyGrid(16)
    values = np.broadcast_to(np.array([[1.0, 0.5j], [-0.5j, 1.0]]), (grid.one_sided_count, 2, 2))
    with pytest.raises(ConfigError, match="conjugate-symmetric"):
        wilson_factorize(SpectralMatrix(grid, values))


# ------------------------------------------------------------ stacked members

def _lone(spectrum, **kw):
    """``wilson_factorize``'s factor, or the exception it raises."""
    try:
        return wilson_factorize(spectrum, **kw)
    except Exception as exc:
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.sigma, want.sigma)
        assert got.diagnostics == want.diagnostics


def _stack_members():
    """Example-1 Welch spectra and example-4's exact one on the same 129-point grid."""
    spectra = [welch_cross_spectrum(simulate(example_model(1), 1024, seed=s)) for s in range(6)]
    exact = theoretical_spectrum(example_model(4), FrequencyGrid(256))
    return spectra + [exact, SpectralMatrix(exact.grid, np.ascontiguousarray(exact.values))]


@pytest.mark.parametrize("max_iter", [500, 13])
def test_stacked_members_match_lone_calls(max_iter):
    # the members leave at different iterations; with 13 the slower ones run out
    spectra = _stack_members()
    got = wilson._factorize_stack(spectra, max_iter=max_iter)
    want = [_lone(s, max_iter=max_iter) for s in spectra]
    iterations = {w.diagnostics["iterations"] for w in want if not isinstance(w, Exception)}
    assert len(iterations) >= 3
    assert any(isinstance(w, NonConvergenceError) for w in want) == (max_iter == 13)
    for g, w in zip(got, want):
        _assert_same_outcome(g, w)


def test_stack_of_one_in_c_order():
    # a factor depends on its spectrum's values, not on their memory layout: a C-ordered
    # copy of a Welch estimate (frequency-fastest) factors bit for bit as the estimate does,
    # alone and in a stack, and the estimate keeps the summation order of its own layout
    S = welch_cross_spectrum(simulate(example_model(1), 1024, seed=3))
    c_order = SpectralMatrix(S.grid, np.ascontiguousarray(S.values))
    assert c_order.values.flags.c_contiguous and not S.values.flags.c_contiguous
    F = S.grid.n_points
    assert np.array_equal(wilson._canonical_grid_mean(S.values, F), wilson._grid_mean(S.values, F))
    want = _lone(S)
    _assert_same_outcome(_lone(c_order), want)
    for got in wilson._factorize_stack([c_order, S]):
        _assert_same_outcome(got, want)


@pytest.mark.parametrize("min_eig, rejected", [(-0.5e-6, False), (-2e-6, True)])
def test_psd_check_threshold(min_eig, rejected):
    # scale 1 (the largest entry); one point is a rotation of diag(1, min_eig)
    values = np.tile(np.diag([1.0, 0.5]).astype(complex), (9, 1, 1))
    u = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    values[3] = u @ np.diag([1.0, min_eig]) @ u.conj().T
    if not rejected:
        wilson._check_psd(values)
        return
    message = f"input spectrum has eigenvalue {min_eig:.3e} below -1e-6 * scale ({1.0:.3e})"
    with pytest.raises(NonPositiveSpectrumError, match=re.escape(message)):
        wilson._check_psd(values)


def test_failing_members_leave_the_others_unchanged():
    spectra = _stack_members()
    grid = spectra[0].grid
    indefinite = SpectralMatrix(grid, spectra[1].values * np.array([1.0, -1.0])[:, None])
    complex_ends = spectra[2].values.copy()
    complex_ends[0, 0, 1] += 0.5j
    complex_ends[0, 1, 0] -= 0.5j
    members = [spectra[0], indefinite, spectra[3], SpectralMatrix(grid, complex_ends), spectra[6]]
    got = wilson._factorize_stack(members)
    want = [_lone(s) for s in members]
    assert isinstance(want[1], NonPositiveSpectrumError) and isinstance(want[3], ConfigError)
    for g, w in zip(got, want):
        _assert_same_outcome(g, w)
