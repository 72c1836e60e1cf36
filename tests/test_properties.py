"""Algebraic invariants of the measures on random stable VARMA models.

Hypothesis draws the size N = 2..5, the orders p, q = 0..2 and a seed;
the seed draws Gaussian coefficients in innovation form (``B_0 = I``)
until every AR and MA root lies inside ``|z| < 0.95``, so that ``H`` and
``H^{-1}`` are well defined on the whole unit circle.  Runs are
derandomized and bounded so the suite is deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from spectralgc import (
    FrequencyGrid,
    VarmaModel,
    ar_root_report,
    coherency,
    directed_coherence,
    gamma_factor,
    gpdc,
    innovation_structure,
    ma_root_report,
    pi_factor,
    theoretical_spectrum,
    total_dtf,
    total_pdc,
    transfer_function,
    wilson_factorize,
)

GRID = FrequencyGrid(64)
ROOT_MARGIN = 0.95
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)


@st.composite
def stable_varma(draw, diagonal_sigma=False):
    n = draw(st.integers(2, 5))
    p = draw(st.integers(0, 2))
    q = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:  # rejection sampling; the root reports are small eigenvalue problems
        ar = rng.normal(scale=0.6 / np.sqrt(n), size=(p, n, n))
        ma = np.concatenate([np.eye(n)[None], rng.normal(scale=0.6 / np.sqrt(n), size=(q, n, n))])
        w = rng.normal(size=(n, n))
        sigma = w @ w.T + 0.1 * np.eye(n)
        model = VarmaModel(ar, ma, np.diag(np.diag(sigma)) if diagonal_sigma else sigma)
        reports = (ar_root_report(model), ma_root_report(model))
        if all(r.roots.size == 0 or np.max(r.magnitudes) < ROOT_MARGIN for r in reports):
            return model


@PROPERTY_SETTINGS
@given(stable_varma())
def test_tpdc_columns_and_tdtf_rows_sum_to_one(model):
    factor = transfer_function(model, GRID)
    assert np.max(np.abs(total_pdc(factor).values.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(total_dtf(factor).values.sum(axis=2) - 1.0)) < 1e-12


@PROPERTY_SETTINGS
@given(stable_varma(diagonal_sigma=True))
def test_diagonal_sigma_collapses_to_gpdc_and_dc(model):
    factor = transfer_function(model, GRID)
    assert np.max(np.abs(total_pdc(factor).values - gpdc(factor).values)) < 1e-12
    assert np.max(np.abs(total_dtf(factor).values - directed_coherence(factor).values)) < 1e-12


@PROPERTY_SETTINGS
@given(stable_varma())
def test_gamma_and_pi_reproduce_coherency_and_its_inverse(model):
    # Gamma R Gamma^H = C and Pi^H Rt Pi = C^{-1} at every one-sided frequency
    factor = transfer_function(model, GRID)
    structure = innovation_structure(factor.sigma)
    C = coherency(factor.spectrum()).values
    gamma = gamma_factor(factor)
    assert np.max(np.abs(gamma @ structure.R @ gamma.conj().transpose(0, 2, 1) - C)) < 1e-10
    pi = pi_factor(factor)
    K = np.linalg.inv(C)
    lhs = pi.conj().transpose(0, 2, 1) @ structure.Rt @ pi
    assert np.max(np.abs(lhs - K)) < 1e-10 * np.max(np.abs(K))


def _permuted(model, perm):
    """The same process with channel ``perm[i]`` relabelled as channel ``i``."""
    P = np.eye(model.n_channels)[perm]
    return VarmaModel(
        P @ model.ar_blocks @ P.T, P @ model.ma_blocks @ P.T, P @ model.innovations_cov @ P.T
    )


@PROPERTY_SETTINGS
@given(stable_varma(), st.data())
def test_total_measures_permute_with_the_channels(model, data):
    perm = np.array(data.draw(st.permutations(range(model.n_channels))))
    factor = transfer_function(model, GRID)
    permuted = transfer_function(_permuted(model, perm), GRID)
    for measure in (total_pdc, total_dtf):
        expected = measure(factor).values[:, perm][:, :, perm]
        assert np.max(np.abs(measure(permuted).values - expected)) < 1e-10


WILSON_GRID = FrequencyGrid(1024)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(stable_varma())
def test_wilson_recovers_the_innovation_form(model):
    # the strategy draws innovation form, so H and sigma are the model's
    # own; at |root| < 0.95 the lag truncation of 1024 points is ~1e-11
    S = theoretical_spectrum(model, WILSON_GRID)
    factor = wilson_factorize(S, tol=1e-10)
    H = transfer_function(model, WILSON_GRID).values
    sigma = model.innovations_cov
    assert np.max(np.abs(factor.values - H)) <= 1e-9 * np.max(np.abs(H))
    assert np.max(np.abs(factor.sigma - sigma)) <= 1e-9 * np.max(np.abs(sigma))
    _, _, iterations = ref.wilson_two_sided(ref.two_sided(S.values), tol=1e-10)
    assert factor.diagnostics["iterations"] == iterations
