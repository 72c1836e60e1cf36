import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import reference_impl as ref
from spectralgc import (
    ConfigError,
    FrequencyGrid,
    SingularFrequencyError,
    VarmaModel,
    ar_root_report,
    eval_ar_polynomial,
    eval_ma_polynomial,
    example_model,
    innovation_form,
    ma_root_report,
    theoretical_spectrum,
    transfer_function,
)
from spectralgc import models


def test_frequency_grid_basics():
    grid = FrequencyGrid(8)
    assert np.allclose(grid.values, np.arange(5) / 8)
    assert grid.one_sided_count == 5
    assert grid.values[-1] == 0.5


def test_frequency_grid_rejects_odd_or_tiny():
    with pytest.raises(ConfigError):
        FrequencyGrid(7)
    with pytest.raises(ConfigError):
        FrequencyGrid(0)


def test_model_validation_rejects_bad_sigma():
    eye = np.eye(2)[None]
    with pytest.raises(ConfigError):
        VarmaModel(np.zeros((0, 2, 2)), eye, np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ConfigError):
        VarmaModel(np.zeros((0, 2, 2)), eye, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_model_validation_rejects_singular_leading_ma_block():
    ma = np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(ConfigError):
        VarmaModel(np.zeros((0, 2, 2)), ma, np.eye(2))


def test_model_json_roundtrip(tmp_path):
    model = example_model(2)
    path = tmp_path / "model.json"
    model.save_json(path)
    loaded = VarmaModel.load_json(path)
    assert np.allclose(loaded.ar_blocks, model.ar_blocks)
    assert np.allclose(loaded.ma_blocks, model.ma_blocks)
    assert np.allclose(loaded.innovations_cov, model.innovations_cov)
    assert loaded.content_hash() == model.content_hash()


def test_model_dict_defaults():
    # absent ar -> p=0; absent ma -> q=0 with identity leading block
    model = VarmaModel.from_dict({"n_channels": 2, "sigma": [[1, 0], [0, 1]]})
    assert model.ar_order == 0 and model.ma_order == 0
    assert np.allclose(model.ma_blocks[0], np.eye(2))


def test_eval_ar_example2_at_zero_frequency():
    # A(0) entry (1,1) = 1 - 2 r cos(theta) + r^2 with r=0.95, theta=pi/3
    A0 = eval_ar_polynomial(example_model(2), 0.0)
    assert A0.shape == (3, 3)
    assert abs(A0[0, 0] - 0.9525) < 1e-12
    assert abs(A0[1, 0] - (-0.5)) < 1e-12
    assert abs(A0[2, 2] - 0.3) < 1e-12


def test_eval_ma_example4_at_zero_frequency():
    B0 = eval_ma_polynomial(example_model(4), 0.0)
    assert np.allclose(B0, [[7.0, 3.0], [0.0, 3.0]], atol=1e-14)


def test_eval_ma_example1_at_nyquist():
    # B(1/2) = B_0 - B_1: the second column cancels in the bottom row
    B = eval_ma_polynomial(example_model(1), 0.5)
    assert np.allclose(B, [[1.0, -1.0], [0.0, 0.0]], atol=1e-14)


def test_eval_vectorized_matches_scalar():
    model = example_model(2)
    nu = np.array([0.0, 0.123, 0.5])
    stacked = eval_ar_polynomial(model, nu)
    for k, v in enumerate(nu):
        assert np.allclose(stacked[k], eval_ar_polynomial(model, v))


def test_theoretical_spectrum_example1_dc_value():
    S = theoretical_spectrum(example_model(1), FrequencyGrid(64))
    assert np.allclose(S.values[0], [[8.0, 12.0], [12.0, 20.0]], atol=1e-12)
    # Hermitian everywhere
    assert np.max(np.abs(S.values - S.values.conj().transpose(0, 2, 1))) < 1e-12


def test_transfer_function_identity_model():
    model = VarmaModel(np.zeros((0, 2, 2)), np.eye(2)[None], np.eye(2))
    factor = transfer_function(model, FrequencyGrid(16))
    assert np.allclose(factor.values, np.eye(2)[None], atol=1e-15)


def test_transfer_function_rejects_singular_frequency():
    # A(0) = I - diag(1, 0.5) = diag(0, 0.5) is exactly singular
    model = VarmaModel(np.array([np.diag([1.0, 0.5])]), np.eye(2)[None], np.eye(2))
    with pytest.raises(SingularFrequencyError, match=r"nu=0\.000000"):
        transfer_function(model, FrequencyGrid(16))


def test_ar_roots_example2():
    report = ar_root_report(example_model(2))
    assert report.classification == "stable"
    assert np.allclose(np.sort(report.magnitudes), [0.5, 0.7, 0.95, 0.95], atol=1e-10)


def test_ma_roots_example2_constant_determinant():
    # det B(z) is identically 1 for this system: no roots at all
    report = ma_root_report(example_model(2))
    assert report.roots.size == 0
    assert report.classification == "minimum-phase"


def test_ma_roots_example4_nonminimum_phase():
    report = ma_root_report(example_model(4))
    assert report.classification == "nonminimum-phase"
    assert np.allclose(
        np.sort(report.magnitudes), [np.sqrt(2), np.sqrt(2), 2.0, 2.0], atol=1e-9
    )


def test_ma_roots_example1_boundary_root():
    # det B(z) = 1 + z^{-1}: a single root exactly on the unit circle,
    # still classified minimum-phase
    report = ma_root_report(example_model(1))
    assert report.roots.size == 1
    assert abs(report.roots[0] - (-1.0)) < 1e-10
    assert report.classification == "minimum-phase"


def _root_cases():
    """Examples 1, 2, 4 and random full-rank VAR(p)/VMA(p) models, N = 1..7, p = 1..2."""
    models = [example_model(ex) for ex in (1, 2, 4)]
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for p in (1, 2):
            ar = rng.normal(size=(p, n, n)) / np.sqrt(n)
            ma = rng.normal(size=(p + 1, n, n)) / np.sqrt(n)
            models.append(VarmaModel(ar, ma, np.eye(n)))
    cases = []
    for model in models:
        ar_coeffs = np.concatenate([np.eye(model.n_channels)[None], -model.ar_blocks])
        cases.append((ar_root_report(model), ar_coeffs))
        cases.append((ma_root_report(model), model.ma_blocks))
    return cases


def test_roots_match_leibniz_determinant():
    # same count and same set as the roots of the N!-term determinant polynomial
    for report, coeffs in _root_cases():
        expected = ref.roots_leibniz(coeffs)
        assert report.roots.size == expected.size
        if expected.size:
            dist = np.abs(report.roots[:, None] - expected[None, :])
            rows, cols = linear_sum_assignment(dist)
            assert np.max(dist[rows, cols] / np.maximum(1.0, np.abs(expected[cols]))) < 1e-10


def test_rank_one_var_has_single_root():
    # det(I - w u v^T) = 1 - w v^T u: exactly one root, at z = v^T u
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=4), rng.normal(size=4)
    report = ar_root_report(VarmaModel(np.outer(u, v)[None], np.eye(4)[None], np.eye(4)))
    assert report.roots.size == 1
    assert abs(report.roots[0] - v @ u) < 1e-12


def test_roots_annihilate_determinant():
    # the polynomial at w = 1/z is singular: its smallest singular value is
    # at rounding level relative to the size of the terms summed into it
    for report, coeffs in _root_cases():
        for z in report.roots:
            w = 1.0 / z
            P = sum(c * w**k for k, c in enumerate(coeffs))
            scale = sum(np.linalg.norm(c, 2) * abs(w) ** k for k, c in enumerate(coeffs))
            assert np.linalg.svd(P, compute_uv=False)[-1] < 1e-10 * scale


def test_unstable_ar_classification():
    model = VarmaModel(np.array([[[1.01]]]), np.eye(1)[None], np.eye(1))
    assert ar_root_report(model).classification == "unstable"


def test_innovation_form_normalizes_and_preserves_spectrum():
    model = example_model(2)
    canonical = innovation_form(model)
    assert np.allclose(canonical.ma_blocks[0], np.eye(3), atol=1e-14)
    grid = FrequencyGrid(128)
    S1 = theoretical_spectrum(model, grid).values
    S2 = theoretical_spectrum(canonical, grid).values
    assert np.max(np.abs(S1 - S2)) < 1e-12
    # already-normalized models pass through untouched
    m1 = example_model(1)
    assert innovation_form(m1) is m1


def test_leading_ma_block_near_identity_is_not_taken_for_identity(tmp_path):
    # B0 lies within np.allclose of I, but it is not I
    near = VarmaModel(np.zeros((0, 2, 2)), [[[1.0, 5e-9], [0.0, 1.0]]], [[1.0, 0.3], [0.3, 2.0]])
    exact = VarmaModel(np.zeros((0, 2, 2)), np.eye(2)[None], near.innovations_cov)
    canonical = innovation_form(near)
    assert canonical is not near
    assert np.max(np.abs(canonical.ma_blocks[0] - np.eye(2))) < 1e-15
    grid = FrequencyGrid(16)
    assert np.allclose(theoretical_spectrum(canonical, grid).values, theoretical_spectrum(near, grid).values, 0, 1e-14)
    near.save_json(tmp_path / "near.json")
    assert np.array_equal(VarmaModel.load_json(tmp_path / "near.json").ma_blocks, near.ma_blocks)
    assert near.content_hash() != exact.content_hash()


@pytest.mark.parametrize("h", [1, 129, 513])
@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_matmul_equals_complex_matmul(n, h):
    rng = np.random.default_rng(10 * n + h)
    re, im = rng.normal(size=(2, 2, h, n, n))
    a, b = re + 1j * im
    a_h, b_h = a.conj().transpose(0, 2, 1), b.conj().transpose(0, 2, 1)  # non-contiguous
    for x, y in ((a, b), (a_h, b), (a, b_h), (a_h, b_h)):
        want = x @ y
        got = models._stacked_matmul(x, y)
        assert got.shape == want.shape and got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a leading stack axis gives each member's product bit for bit
    stacked = models._stacked_matmul(np.stack([a, a_h]), np.stack([b_h, b]))
    assert np.array_equal(stacked, np.stack([models._stacked_matmul(a, b_h), models._stacked_matmul(a_h, b)]))


@pytest.mark.parametrize("h", [1, 129, 513])
@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_matmul_with_a_real_operand(n, h):
    # sigma, R and psi0^-1 are real: on either side, shared by the stack or
    # stacked with it, and against a stack with an extra (broadcast) axis; two
    # real operands give a complex product too
    rng = np.random.default_rng(100 * n + h)
    re, im = rng.normal(size=(2, h, n, n))
    z = re + 1j * im
    zz = np.stack([z, z.conj().transpose(0, 2, 1)])  # (2, h, n, n), a non-contiguous member
    shared, stacked = rng.normal(size=(n, n)), rng.normal(size=(h, n, n))
    cases = [
        (shared, z), (z, shared), (stacked, z), (z, stacked),
        (shared, zz), (zz, shared), (stacked, zz), (zz, stacked), (zz, z), (z[None], zz),
        (stacked, shared),
    ]
    for x, y in cases:
        want = x @ y
        got = models._stacked_matmul(x, y)
        assert got.shape == want.shape and got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_lag_polynomial_matches_the_sum_over_lags():
    blocks = _random_model(5, 3, 0).ma_blocks
    nu = FrequencyGrid(512).values
    got = models._lag_polynomial(blocks, nu)
    want = sum(np.exp(-2j * np.pi * nu * s)[:, None, None] * b for s, b in enumerate(blocks))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    scalar = models._lag_polynomial(blocks, nu[128])
    assert scalar.shape == (5, 5) and np.max(np.abs(scalar - got[128])) <= 1e-14 * np.max(np.abs(want))


def _random_model(n, order, seed):
    rng = np.random.default_rng(seed)
    ar = rng.normal(scale=0.3 / n, size=(order, n, n))
    ma = np.concatenate([np.eye(n)[None], rng.normal(scale=0.3, size=(order, n, n))])
    return VarmaModel(ar, ma, np.eye(n))


def test_transfer_function_inverts_a_once():
    # a pure VAR is solve(A, I) and a pure VMA is B, bit for bit; a VARMA's A^-1 B is
    # within rounding of solve(A, B)
    grid = FrequencyGrid(512)
    varma = _random_model(3, 2, 1)
    var = VarmaModel(varma.ar_blocks, np.eye(3)[None], varma.innovations_cov)
    vma = VarmaModel(np.zeros((0, 3, 3)), varma.ma_blocks, varma.innovations_cov)
    A, B = eval_ar_polynomial(varma, grid.values), eval_ma_polynomial(varma, grid.values)
    assert np.array_equal(transfer_function(var, grid).values, np.linalg.solve(A, eval_ma_polynomial(var, grid.values)))
    assert np.array_equal(transfer_function(vma, grid).values, B)
    H, want = transfer_function(varma, grid).values, np.linalg.solve(A, B)
    assert np.max(np.abs(H - want)) <= 1e-14 * np.max(np.abs(want))


def test_transfer_function_reports_the_condition_number_of_a_near_singular_frequency():
    # A(0) = diag(1e-13, 0.5) is invertible, with a 1-norm condition number above COND_LIMIT
    model = VarmaModel(np.array([np.diag([1.0 - 1e-13, 0.5])]), np.eye(2)[None], np.eye(2))
    grid = FrequencyGrid(16)
    cond = np.linalg.cond(eval_ar_polynomial(model, grid.values), 1)[0]
    assert cond > models.COND_LIMIT
    with pytest.raises(SingularFrequencyError, match=re.escape(f"nu=0.000000 (cond={cond:.2e})")):
        transfer_function(model, grid)
