import numpy as np
import pytest

import reference_impl as ref
from spectralgc import (
    ConfigError,
    ConnectivityField,
    FrequencyGrid,
    NumericalError,
    SpectralFactor,
    SpectralMatrix,
    VarmaModel,
    coherency,
    directed_coherence,
    example_model,
    gamma_factor,
    gpdc,
    innovation_form,
    innovation_structure,
    load_field_csv,
    mse_vs_reference,
    partial_coherence,
    pi_factor,
    save_field_csv,
    theoretical_spectrum,
    total_dtf,
    total_pdc,
    transfer_function,
)

GRID = FrequencyGrid(512)


def _factor(example_id):
    return transfer_function(innovation_form(example_model(example_id)), GRID)


def _identity_factor(n=2):
    model = VarmaModel(np.zeros((0, n, n)), np.eye(n)[None], np.eye(n))
    return transfer_function(model, GRID)


# ---------------------------------------------------------------- structure

def test_innovation_structure_identity():
    s = innovation_structure(np.eye(3))
    assert np.allclose(s.R, np.eye(3))
    assert np.allclose(s.Rt, np.eye(3))
    assert np.allclose(s.rho, 0.0)
    assert np.allclose(s.rhot, 0.0)


def test_innovation_structure_example1_values():
    s = innovation_structure(np.array([[1.0, 1.0], [1.0, 5.0]]))
    assert abs(s.R[0, 1] - 1.0 / np.sqrt(5.0)) < 1e-12
    assert np.allclose(np.diag(s.R), 1.0)
    # sigma^{-1} = [[1.25, -0.25], [-0.25, 0.25]]
    assert abs(s.Dt[0, 0] - 1.25) < 1e-12
    assert abs(s.Dt[1, 1] - 0.25) < 1e-12
    assert abs(s.Rt[0, 1] - (-1.0 / np.sqrt(5.0))) < 1e-12


def test_innovation_structure_scale_invariance():
    s = innovation_structure(np.diag([2.0, 3.0]))
    assert np.allclose(s.R, np.eye(2))
    assert np.allclose(s.Rt, np.eye(2))


@pytest.mark.parametrize("sigma", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]])
@pytest.mark.parametrize("measure", [total_pdc, total_dtf, gpdc])
def test_measures_reject_singular_innovation_covariance(sigma, measure):
    grid = FrequencyGrid(8)
    factor = SpectralFactor(grid, np.broadcast_to(np.eye(2), (grid.one_sided_count, 2, 2)), np.array(sigma))
    with pytest.raises(NumericalError, match="singular"):
        measure(factor)


def test_innovation_structure_rejects_singular():
    with pytest.raises(NumericalError):
        innovation_structure(np.ones((2, 2)))


# ---------------------------------------------------------------- coherency

def test_coherency_of_flat_spectrum():
    S = SpectralMatrix(GRID, np.broadcast_to(np.eye(2), (GRID.one_sided_count, 2, 2)).astype(complex))
    C = coherency(S)
    assert np.allclose(C.values, np.eye(2))


def test_coherency_example1_dc_value():
    C = coherency(theoretical_spectrum(example_model(1), GRID))
    assert abs(C.values[0, 0, 1] - 12.0 / np.sqrt(160.0)) < 1e-12
    assert np.allclose(np.einsum("fii->fi", C.values), 1.0)


def test_coherency_bounded_by_one():
    for ex in (1, 2, 4):
        C = coherency(theoretical_spectrum(example_model(ex), GRID))
        assert np.max(np.abs(C.values)) <= 1.0 + 1e-10


def test_coherency_rejects_zero_power():
    values = np.broadcast_to(np.eye(2), (GRID.one_sided_count, 2, 2)).astype(complex).copy()
    values[3] = 0.0
    with pytest.raises(NumericalError):
        coherency(SpectralMatrix(GRID, values))


def test_partial_coherence_inverts_coherency():
    S = theoretical_spectrum(example_model(2), GRID)
    C = coherency(S).values
    K = partial_coherence(S).values
    eye = np.eye(3)
    assert np.max(np.abs(K @ C - eye)) < 1e-10


# ---------------------------------------------------------------- gamma side

def test_gamma_identity_factor():
    assert np.allclose(gamma_factor(_identity_factor()), np.eye(2))


def test_gamma_correlation_identity_all_examples():
    # Gamma R Gamma^H reproduces the coherency matrix with unit diagonal
    for ex in (1, 2, 4):
        factor = _factor(ex)
        gamma = gamma_factor(factor)
        R = innovation_structure(factor.sigma).R
        lhs = gamma @ R @ gamma.conj().transpose(0, 2, 1)
        C = coherency(factor.spectrum()).values
        assert np.max(np.abs(lhs - C)) < 1e-10
        assert np.max(np.abs(np.einsum("fii->fi", lhs) - 1.0)) < 1e-10


def test_gamma_correlation_identity_example1_dc():
    factor = _factor(1)
    gamma = gamma_factor(factor)
    R = innovation_structure(factor.sigma).R
    lhs = (gamma @ R @ gamma.conj().transpose(0, 2, 1))[0]
    assert abs(lhs[0, 1] - 12.0 / np.sqrt(160.0)) < 1e-12


def test_total_dtf_identity_factor():
    field = total_dtf(_identity_factor())
    assert np.allclose(field.values, np.eye(2))
    assert field.kind == "tDTF"


def test_total_dtf_rows_sum_to_one():
    for ex in (1, 2, 4):
        field = total_dtf(_factor(ex))
        assert np.max(np.abs(field.values.sum(axis=2) - 1.0)) < 1e-10


def test_total_dtf_example1_dc_fixture():
    # frozen from the independent per-frequency evaluation
    field = total_dtf(_factor(1))
    assert np.allclose(field.values[0], [[0.25, 0.75], [0.0, 1.0]], atol=1e-12)


def test_total_dtf_reduces_to_directed_coherence_with_diagonal_sigma():
    factor = _factor(2)  # innovation form of example 2 has sigma = B0 B0^T
    # build a genuinely diagonal-sigma system instead
    model = VarmaModel(example_model(2).ar_blocks, np.eye(3)[None], np.eye(3))
    factor = transfer_function(model, GRID)
    tdtf = total_dtf(factor)
    dc = directed_coherence(factor)
    assert np.max(np.abs(tdtf.values.imag)) < 1e-12
    assert np.max(np.abs(tdtf.values.real - dc.values)) < 1e-12


def test_directed_coherence_matches_reference():
    factor = _factor(1)
    dc = directed_coherence(factor)
    for k in (0, 64, 200):
        nu = GRID.values[k]
        expected = ref.dc_at(*ref.example1_parameters(), nu)
        assert np.max(np.abs(dc.values[k] - expected)) < 1e-12


# ---------------------------------------------------------------- pi side

def test_pi_identity_factor():
    assert np.allclose(pi_factor(_identity_factor()), np.eye(2))


def test_pi_inverse_coherency_identity_all_examples():
    # Pi^H Rt Pi equals the inverse coherency matrix at every frequency
    for ex in (1, 2, 4):
        factor = _factor(ex)
        pi = pi_factor(factor)
        Rt = innovation_structure(factor.sigma).Rt
        lhs = pi.conj().transpose(0, 2, 1) @ Rt @ pi
        K = np.linalg.inv(coherency(factor.spectrum()).values)
        scale = np.abs(K).max(axis=(1, 2), keepdims=True)
        assert np.max(np.abs(lhs - K) / scale) < 1e-8


def test_pi_example2_dc_fixture():
    # frozen from the independent per-frequency evaluation
    expected = np.array(
        [
            [-0.1115099516338482, 3.0840107219909885, -2.23606797749979],
            [-2.033062123993395, 2.670831630787784, 0.0],
            [1.6599882730542677, -2.1807248947718487, 3.1622776601683795],
        ]
    )
    pi = pi_factor(_factor(2))
    assert np.max(np.abs(pi[0] - expected)) < 1e-10


def test_total_pdc_identity_factor():
    field = total_pdc(_identity_factor())
    assert np.allclose(field.values, np.eye(2))


def test_total_pdc_columns_sum_to_one():
    for ex in (1, 2, 4):
        field = total_pdc(_factor(ex))
        assert np.max(np.abs(field.values.sum(axis=1) - 1.0)) < 1e-10


def test_total_pdc_example1_quarter_frequency_fixture():
    # frozen from the independent per-frequency evaluation at nu = 1/4
    field = total_pdc(_factor(1))
    k = 128  # nu = 128/512 = 0.25
    expected = np.array(
        [
            [1.0 + 0.0j, 5.0 / 6.0 + 1.0j / 6.0],
            [0.0 + 0.0j, 1.0 / 6.0 - 1.0j / 6.0],
        ]
    )
    assert np.max(np.abs(field.values[k] - expected)) < 1e-12


def test_total_pdc_example4_no_backward_link():
    # the generator has no path from channel 1 into channel 2
    field = total_pdc(transfer_function(example_model(4), GRID))
    assert np.max(np.abs(field.values[:, 1, 0])) < 1e-12


def test_total_pdc_reduces_to_gpdc_with_diagonal_sigma():
    model = VarmaModel(example_model(2).ar_blocks, np.eye(3)[None], np.eye(3))
    factor = transfer_function(model, GRID)
    tpdc = total_pdc(factor)
    g = gpdc(factor)
    assert np.max(np.abs(tpdc.values.imag)) < 1e-10
    assert np.max(np.abs(tpdc.values.real - g.values)) < 1e-10


def test_gpdc_columns_sum_to_one():
    field = gpdc(_factor(2))
    assert np.max(np.abs(field.values.sum(axis=1) - 1.0)) < 1e-10


def test_measures_match_independent_reference_evaluation():
    # spot check against the loop-based reference at scattered grid points
    for ex, params in ((1, ref.example1_parameters), (2, ref.example2_parameters), (4, ref.example4_parameters)):
        factor = _factor(ex)
        tpdc = total_pdc(factor).values
        tdtf = total_dtf(factor).values
        for k in (1, 37, 130, 255):
            nu = GRID.values[k]
            assert np.max(np.abs(tpdc[k] - ref.tpdc_at(*params(), nu))) < 1e-10
            assert np.max(np.abs(tdtf[k] - ref.tdtf_at(*params(), nu))) < 1e-10


# ---------------------------------------------------------------- plumbing

def test_mse_identical_fields_is_zero():
    field = total_pdc(_factor(1))
    assert mse_vs_reference(field, field) == 0.0


def test_mse_rejects_mismatches():
    a = total_pdc(_factor(1))
    b = total_dtf(_factor(1))
    with pytest.raises(ConfigError):
        mse_vs_reference(a, b)
    c = total_pdc(_factor(2))
    with pytest.raises(ConfigError):
        mse_vs_reference(a, c)


def test_field_validation():
    with pytest.raises(ConfigError):
        ConnectivityField(GRID, np.zeros((10, 2, 2)), "tPDC")
    with pytest.raises(ConfigError):
        ConnectivityField(GRID, np.zeros((257, 2, 2)), "nonsense")
    bad = np.zeros((257, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericalError):
        ConnectivityField(GRID, bad, "tPDC")


def test_field_csv_roundtrip(tmp_path):
    fields = [
        total_pdc(_factor(2), method_tag="theory"),
        total_dtf(_factor(2), method_tag="theory"),
    ]
    path = tmp_path / "fields.csv"
    save_field_csv(fields, path)
    loaded = load_field_csv(path)
    assert len(loaded) == 2
    by_kind = {f.kind: f for f in loaded}
    assert np.array_equal(by_kind["tPDC"].values, fields[0].values)
    assert np.array_equal(by_kind["tDTF"].values, fields[1].values)
    assert by_kind["tPDC"].method_tag == "theory"


@pytest.mark.parametrize("tag", ["", "1", "nan"])
def test_field_csv_roundtrip_keeps_tags_that_look_like_numbers(tmp_path, tag):
    # every row carries the tag, so no other value tells a parser the column holds text
    fields = [total_pdc(_factor(2), method_tag=tag), total_dtf(_factor(2), method_tag=tag)]
    path = tmp_path / "fields.csv"
    save_field_csv(fields, path)
    loaded = {(f.kind, f.method_tag): f for f in load_field_csv(path)}
    assert set(loaded) == {("tPDC", tag), ("tDTF", tag)}
    assert np.array_equal(loaded[("tPDC", tag)].values, fields[0].values)
    assert np.array_equal(loaded[("tDTF", tag)].values, fields[1].values)


@pytest.mark.parametrize("tag", ["a,b", "a\nb", "a\rb"])
def test_tag_that_would_break_a_csv_row_rejected(tag):
    # written bare, "a,b" used to read back as "a" and "a\nb" made the file unreadable
    with pytest.raises(ConfigError, match="method tag"):
        total_pdc(_factor(2), method_tag=tag)


def test_field_csv_with_shuffled_rows_rejected(tmp_path):
    # rows 1 and 2 are the (1, 2) and (2, 1) entries of the first frequency
    path = tmp_path / "fields.csv"
    save_field_csv(total_pdc(_factor(2), method_tag="theory"), path)
    header, *rows = path.read_text().splitlines()
    rows[1], rows[2] = rows[2], rows[1]
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ConfigError, match="nu, i, j"):
        load_field_csv(path)


def test_field_csv_with_a_missing_row_rejected(tmp_path):
    path = tmp_path / "fields.csv"
    save_field_csv(total_pdc(_factor(2), method_tag="theory"), path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *rows[:-1]]) + "\n")
    with pytest.raises(ConfigError, match="rows"):
        load_field_csv(path)


def test_field_csv_bytes_match_row_writer(tmp_path):
    rng = np.random.default_rng(5)
    grid = FrequencyGrid(16)
    fields = []
    for n in range(1, 8):
        shape = (grid.one_sided_count, n, n)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values[0] = -0.0  # negative zeros in both parts
        values[1] = 1e-300 - 0.0j
        fields.append(ConnectivityField(grid, values, "tPDC", f"m{n}"))
        fields.append(ConnectivityField(grid, rng.normal(size=shape), "tDTF", "real-only"))
    fields.append(ConnectivityField(grid, -np.zeros((grid.one_sided_count, 2, 2)), "DC", ""))
    # 513 frequencies of 7 x 7 entries span several of the writer's blocks
    wide = FrequencyGrid(1024)
    shape = (wide.one_sided_count, 7, 7)
    fields.append(ConnectivityField(wide, rng.normal(size=shape) + 1j * rng.normal(size=shape), "tPDC", "wide"))
    save_field_csv(fields, tmp_path / "new.csv")
    ref.save_field_csv_rows(fields, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
