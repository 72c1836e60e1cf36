import numpy as np
import pytest

import reference_impl as ref
from spectralgc import (
    ConfigError,
    TimeSeriesPanel,
    VarmaModel,
    example_model,
    simulate,
    theoretical_spectrum,
    welch_cross_spectrum,
)
from spectralgc.models import BLOCK_BYTES, FrequencyGrid
from test_estimators import _traced_peak


def test_zero_panel_gives_zero_spectrum():
    S = welch_cross_spectrum(TimeSeriesPanel(np.zeros((2, 1024))))
    assert np.allclose(S.values, 0.0)
    assert S.grid.n_points == 256


def test_white_noise_grid_average_recovers_covariance():
    sigma = np.array([[1.0, 1.0], [1.0, 5.0]])
    model = VarmaModel(np.zeros((0, 2, 2)), np.eye(2)[None], sigma)
    panel = simulate(model, 16384, seed=4)
    S = welch_cross_spectrum(panel)
    v = S.values.real
    avg = (v[0] + v[-1] + 2.0 * v[1:-1].sum(axis=0)) / S.grid.n_points  # mean over the full grid
    assert np.max(np.abs(avg - sigma) / np.abs(sigma)) < 0.05


def test_example1_ma_spectrum_shape():
    # S_22(nu) = 5 |1 + e^{-j 2 pi nu}|^2 = 10 (1 + cos 2 pi nu)
    panel = simulate(example_model(1), 65536, seed=12)
    S = welch_cross_spectrum(panel)
    nu = S.grid.values
    theory = 10.0 * (1.0 + np.cos(2.0 * np.pi * nu))
    est = S.values[:, 1, 1].real
    mask = theory > 1.0  # skip the spectral null where relative error is meaningless
    assert np.max(np.abs(est[mask] - theory[mask]) / theory[mask]) < 0.15


def test_parseval_grid_mean_matches_variance():
    panel = simulate(example_model(2), 16384, seed=9)
    S = welch_cross_spectrum(panel)
    F = S.grid.n_points
    for i in range(3):
        d = S.values[:, i, i].real
        grid_mean = (d[0] + d[-1] + 2.0 * d[1:-1].sum()) / F  # mean over the full grid
        variance = panel.data[i].var()
        assert abs(grid_mean - variance) / variance < 0.02


def test_estimate_is_hermitian_and_conjugate_symmetric():
    panel = simulate(example_model(2), 8192, seed=14)
    S = welch_cross_spectrum(panel).values
    assert np.max(np.abs(S - S.conj().transpose(0, 2, 1))) < 1e-12
    # S(-nu) = conj(S(nu)) for real data, so S(0) and S(1/2) are real
    assert np.max(np.abs(S[[0, -1]].imag)) < 1e-12


def test_positive_semidefinite_when_enough_segments():
    panel = simulate(example_model(2), 16384, seed=16)
    S = welch_cross_spectrum(panel).values
    eigs = np.linalg.eigvalsh(0.5 * (S + S.conj().transpose(0, 2, 1)))
    assert eigs.min() >= -1e-8 * eigs.max()


def test_example2_peak_near_resonance():
    # the first channel resonates at nu = theta / (2 pi) = 1/6
    panel = simulate(example_model(2), 16384, seed=2)
    S = welch_cross_spectrum(panel)
    peak_bin = int(np.argmax(S.values[:, 0, 0].real))
    expected = 256 / 6.0
    assert abs(peak_bin - expected) <= 1.0


def test_consistency_with_theoretical_spectrum():
    model = example_model(2)
    theory = theoretical_spectrum(model, FrequencyGrid(256)).values
    devs = []
    for n_s in (4096, 65536):
        panel = simulate(model, n_s, seed=31)
        S = welch_cross_spectrum(panel).values
        devs.append(np.max(np.abs(S - theory)))
    assert devs[1] < devs[0]


@pytest.mark.parametrize(
    "n, n_seg",
    [
        (2, 7),  # an example-1 panel at n_s = 1024: one batch
        (3, 42),  # exactly one batch
        (3, 84),  # a multiple of the batch
        (3, 127),  # not a multiple (n_s = 16384)
        (7, 18),
        (7, 127),
    ],
)
def test_batched_estimate_matches_all_segments_at_once(n, n_seg):
    batch = max(1, BLOCK_BYTES // (8 * n * 256))
    rng = np.random.default_rng(n_seg)
    # a tail shorter than a hop is dropped; offsets exercise the demeaning
    x = rng.standard_normal((n, 256 + 128 * (n_seg - 1) + 77)) + np.arange(n)[:, None]
    got = welch_cross_spectrum(TimeSeriesPanel(x)).values
    want = ref.welch_all_segments(x, 256)
    if n_seg <= batch:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_welch_memory_is_bounded_by_the_batch():
    # with every segment stacked at once, this 7-channel panel peaked at 6.8 MB
    rng = np.random.default_rng(5)
    peaks = []
    for n_s in (16384, 32768):
        panel = TimeSeriesPanel(rng.standard_normal((7, n_s)))
        peaks.append(_traced_peak(lambda: welch_cross_spectrum(panel)))
    assert peaks[0] < 2_500_000
    assert peaks[1] < 1.5 * peaks[0]


def test_panel_shorter_than_segment_rejected():
    with pytest.raises(ConfigError):
        welch_cross_spectrum(TimeSeriesPanel(np.zeros((2, 100))), segment_len=256)
    for odd_or_short in (255, 2):
        with pytest.raises(ConfigError, match="even integer >= 4"):
            welch_cross_spectrum(TimeSeriesPanel(np.zeros((2, 1000))), segment_len=odd_or_short)



@pytest.mark.parametrize(
    "n, n_samples, segment_len",
    [(3, 300, 256), (3, 511, 256), (2, 16, 16), (7, 1023, 256)],
)
def test_fewer_segments_than_channels_rejected(n, n_samples, segment_len):
    # K segments give an estimate of rank <= K at every frequency, which Wilson cannot factor
    rng = np.random.default_rng(n_samples)
    n_seg = (n_samples - segment_len) // (segment_len // 2) + 1
    assert n_seg < n
    with pytest.raises(ConfigError, match=f"{n_seg} segment\\(s\\) of {segment_len}: fewer than its {n} channels"):
        welch_cross_spectrum(TimeSeriesPanel(rng.standard_normal((n, n_samples))), segment_len=segment_len)
    # as many segments as channels is enough
    x = rng.standard_normal((n, segment_len + (n - 1) * (segment_len // 2)))
    S = welch_cross_spectrum(TimeSeriesPanel(x), segment_len=segment_len)
    assert np.min(np.linalg.eigvalsh(S.values)) > 0
