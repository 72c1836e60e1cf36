"""Welch cross-spectral estimation.

Averaged modified periodograms with a periodic von Hann window and 50%
segment overlap.  The data are real, so real FFTs give the estimate on
the ``segment_len/2 + 1`` one-sided frequencies of ``[0, 1/2]``, the
layout the spectral factorization routine takes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .models import FrequencyGrid, SpectralMatrix, _grid_from_columns, _write_grid_rows
from .simulate import TimeSeriesPanel

__all__ = ["welch_cross_spectrum", "save_spectrum_csv", "load_spectrum_csv"]


def welch_cross_spectrum(panel: TimeSeriesPanel, segment_len: int = 256) -> SpectralMatrix:
    """Estimate the spectral density matrix of ``panel``.

    Segments of ``segment_len`` samples (even, >= 4) overlap by half.
    Each channel is demeaned globally, segments shorter than
    ``segment_len`` are dropped, and the window power is normalized out,
    so for white noise the diagonal averages to the innovation variance.

    Returns
    -------
    SpectralMatrix
        On the one-sided grid of ``FrequencyGrid(segment_len)``.
    """
    L = segment_len
    if L < 4 or L % 2 != 0:
        raise ConfigError(f"segment_len must be an even integer >= 4, got {L}")
    hop = L // 2
    if panel.n_samples < L:
        raise ConfigError(
            f"panel has {panel.n_samples} samples, shorter than one segment of {L}"
        )
    x = panel.data - panel.data.mean(axis=1, keepdims=True)
    n_seg = (panel.n_samples - L) // hop + 1

    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(L) / L)  # periodic von Hann
    u = np.mean(window**2)
    starts = hop * np.arange(n_seg)
    segments = np.stack([x[:, s : s + L] for s in starts])  # (n_seg, N, L)
    segments *= window  # in place: a windowed copy would sit on this step's memory peak
    coeffs = np.fft.rfft(segments, axis=-1)  # (n_seg, N, L/2 + 1)

    S = np.einsum("kif,kjf->fij", coeffs, coeffs.conj()) / (n_seg * u * L)
    return SpectralMatrix(FrequencyGrid(L), S)


def save_spectrum_csv(spectrum: SpectralMatrix, path) -> None:
    """Write ``nu, i, j, re, im`` rows, one-sided, frequency-major, channels 1-based."""
    with open(path, "w") as fh:
        fh.write("nu,i,j,re,im\n")
        _write_grid_rows(fh, spectrum.grid, spectrum.values)


def load_spectrum_csv(path) -> SpectralMatrix:
    """Inverse of :func:`save_spectrum_csv`; other row layouts raise ``ConfigError``."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=range(5))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read spectrum file {path}: {exc}") from exc
    grid, n = _grid_from_columns(rows[:, 0], rows[:, 1], rows[:, 2], path)
    values = (rows[:, 3] + 1j * rows[:, 4]).reshape(-1, n, n)
    return SpectralMatrix(grid, values)
