"""Welch cross-spectral estimation.

Averaged modified periodograms with a periodic von Hann window and 50%
segment overlap.  The data are real, so real FFTs give the estimate on
the ``segment_len/2 + 1`` one-sided frequencies of ``[0, 1/2]``, the
layout the spectral factorization routine takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models import FrequencyGrid, SpectralMatrix, _grid_columns, _grid_from_columns
from .simulate import TimeSeriesPanel

__all__ = ["WelchConfig", "welch_cross_spectrum", "save_spectrum_csv", "load_spectrum_csv"]


@dataclass(frozen=True)
class WelchConfig:
    """Segmentation parameters for the cross-spectrum estimate (segments overlap by half)."""

    segment_len: int = 256

    def __post_init__(self):
        if self.segment_len < 4 or self.segment_len % 2 != 0:
            raise ConfigError(f"segment_len must be an even integer >= 4, got {self.segment_len}")


def welch_cross_spectrum(panel: TimeSeriesPanel, config: WelchConfig = WelchConfig()) -> SpectralMatrix:
    """Estimate the spectral density matrix of ``panel``.

    Each channel is demeaned globally, segments shorter than
    ``segment_len`` are dropped, and the window power is normalized out,
    so for white noise the diagonal averages to the innovation variance.

    Returns
    -------
    SpectralMatrix
        On the one-sided grid of ``FrequencyGrid(config.segment_len)``.
    """
    L = config.segment_len
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
    path = Path(path)
    nu, i, j = _grid_columns(spectrum.grid, spectrum.n_channels)
    flat = spectrum.values.reshape(-1)
    table = np.column_stack([nu, i, j, flat.real, flat.imag])
    np.savetxt(
        path,
        table,
        delimiter=",",
        header="nu,i,j,re,im",
        comments="",
        fmt=["%.17g", "%d", "%d", "%.17g", "%.17g"],
    )


def load_spectrum_csv(path) -> SpectralMatrix:
    """Inverse of :func:`save_spectrum_csv`; other row layouts raise ``ConfigError``."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=range(5))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read spectrum file {path}: {exc}") from exc
    grid, n = _grid_from_columns(rows[:, 0], rows[:, 1], rows[:, 2], path)
    values = (rows[:, 3] + 1j * rows[:, 4]).reshape(-1, n, n)
    return SpectralMatrix(grid, values)
