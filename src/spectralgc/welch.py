"""Welch cross-spectral estimation.

Averaged modified periodograms with a periodic von Hann window and 50%
segment overlap.  The estimate is returned on the full two-sided grid of
``segment_len`` points so it can be handed straight to the spectral
factorization routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models import FrequencyGrid, SpectralMatrix
from .simulate import TimeSeriesPanel

__all__ = ["WelchConfig", "welch_cross_spectrum", "save_spectrum_csv", "load_spectrum_csv"]


@dataclass(frozen=True)
class WelchConfig:
    """Segmentation parameters for the cross-spectrum estimate."""

    segment_len: int = 256
    overlap_fraction: float = 0.5

    def __post_init__(self):
        if self.segment_len < 4 or self.segment_len % 2 != 0:
            raise ConfigError(f"segment_len must be an even integer >= 4, got {self.segment_len}")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ConfigError(f"overlap_fraction must lie in [0, 1), got {self.overlap_fraction}")


def welch_cross_spectrum(panel: TimeSeriesPanel, config: WelchConfig = WelchConfig()) -> SpectralMatrix:
    """Estimate the spectral density matrix of ``panel``.

    Each channel is demeaned globally, segments shorter than
    ``segment_len`` are dropped, and the window power is normalized out,
    so for white noise the diagonal averages to the innovation variance.

    Returns
    -------
    SpectralMatrix
        On the two-sided grid ``FrequencyGrid(config.segment_len)``.
    """
    L = config.segment_len
    hop = max(1, int(round(L * (1.0 - config.overlap_fraction))))
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
    coeffs = np.fft.fft(segments, axis=-1)  # (n_seg, N, L)

    S = np.einsum("kif,kjf->fij", coeffs, coeffs.conj()) / (n_seg * u * L)
    return SpectralMatrix(FrequencyGrid(L), S)


def save_spectrum_csv(spectrum: SpectralMatrix, path) -> None:
    """Write ``nu, i, j, re, im`` rows (channel indices are 1-based)."""
    path = Path(path)
    F, n = spectrum.grid.n_points, spectrum.n_channels
    nu = np.repeat(spectrum.grid.values, n * n)
    i = np.tile(np.repeat(np.arange(1, n + 1), n), F)
    j = np.tile(np.arange(1, n + 1), F * n)
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
    """Inverse of :func:`save_spectrum_csv`."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read spectrum file {path}: {exc}") from exc
    n = int(rows[:, 1].max())
    F = rows.shape[0] // (n * n)
    if F * n * n != rows.shape[0]:
        raise ConfigError(f"{path}: row count {rows.shape[0]} is not F * {n}^2")
    values = (rows[:, 3] + 1j * rows[:, 4]).reshape(F, n, n)
    return SpectralMatrix(FrequencyGrid(F), values)
