"""Frequency-domain connectivity measures built on a spectral factor.

Everything here consumes a ``SpectralFactor`` (H, sigma) — it does not
matter whether that factor came from a fitted VAR/VMA/VARMA model or
from Wilson factorization of a Welch estimate.  With ``G = H^{-1}``,
``S = H sigma H^H``, ``D = diag(sigma)`` and ``Dt = diag(sigma^{-1})``:

* coherency           ``C = diag(S)^{-1/2} S diag(S)^{-1/2}``
* gamma factor        ``Gamma = diag(S)^{-1/2} H D^{1/2}``      (Gamma R Gamma^H = C)
* total DTF           ``(Gamma R) .* conj(Gamma)``              (rows sum to 1)
* pi factor           ``Pi = Dt^{1/2} G diag(S)^{1/2}``         (Pi^H Rt Pi = C^{-1})
* total PDC           ``conj(G_ij) (sigma^{-1} G)_ij / (S^{-1})_jj``  (columns sum to 1)
* gPDC                ``Dt_ii |G_ij|^2 / sum_k Dt_kk |G_kj|^2``

Total PDC is the partial-correlation-weighted form evaluated on the
column-normalized pi factor, so its columns sum to exactly one and it
collapses to gPDC whenever sigma is diagonal (no instantaneous
correlation between innovations); total DTF likewise collapses to the
squared directed coherence.  Off-diagonal innovation correlation makes
both measures complex valued.

Factors, and hence measures, live on the closed one-sided band
``0 <= nu <= 1/2`` of their grid; MSE scoring excludes the Nyquist
endpoint so averages run over the open band ``[0, 1/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, SingularFrequencyError
from .models import (
    COND_LIMIT,
    FrequencyGrid,
    SpectralFactor,
    SpectralMatrix,
    _check_leading_axis,
    _read_rows,
    _write_rows,
)

__all__ = [
    "InnovationStructure",
    "ConnectivityField",
    "innovation_structure",
    "coherency",
    "partial_coherence",
    "gamma_factor",
    "total_dtf",
    "directed_coherence",
    "pi_factor",
    "total_pdc",
    "gpdc",
    "mse_vs_reference",
    "save_field_csv",
    "load_field_csv",
]

FIELD_KINDS = ("tPDC", "tDTF", "coherency", "partial-coherence", "gPDC", "DC")


@dataclass
class InnovationStructure:
    """Correlation decompositions of an innovation covariance.

    ``R`` is the correlation matrix of sigma, ``Rt`` the partial
    correlation matrix built the same way from ``sigma^{-1}``; ``rho``
    and ``rhot`` are their hollow (zero-diagonal) parts.
    """

    D: np.ndarray
    R: np.ndarray
    Dt: np.ndarray
    Rt: np.ndarray
    rho: np.ndarray
    rhot: np.ndarray


@dataclass
class ConnectivityField:
    """A connectivity measure sampled on the one-sided band.

    ``values`` has shape ``(grid.one_sided_count, N, N)``; entry
    ``(i, j)`` quantifies the influence of channel ``j`` on channel
    ``i`` at each frequency.  ``method_tag`` is written as a bare CSV
    column, so it may not contain a comma or a line break.
    """

    grid: FrequencyGrid
    values: np.ndarray
    kind: str
    method_tag: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.kind not in FIELD_KINDS:
            raise ConfigError(f"unknown field kind {self.kind!r}; expected one of {FIELD_KINDS}")
        if any(c in self.method_tag for c in ",\n\r"):
            raise ConfigError(f"method tag {self.method_tag!r} contains a comma or a line break")
        _check_leading_axis(self.values, self.grid, "field")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError(f"{self.kind} field contains non-finite values")

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @property
    def frequencies(self) -> np.ndarray:
        return self.grid.values


def _inverse_covariance(sigma: np.ndarray) -> np.ndarray:
    """Symmetrized ``sigma^{-1}``; ``NumericalError`` if sigma is singular or nearly so."""
    if np.linalg.cond(sigma) > COND_LIMIT:
        raise NumericalError("innovation covariance is singular or nearly so")
    sigma_inv = np.linalg.inv(sigma)
    return 0.5 * (sigma_inv + sigma_inv.T)


def innovation_structure(sigma: np.ndarray) -> InnovationStructure:
    """Split sigma into correlation and partial-correlation structure."""
    sigma = np.asarray(sigma, dtype=float)
    sigma_inv = _inverse_covariance(sigma)
    D = np.diag(np.diag(sigma))
    d_isqrt = 1.0 / np.sqrt(np.diag(sigma))
    R = sigma * np.outer(d_isqrt, d_isqrt)
    Dt = np.diag(np.diag(sigma_inv))
    dt_isqrt = 1.0 / np.sqrt(np.diag(sigma_inv))
    Rt = sigma_inv * np.outer(dt_isqrt, dt_isqrt)
    eye = np.eye(sigma.shape[0])
    return InnovationStructure(D, R, Dt, Rt, R - eye, Rt - eye)


def _check_positive_diag(S: np.ndarray, grid: FrequencyGrid, context: str) -> np.ndarray:
    diag = np.real(np.einsum("fii->fi", S))
    if np.any(diag <= 0.0):
        f, i = np.argwhere(diag <= 0.0)[0]
        raise NumericalError(
            f"{context}: non-positive power in channel x{i + 1} at nu={grid.values[f]:.6f}"
        )
    return diag


def coherency(spectrum: SpectralMatrix, method_tag: str = "") -> ConnectivityField:
    """Complex coherency ``C_ij = S_ij / sqrt(S_ii S_jj)`` (unit diagonal)."""
    diag = _check_positive_diag(spectrum.values, spectrum.grid, "coherency")
    scale = 1.0 / np.sqrt(diag)
    C = spectrum.values * scale[:, :, None] * scale[:, None, :]
    return ConnectivityField(spectrum.grid, C, "coherency", method_tag)


def partial_coherence(spectrum: SpectralMatrix, method_tag: str = "") -> ConnectivityField:
    """Partial coherence matrix ``K = C^{-1}``, the inverse of coherency.

    Carries the correlation structure between channel pairs after
    removing the linear influence of all other channels.
    """
    K = np.linalg.inv(coherency(spectrum).values)
    return ConnectivityField(spectrum.grid, K, "partial-coherence", method_tag)


def gamma_factor(factor: SpectralFactor) -> np.ndarray:
    """Gamma field ``diag(S)^{-1/2} H D^{1/2}`` on the one-sided band.

    Satisfies ``Gamma R Gamma^H = coherency`` with ``R`` the innovation
    correlation matrix.  Returned as a plain ``(F, N, N)`` array aligned
    with ``factor.grid.values``.
    """
    diag = _check_positive_diag(factor.spectrum().values, factor.grid, "gamma_factor")
    d_sqrt = np.sqrt(np.diag(factor.sigma))
    return factor.values * d_sqrt[None, None, :] / np.sqrt(diag)[:, :, None]


def total_dtf(factor: SpectralFactor, method_tag: str = "") -> ConnectivityField:
    """Total DTF: entrywise ``Gamma .* conj(Gamma) + (Gamma rho) .* conj(Gamma)``.

    Rows sum to one at every frequency.  For diagonal innovation
    covariance this is the squared magnitude of the directed coherence
    (real); off-diagonal innovation correlation contributes the complex
    instantaneous part.
    """
    gamma = gamma_factor(factor)
    structure = innovation_structure(factor.sigma)
    values = (gamma @ structure.R) * np.conj(gamma)
    return ConnectivityField(factor.grid, values, "tDTF", method_tag)


def directed_coherence(factor: SpectralFactor, method_tag: str = "") -> ConnectivityField:
    """Squared directed coherence ``|Gamma_ij|^2`` (real field).

    Classical normalization: rows sum to one when the innovation
    covariance is diagonal, in which case it coincides with total DTF.
    """
    gamma = gamma_factor(factor)
    return ConnectivityField(factor.grid, np.abs(gamma) ** 2, "DC", method_tag)


def _inverse_transfer(factor: SpectralFactor) -> np.ndarray:
    """Invert the transfer function, tolerating boundary zeros.

    A moving-average root on the unit circle makes ``H`` singular at one
    grid frequency; the inverse blows up there but the *normalized*
    measures built from it (total PDC, gPDC) have finite removable
    limits, because they are scale invariant in the diverging rank-one
    direction of ``H^{-1}``.  Plain inversion therefore recovers those
    limits to near machine precision, so only an exactly-singular matrix
    is treated as an error.
    """
    H = factor.values
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        dets = np.abs(np.linalg.det(H))
        k = int(np.argmin(dets))
        raise SingularFrequencyError(
            f"transfer function exactly singular at nu={factor.grid.values[k]:.6f}"
        ) from exc


def pi_factor(factor: SpectralFactor) -> np.ndarray:
    """Pi field ``Dt^{1/2} H^{-1} diag(S)^{1/2}`` on the one-sided band.

    The scaling is fixed by the inverse-coherency identity
    ``Pi^H Rt Pi = C^{-1}`` with ``Rt`` the innovation partial
    correlation matrix — the mirror image of the Gamma/coherency
    identity.
    """
    diag = _check_positive_diag(factor.spectrum().values, factor.grid, "pi_factor")
    G = _inverse_transfer(factor)
    dt_sqrt = np.sqrt(np.diag(innovation_structure(factor.sigma).Dt))
    return dt_sqrt[None, :, None] * G * np.sqrt(diag)[:, None, :]


def total_pdc(factor: SpectralFactor, method_tag: str = "") -> ConnectivityField:
    """Total PDC: partial-correlation-weighted PDC, columns summing to one.

    Entry ``(i, j)`` is ``conj(G_ij) (sigma^{-1} G)_ij / (S^{-1})_jj``,
    i.e. the ``Pi^* .* (Rt Pi)`` combination evaluated on the
    column-normalized pi factor.  Reduces exactly to gPDC when sigma is
    diagonal and is complex valued otherwise.
    """
    G = _inverse_transfer(factor)
    weighted = _inverse_covariance(factor.sigma) @ G
    # (S^{-1})_jj = (G^H sigma^{-1} G)_jj, the column normalizer
    den = np.real(np.einsum("fij,fij->fj", np.conj(G), weighted))
    values = np.conj(G) * weighted / den[:, None, :]
    return ConnectivityField(factor.grid, values, "tPDC", method_tag)


def gpdc(factor: SpectralFactor, method_tag: str = "") -> ConnectivityField:
    """Generalized PDC ``Dt_ii |G_ij|^2 / sum_k Dt_kk |G_kj|^2`` (real field)."""
    G = _inverse_transfer(factor)
    dt = np.diag(innovation_structure(factor.sigma).Dt)
    num = dt[None, :, None] * np.abs(G) ** 2
    values = num / num.sum(axis=1)[:, None, :]
    return ConnectivityField(factor.grid, values, "gPDC", method_tag)


def mse_vs_reference(estimate: ConnectivityField, reference: ConnectivityField) -> float:
    """Mean squared complex deviation over the open band and all pairs.

    Averages ``|est - ref|^2`` over every channel pair and every grid
    frequency in ``[0, 1/2)`` (the shared Nyquist endpoint is excluded).
    """
    if estimate.kind != reference.kind:
        raise ConfigError(f"kind mismatch: {estimate.kind} vs {reference.kind}")
    if estimate.values.shape != reference.values.shape:
        raise ConfigError(
            f"shape mismatch: {estimate.values.shape} vs {reference.values.shape}"
        )
    if estimate.grid.n_points != reference.grid.n_points:
        raise ConfigError("frequency grids differ")
    diff = estimate.values[:-1] - reference.values[:-1]
    return float(np.mean(np.abs(diff) ** 2))


def _grid_columns(grid: FrequencyGrid, n: int):
    """The ``nu, i, j`` columns of the CSV row layout (frequency-major, 1-based channels)."""
    ij = np.arange(1, n + 1)
    h = grid.one_sided_count
    return np.repeat(grid.values, n * n), np.tile(np.repeat(ij, n), h), np.tile(ij, h * n)


def _write_grid_rows(fh, grid: FrequencyGrid, values: np.ndarray, suffix: str) -> None:
    """Write ``values`` as ``nu,i,j,re,im`` rows in :func:`_grid_columns` order.

    Each row ends in ``suffix``.  Numbers are written with ``%.17g``, so
    they read back exactly.
    """
    n = values.shape[1]
    tail = suffix.replace("%", "%%") + "\n"
    # a frequency's n*n rows after its nu, fed the (re, im) pairs of the
    # interleaved float view; each nu is formatted once, as text in the format
    rows = [f",{i + 1},{j + 1},%.17g,%.17g{tail}" for i in range(n) for j in range(n)]
    nu = ["%.17g" % v for v in grid.values.tolist()]

    def block(a, b):
        fmt = "".join(v + row for v in nu[a:b] for row in rows)
        return fmt, np.ascontiguousarray(values[a:b], dtype=complex).view(float).ravel().tolist()

    _write_rows(fh, len(nu), 2 * n * n, block)


def _grid_from_columns(nu, i, j, source) -> tuple:
    """``(grid, n)`` of CSV rows; ``ConfigError`` unless they follow :func:`_grid_columns`."""
    n = max(int(np.max(i, initial=0)), 1)
    h = len(nu) // (n * n)
    if h < 2 or h * n * n != len(nu):
        raise ConfigError(f"{source}: {len(nu)} rows are not F/2 + 1 >= 2 frequencies of {n}x{n} matrices")
    grid = FrequencyGrid(2 * (h - 1))
    want_nu, want_i, want_j = _grid_columns(grid, n)
    if not (np.array_equal(i, want_i) and np.array_equal(j, want_j) and np.allclose(nu, want_nu, 0, 1e-12)):
        raise ConfigError(f"{source}: the nu, i, j columns are not the one-sided grid of {grid.n_points} points")
    return grid, n


def save_field_csv(fields, path) -> None:
    """Write one or more fields as ``nu,i,j,re,im,kind,method`` rows.

    Channel indices are 1-based.  Multiple fields concatenate; the kind
    and method columns keep the rows self-describing.  Numbers are
    written with ``%.17g``, so they read back exactly.
    """
    if isinstance(fields, ConnectivityField):
        fields = [fields]
    with open(path, "w") as fh:
        fh.write("nu,i,j,re,im,kind,method\n")
        for f in fields:
            _write_grid_rows(fh, f.grid, f.values, f",{f.kind},{f.method_tag}")


def load_field_csv(path) -> list:
    """Inverse of :func:`save_field_csv`; returns a list of fields (other row layouts raise).

    The numbers and the two tags are read separately, so a tag that is
    empty or looks like a number (``""``, ``"1"``, ``"nan"``) stays a string.
    """
    _, rows = _read_rows(path, "field file", usecols=range(5), comments=None)
    _, tags = _read_rows(path, "field file", usecols=(5, 6), dtype=str, comments=None)
    fields = []
    for kind, method in sorted(set(map(tuple, tags.tolist()))):
        mask = (tags[:, 0] == kind) & (tags[:, 1] == method)
        nu, i, j, re, im = rows[mask].T
        grid, n = _grid_from_columns(nu, i, j, f"{path} ({kind}/{method})")
        values = (re + 1j * im).reshape(-1, n, n)
        fields.append(ConnectivityField(grid, values, kind, method))
    return fields
