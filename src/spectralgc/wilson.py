"""Wilson's spectral matrix factorization.

Given the spectral density matrix of a real process, sampled on the
``n_f/2 + 1`` one-sided frequencies of ``[0, 1/2]``, the fixed-point
iteration

    psi <- psi [ psi^{-1} S psi^{-H} + I ]_+

converges to a causal factor with ``psi psi^H = S``.  ``[.]_+`` keeps the
causal part of a lag expansion: half of lag 0, lags ``1 .. n_f/2 - 1`` in
full, everything else zeroed.  The returned factor is normalized to a
zero-lag identity coefficient, ``H = psi psi_0^{-1}`` with innovation
covariance ``sigma = psi_0 psi_0^H``, which is the unique minimum-phase
factorization of the input.

A real process has ``S(-nu) = conj S(nu)``, and every iterate has real
lags, so ``psi(-nu) = conj psi(nu)`` as well: the one-sided points fix
both, and real FFTs carry the lag expansions.  On one-sided input that
symmetry asks only that ``S(0)`` and ``S(1/2)`` be real, the part a real
inverse FFT would otherwise drop silently; input with complex endpoints
is rejected.

Spectra whose factor has roots *on* the unit circle converge slowly; for
those, relaxing ``tol`` to around 1e-5 keeps the iteration count sane at
a small accuracy cost.

Each iteration is one batched inverse, three stacked matrix products and
two real FFTs over the ``n_f/2 + 1`` points.  At N = 2-7 a complex
product per frequency costs more in BLAS call overhead than in
arithmetic, so the three products run as real ones on interleaved views
(``models._stacked_matmul``), with the same iterates to rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonConvergenceError, NonPositiveSpectrumError
from .models import SpectralFactor, SpectralMatrix, _stacked_matmul

__all__ = ["wilson_factorize"]

SYMMETRY_TOL = 1e-10


def _causal_part(g: np.ndarray, F: int) -> np.ndarray:
    """Apply [.]_+ along the one-sided frequency axis of a (F/2 + 1, N, N) array."""
    lags = np.fft.irfft(g, n=F, axis=0)
    lags[0] *= 0.5
    lags[F // 2 :] = 0.0
    return np.fft.rfft(lags, axis=0)


def _grid_mean(x: np.ndarray, F: int) -> np.ndarray:
    """Mean over the full grid of a conjugate-symmetric array, from its one-sided part."""
    return (x[0] + x[-1] + 2.0 * x[1:-1].sum(axis=0)).real / F


def _check_real_endpoints(S: np.ndarray) -> None:
    imaginary = np.max(np.abs(S[[0, -1]].imag))
    scale = np.max(np.abs(S))
    if imaginary > SYMMETRY_TOL * scale:
        raise ConfigError(
            f"input spectrum is not conjugate-symmetric (S(0) or S(1/2) has an imaginary part "
            f"of {imaginary:.3e}, scale {scale:.3e}), so it is not the spectrum of a real process"
        )


def _check_psd(S: np.ndarray) -> None:
    hermitian = 0.5 * (S + S.conj().transpose(0, 2, 1))
    min_eig = np.min(np.linalg.eigvalsh(hermitian))
    scale = np.max(np.abs(S))
    if min_eig < -1e-6 * scale:
        raise NonPositiveSpectrumError(
            f"input spectrum has eigenvalue {min_eig:.3e} below -1e-6 * scale ({scale:.3e})"
        )


def wilson_factorize(spectrum: SpectralMatrix, tol: float = 1e-6, max_iter: int = 500) -> SpectralFactor:
    """Factor ``S = H sigma H^H`` with ``H`` minimum-phase, ``H`` lag-0 = I.

    Parameters
    ----------
    spectrum : SpectralMatrix
        The spectrum of a real process: Hermitian PSD matrices on the
        one-sided grid, real at ``nu = 0`` and ``nu = 1/2``.
    tol : float
        Stop when the maximum entrywise change of psi between iterations,
        relative to the largest entry of psi, drops below this.
    max_iter : int
        Iteration budget; exceeding it raises ``NonConvergenceError``.

    Returns
    -------
    SpectralFactor
        On the same grid, with ``diagnostics = {"iterations": ..,
        "final_delta": .., "residual": ..}`` where ``residual`` is the
        max-entry reconstruction error relative to the largest entry of
        ``S``.

    Notes
    -----
    ``final_delta < tol`` bounds the last step, not the distance to the
    true factor.  Where ``S`` has a zero on the unit circle convergence is
    sublinear, and a small step can leave ``H`` far away: on example 1's
    theoretical spectrum at the default ``tol`` the returned ``H`` is 0.37
    (``n_f`` = 256) and 0.085 (``n_f`` = 1024) from the true minimum-phase
    factor in max-abs, with ``residual`` 3.3e-2 and 6.7e-3.  Read
    ``diagnostics["residual"]`` to judge a factor.

    Raises
    ------
    ConfigError
        If ``S(0)`` or ``S(1/2)`` has an imaginary part above
        ``SYMMETRY_TOL`` times the largest entry of ``S``.
    NonPositiveSpectrumError
        If a grid point has an eigenvalue below ``-1e-6`` times that
        largest entry.
    """
    S = spectrum.values
    _check_real_endpoints(S)
    _check_psd(S)
    F, h, n = spectrum.grid.n_points, S.shape[0], S.shape[1]

    # Constant-in-frequency start: lower Cholesky of the grid-mean spectrum.
    S_mean = _grid_mean(S, F)
    S_mean = 0.5 * (S_mean + S_mean.T)
    eye = np.eye(n)
    psi = np.broadcast_to(np.linalg.cholesky(S_mean + 1e-14 * eye), (h, n, n)).astype(complex).copy()

    delta = np.inf
    for iteration in range(1, max_iter + 1):
        psi_inv = np.linalg.inv(psi)
        g = _stacked_matmul(_stacked_matmul(psi_inv, S), psi_inv.conj().transpose(0, 2, 1)) + eye[None]
        psi_new = _stacked_matmul(psi, _causal_part(g, F))
        delta = np.max(np.abs(psi_new - psi)) / np.max(np.abs(psi))
        psi = psi_new
        if delta < tol:
            break
    else:
        raise NonConvergenceError(
            f"factorization did not converge in {max_iter} iterations (last relative change {delta:.3e})"
        )

    psi0 = _grid_mean(psi, F)  # zero-lag coefficient of the psi expansion
    factor = SpectralFactor(spectrum.grid, psi @ np.linalg.inv(psi0)[None], psi0 @ psi0.T)
    residual = float(np.max(np.abs(factor.spectrum().values - S)) / np.max(np.abs(S)))
    factor.diagnostics = {"iterations": iteration, "final_delta": float(delta), "residual": residual}
    return factor
