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

The iteration body runs on a stack of equal-shaped spectra
(``_factorize_stack``), so a Monte Carlo group factors its Welch
estimates with one numpy call per step for all its members; each member
leaves the stack when it converges, and its factor is bit-identical to
the one it gets alone.  :func:`wilson_factorize` is the stack of one.
The minimum-phase guard of the two-step fits passes the swaps of a
lattice group through one stack as well.  A member's entry and exit
are stacked too: the PSD check is one batched Cholesky (the eigenvalues
are computed only when it fails, for the message), and the
normalization ``psi psi_0^{-1}`` and the diagnostic residual's
``H sigma H^H`` are ``_stacked_matmul`` products.  The batched inverse
is left as one LAPACK call per matrix, about half of an iteration on
the guard's 513 points.

Measured on 32 example-1 Welch estimates at n_s = 1024 (129 points,
11-15 iterations each, 1 BLAS thread, best of 7): the factorizations
took 61 ms one by one and 40 ms in stacks of eight (64 and 43 ms before
the entry and exit were stacked), and a member's check and start took
65 µs and its normalization and residual 88 µs (129 and 150 µs before).
The guard's 12 swaps of 32 example-1 VMA(1) fits (513 points, 10-20
iterations each) took 61 ms one by one (72 ms before); in stacks of
eight they take about as long, because the per-matrix inverse, not the
per-call overhead that a stack saves, dominates at 513 points.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonConvergenceError, NonPositiveSpectrumError, NumericalError
from .models import SpectralFactor, SpectralMatrix, _stacked_matmul

__all__ = ["wilson_factorize"]

SYMMETRY_TOL = 1e-10


def _causal_part(g: np.ndarray, F: int) -> np.ndarray:
    """Apply [.]_+ along the one-sided frequency axis of an (R, F/2 + 1, N, N) stack."""
    lags = np.fft.irfft(g, n=F, axis=1)
    lags[:, 0] *= 0.5
    lags[:, F // 2 :] = 0.0
    return np.fft.rfft(lags, axis=1)


def _grid_mean(x: np.ndarray, F: int) -> np.ndarray:
    """Mean over the full grid of a conjugate-symmetric array, from its one-sided part."""
    return (x[0] + x[-1] + 2.0 * x[1:-1].sum(axis=0)).real / F


def _canonical_grid_mean(S: np.ndarray, F: int) -> np.ndarray:
    """:func:`_grid_mean` of an ``(F/2 + 1, N, N)`` spectrum, summed in one memory layout.

    The sum is taken over a frequency-fastest copy (Welch's own layout,
    which needs no copy), so a spectrum's mean, and its factor, do not
    depend on how its values are laid out in memory.
    """
    return _grid_mean(np.ascontiguousarray(S.transpose(1, 2, 0)).transpose(2, 0, 1), F)


def _check_real_endpoints(S: np.ndarray) -> None:
    imaginary = np.max(np.abs(S[[0, -1]].imag))
    scale = np.max(np.abs(S))
    if imaginary > SYMMETRY_TOL * scale:
        raise ConfigError(
            f"input spectrum is not conjugate-symmetric (S(0) or S(1/2) has an imaginary part "
            f"of {imaginary:.3e}, scale {scale:.3e}), so it is not the spectrum of a real process"
        )


def _check_psd(S: np.ndarray) -> None:
    """Raise ``NonPositiveSpectrumError`` if a point's least eigenvalue is below ``-1e-6 * scale``.

    One batched Cholesky of ``S + 1e-6 scale I`` passes every point whose
    Hermitian part has no eigenvalue at or below ``-1e-6 scale``; the
    eigenvalues are computed only when it fails, for the message.
    """
    hermitian = 0.5 * (S + S.conj().transpose(0, 2, 1))
    scale = np.max(np.abs(S))
    try:
        np.linalg.cholesky(hermitian + 1e-6 * scale * np.eye(S.shape[1]))
        return
    except np.linalg.LinAlgError:
        min_eig = np.min(np.linalg.eigvalsh(hermitian))
    if min_eig < -1e-6 * scale:
        raise NonPositiveSpectrumError(
            f"input spectrum has eigenvalue {min_eig:.3e} below -1e-6 * scale ({scale:.3e})"
        )


def _start(S: np.ndarray, F: int) -> np.ndarray:
    """Check one spectrum; its constant-in-frequency start, the lower Cholesky factor of its grid mean."""
    _check_real_endpoints(S)
    _check_psd(S)
    S_mean = _canonical_grid_mean(S, F)
    S_mean = 0.5 * (S_mean + S_mean.T)
    return np.broadcast_to(np.linalg.cholesky(S_mean + 1e-14 * np.eye(S.shape[1])), S.shape)


def _finish(spectrum: SpectralMatrix, psi: np.ndarray, iteration: int, delta) -> SpectralFactor:
    """Normalize one converged ``psi`` to ``H`` with a lag-0 identity and ``sigma``."""
    psi0 = _grid_mean(psi, spectrum.grid.n_points)  # zero-lag coefficient of the psi expansion
    factor = SpectralFactor(spectrum.grid, _stacked_matmul(psi, np.linalg.inv(psi0)), psi0 @ psi0.T)
    S = spectrum.values
    residual = float(np.max(np.abs(factor.spectrum().values - S)) / np.max(np.abs(S)))
    factor.diagnostics = {"iterations": iteration, "final_delta": float(delta), "residual": residual}
    return factor


def _factorize_stack(spectra, tol: float = 1e-6, max_iter: int = 500) -> list:
    """Factor equal-shaped spectra on one grid as one stack, each as :func:`wilson_factorize` would.

    Returns one entry per spectrum, in order: its ``SpectralFactor``, or
    the exception that :func:`wilson_factorize` raises on it alone.  Every
    member runs the iteration body on an ``(R, F/2 + 1, N, N)`` stack and
    leaves it when its own step drops below ``tol``, with its own iterate,
    iteration count and ``final_delta``.  A member that fails its checks
    never enters, and one still in the stack after ``max_iter`` iterations
    leaves with ``NonConvergenceError``; the others run on unchanged.  (An
    iterate with an exactly singular matrix would raise ``LinAlgError``
    out of the batched inverse for the whole stack, as it does alone.)
    numpy hands LAPACK, BLAS and the FFT one matrix or one line at a time,
    so a member's factor is bit-identical to a lone call's.  The one
    order-dependent sum, the grid mean of the input, is taken in one
    memory layout (:func:`_canonical_grid_mean`), so a factor depends on
    its spectrum's values and not on their layout.
    """
    out = [None] * len(spectra)
    live, starts = [], []
    for k, spectrum in enumerate(spectra):
        try:
            starts.append(_start(spectrum.values, spectrum.grid.n_points))
            live.append(k)
        except (ConfigError, NumericalError, np.linalg.LinAlgError) as exc:
            out[k] = exc  # handed back; a lone call raises it
    if not live:
        return out
    F = spectra[live[0]].grid.n_points
    eye = np.eye(starts[0].shape[-1])
    S = np.stack([spectra[k].values for k in live])
    psi = np.stack(starts).astype(complex, order="C")
    delta = np.full(len(live), np.inf)
    for iteration in range(1, max_iter + 1):
        psi_inv = np.linalg.inv(psi)
        g = _stacked_matmul(_stacked_matmul(psi_inv, S), psi_inv.conj().swapaxes(2, 3)) + eye
        psi_new = _stacked_matmul(psi, _causal_part(g, F))
        delta = np.max(np.abs(psi_new - psi), axis=(1, 2, 3)) / np.max(np.abs(psi), axis=(1, 2, 3))
        psi = psi_new
        done = delta < tol
        if done.any():
            for j in np.flatnonzero(done):
                out[live[j]] = _finish(spectra[live[j]], psi[j], iteration, delta[j])
            live = [k for k, gone in zip(live, done) if not gone]
            if not live:
                return out
            S = np.stack([spectra[k].values for k in live])
            psi, delta = psi[~done], delta[~done]
    for k, last in zip(live, delta):
        out[k] = NonConvergenceError(
            f"factorization did not converge in {max_iter} iterations (last relative change {last:.3e})"
        )
    return out


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
    (factor,) = _factorize_stack([spectrum], tol, max_iter)
    if isinstance(factor, Exception):
        raise factor
    return factor
