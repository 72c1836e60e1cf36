"""Parametric model fitting: VAR, VMA, and VARMA estimators.

* VAR: Nuttall-Strand recursion (multivariate Burg variant minimizing
  forward and backward prediction errors simultaneously, stable by
  construction) with Hannan-Quinn order selection.
* VMA / VARMA: two-step least squares.  A long VAR prewhitening fit
  provides innovation estimates ``eps(n)``; the MA (and AR) blocks are
  then regressed with the zero-lag MA block pinned to the identity.

Fitted MA parts are forced minimum-phase: if the two-step regression
lands outside the invertibility region (which happens when the generator
itself is nonminimum-phase), the MA polynomial is replaced by its
spectrum-equivalent minimum-phase counterpart, which is what any
second-order method can identify anyway.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePanelError, NumericalError
from .models import (
    COND_LIMIT,
    FrequencyGrid,
    SpectralMatrix,
    VarmaModel,
    eval_ma_polynomial,
    ar_root_report,
    ma_root_report,
)
from .simulate import TimeSeriesPanel

__all__ = ["FitReport", "fit_var", "fit_vma", "fit_varma", "hannan_quinn"]

DEFAULT_LONG_AR_ORDER = 50


@dataclass
class FitReport:
    """Result of a parametric fit.

    ``criterion_values`` holds ``(order, HQ value)`` pairs when an order
    search was performed (empty for fixed-order fits) and
    ``selected_order`` is the ``(p, q)`` pair of the returned model.
    """

    model: VarmaModel
    selected_order: tuple
    criterion_values: list


def _check_panel(panel: TimeSeriesPanel) -> None:
    x = panel.data
    if np.any(np.var(x, axis=1) == 0.0):
        ch = int(np.argmin(np.var(x, axis=1))) + 1
        raise DegeneratePanelError(f"channel x{ch} has zero variance; nothing to fit")


def _solve_sylvester(pfh, pf, pbh, pb, c):
    """``X`` with ``(pfh pf⁻¹) X + X (pb⁻¹ pbh) = c``; ``pfh, pf, pbh, pb`` symmetric positive definite.

    ``pf = L Lᵀ``, ``L⁻¹ pfh L⁻ᵀ = Q Λ Qᵀ``, ``pb = R Rᵀ`` and ``R⁻¹ pbh R⁻ᵀ = P M Pᵀ``
    diagonalize the coefficients as ``U Λ U⁻¹`` (``U = L Q``) and ``V M V⁻¹``
    (``V = R⁻ᵀ P``), so ``X = U [(U⁻¹ c V)ᵢⱼ / (λᵢ + μⱼ)] V⁻¹``.  Raises
    ``LinAlgError`` if ``pf`` or ``pb`` is not positive definite.
    """
    l, r = np.linalg.cholesky(pf), np.linalg.cholesky(pb)
    li, ri = np.linalg.inv(l), np.linalg.inv(r)
    lam, q = np.linalg.eigh(li @ pfh @ li.T)
    mu, p = np.linalg.eigh(ri @ pbh @ ri.T)
    y = (q.T @ li @ c @ ri.T @ p) / (lam[:, None] + mu)
    return l @ q @ y @ p.T @ r.T


def _lattice_stages(x: np.ndarray):
    """Nuttall-Strand stages ``(ar_blocks, residual_cov)`` for p = 0, 1, 2, ..., lazily.

    Each stage solves the Sylvester equation expressing the harmonic-mean
    (Nuttall-Strand) compromise between the forward and backward partial
    correlation normal equations, then updates both prediction-error
    filters Levinson-style, all ``(m, N, N)`` coefficient blocks at once.
    The order-m errors sit in one ``(2N, n_samp + 1)`` buffer, ``ef`` at
    ``[:N, :n_samp - m]`` and ``eb`` one column later, so the next stage's
    ``[ef[1:]; eb[:-1]]`` is one view: one Gram gives its three
    correlations and ``[[I, -A_m], [-B_m, I]]`` writes both new errors
    into the other buffer of a pair.
    """
    n, n_samp = x.shape
    bufs = np.empty((2, 2 * n, n_samp + 1))
    bufs[0, :n, :n_samp] = x
    bufs[0, n:, 1:] = x
    eye = np.eye(n)
    update = np.eye(2 * n)  # [[I, -A_m], [-B_m, I]]
    pf = x @ x.T / n_samp
    pb = pf.copy()
    fwd = bwd = np.zeros((0, n, n))  # coefficient blocks of the current order
    yield fwd, pf
    m = 0
    while True:
        m += 1
        length = n_samp - m
        z = bufs[(m - 1) % 2, :, 1 : length + 1]
        g = z @ z.T
        try:
            rho = _solve_sylvester(g[:n, :n], pf, g[n:, n:], pb, 2.0 * g[:n, n:])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Nuttall-Strand stage {m} failed: {exc}") from exc
        a_m = rho @ np.linalg.inv(pb)
        b_m = rho.T @ np.linalg.inv(pf)
        fwd, bwd = (
            np.concatenate([fwd - a_m @ bwd[::-1], a_m[None]]),
            np.concatenate([bwd - b_m @ fwd[::-1], b_m[None]]),
        )
        pf = (eye - a_m @ b_m) @ pf
        pb = (eye - b_m @ a_m) @ pb
        pf = 0.5 * (pf + pf.T)
        pb = 0.5 * (pb + pb.T)
        update[:n, n:], update[n:, :n] = -a_m, -b_m
        np.matmul(update[:n], z, out=bufs[m % 2, :n, :length])
        np.matmul(update[n:], z, out=bufs[m % 2, n:, 1 : length + 1])
        yield fwd, pf  # fresh arrays, never written again


def _nuttall_strand(panel: TimeSeriesPanel, p_max: int) -> list:
    """Stages ``[(ar_blocks, residual_cov)]`` for p = 0..p_max (see :func:`_lattice_stages`).

    The lattice generator and its stages are memoised on the panel, so
    every fit of one panel (VAR order sweep and long-VAR prewhitening
    alike) continues one lattice instead of restarting it; stages are
    identical either way.  A lattice that fails is dropped from the memo,
    so a retry fails the same way.
    """
    with panel._lock:
        if "lattice" not in panel._memo:
            panel._memo["lattice"] = (_lattice_stages(panel.data), [])
        gen, stages = panel._memo["lattice"]
        try:
            while len(stages) <= p_max:
                stages.append(next(gen))
        except BaseException:
            del panel._memo["lattice"]  # the generator is spent
            raise
        return stages[: p_max + 1]


def hannan_quinn(residual_covs, n_samples: int, n_channels: int) -> int:
    """Hannan-Quinn order selection.

    Parameters
    ----------
    residual_covs : sequence of (order, cov) pairs
        Residual covariance for each candidate order.
    n_samples, n_channels : int
        Used in the penalty ``2 p N^2 ln(ln n_s) / n_s``.

    Returns
    -------
    int
        The order minimizing ``ln det cov + penalty``; ties go to the
        smaller order.
    """
    if len(residual_covs) == 0:
        raise ConfigError("hannan_quinn needs at least one candidate order")
    return _hq_argmin(_hq_values(residual_covs, n_samples, n_channels))


def _hq_values(residual_covs, n_samples: int, n_channels: int) -> list:
    """``(order, ln det cov + penalty)`` pairs; a singular or indefinite cov scores inf."""
    penalty_unit = 2.0 * n_channels**2 * np.log(np.log(n_samples)) / n_samples
    vals = []
    for order, cov in residual_covs:
        sign, logdet = np.linalg.slogdet(cov)
        vals.append((order, (logdet + order * penalty_unit) if sign > 0 else np.inf))
    return vals


def _hq_argmin(values) -> int:
    """Order of the smallest finite criterion value, ties to the smaller order."""
    best_order, best_val = None, np.inf
    for order, val in sorted(values, key=lambda ov: ov[0]):
        if val < best_val:
            best_order, best_val = order, val
    if best_order is None:
        raise NumericalError("all candidate residual covariances were singular")
    return best_order


def fit_var(panel: TimeSeriesPanel, p_max: int = 30) -> FitReport:
    """Nuttall-Strand VAR fit with Hannan-Quinn selection over p = 1..p_max."""
    if p_max < 1:
        raise ConfigError(f"p_max must be a positive integer, got {p_max}")
    _check_panel(panel)
    n = panel.n_channels
    if panel.n_samples <= n * p_max + 1:
        raise ConfigError(
            f"need more than {n * p_max + 1} samples to sweep VAR orders up to {p_max}"
        )
    stages = _nuttall_strand(panel, p_max)
    candidates = [(p, stages[p][1]) for p in range(1, p_max + 1)]
    values = _hq_values(candidates, panel.n_samples, n)
    p_hat = _hq_argmin(values)
    ar, sigma = stages[p_hat]
    model = VarmaModel(np.array(ar), np.eye(n)[None], sigma)
    return FitReport(model, (p_hat, 0), values)


def _long_var_residuals(panel: TimeSeriesPanel, long_ar_order: int) -> np.ndarray:
    """Prewhitening residuals eps(n) for n >= long_ar_order.

    Memoised on the panel per order and shared by its VMA and VARMA fits,
    which only read them.
    """
    key = ("eps", long_ar_order)
    with panel._lock:
        if key not in panel._memo:
            x = panel.data
            ar, _ = _nuttall_strand(panel, long_ar_order)[long_ar_order]
            eps = x[:, long_ar_order:].copy()
            for r in range(1, long_ar_order + 1):
                eps -= ar[r - 1] @ x[:, long_ar_order - r : x.shape[1] - r]
            eps.flags.writeable = False
            panel._memo[key] = eps
        return panel._memo[key]


def _ensure_minimum_phase(ma_blocks: np.ndarray, sigma: np.ndarray):
    """Swap an MA polynomial for its minimum-phase spectral equivalent.

    Leaves minimum-phase inputs untouched.  Otherwise the MA-part
    spectrum ``B sigma B^H`` is refactorized on a fine grid and the lag
    coefficients of the minimum-phase factor (exactly q of them, up to
    grid truncation) are read back out.
    """
    q = ma_blocks.shape[0] - 1
    probe = VarmaModel(np.zeros((0,) + sigma.shape), ma_blocks, sigma)
    report = ma_root_report(probe)
    if report.roots.size == 0 or np.max(report.magnitudes) <= 1.0 + 1e-6:
        return ma_blocks, sigma

    from .wilson import wilson_factorize  # deferred: avoids import cycle at module load

    grid = FrequencyGrid(max(1024, 8 * (q + 1)))
    B = eval_ma_polynomial(probe, grid.values)
    spec = SpectralMatrix(grid, B @ sigma @ B.conj().transpose(0, 2, 1))
    # Roots near the unit circle make the fixed point contract slowly,
    # hence the generous iteration budget.
    factor = wilson_factorize(spec, tol=1e-8, max_iter=5000)
    lags = np.fft.irfft(factor.values, n=grid.n_points, axis=0)[: q + 1]
    lag0_inv = np.linalg.inv(lags[0])
    new_ma = lags @ lag0_inv
    new_sigma = lags[0] @ factor.sigma @ lags[0].T
    return new_ma, 0.5 * (new_sigma + new_sigma.T)


def _fit_two_step(panel: TimeSeriesPanel, p: int, q: int, long_ar_order: int) -> FitReport:
    """Two-step VARMA(p, q) fit of a checked panel; ``p = 0`` is the VMA(q) fit.

    Least squares ``x(n) - eps(n) ~ C z(n)``, with ``z(n)`` the lags
    ``x(n - 1..p)`` and ``eps(n - 1..q)`` (AR blocks first in ``C``), over
    the samples where every lag exists; ``eps`` starts at ``long_ar_order``.
    """
    x = panel.data
    n, n_samp = x.shape
    eps = _long_var_residuals(panel, long_ar_order)
    off = long_ar_order
    t0 = off + max(p, q)
    Y = x[:, t0:] - eps[:, t0 - off :]
    blocks = [x[:, t0 - r : n_samp - r] for r in range(1, p + 1)]
    blocks += [eps[:, t0 - off - s : n_samp - off - s] for s in range(1, q + 1)]
    Z = np.concatenate(blocks, axis=0)
    ZZt = Z @ Z.T
    if np.linalg.cond(ZZt) > COND_LIMIT:
        raise NumericalError("regressor matrix is numerically rank deficient")
    C = np.linalg.solve(ZZt, Z @ Y.T).T
    ar = C[:, : p * n].reshape(n, p, n).transpose(1, 0, 2).copy()
    ma = np.concatenate(
        [np.eye(n)[None], C[:, p * n :].reshape(n, q, n).transpose(1, 0, 2)], axis=0
    )
    sigma = eps @ eps.T / eps.shape[1]
    ma, sigma = _ensure_minimum_phase(ma, 0.5 * (sigma + sigma.T))
    model = VarmaModel(ar, ma, sigma)
    return FitReport(model, (p, q), [])


def fit_vma(panel: TimeSeriesPanel, q: int, long_ar_order: int = DEFAULT_LONG_AR_ORDER) -> FitReport:
    """Two-step VMA(q) fit.

    Long-VAR residuals stand in for the unobserved innovations; the MA
    blocks solve the least-squares problem ``x(n) - eps(n) ~ sum_s B_s
    eps(n - s)`` over the sample range where every lag exists.  The
    innovation covariance is the sample covariance of the residuals.
    """
    if q < 1:
        raise ConfigError(f"q must be a positive integer, got {q}")
    _check_panel(panel)
    if panel.n_samples < 4 * (long_ar_order + q):
        raise ConfigError(
            f"panel too short for long_ar_order={long_ar_order} and q={q}"
        )
    return _fit_two_step(panel, 0, q, long_ar_order)


def fit_varma(
    panel: TimeSeriesPanel, p: int, q: int, long_ar_order: int = DEFAULT_LONG_AR_ORDER
) -> FitReport:
    """Two-step VARMA(p, q) fit (same scheme as :func:`fit_vma` plus AR lags).

    ``q = 0`` degenerates to an ordinary least-squares VAR(p) fit.
    """
    if p < 1 or q < 0:
        raise ConfigError(f"orders must satisfy p >= 1 and q >= 0, got ({p}, {q})")
    _check_panel(panel)
    if panel.n_samples < 4 * (long_ar_order + max(p, q)):
        raise ConfigError(
            f"panel too short for long_ar_order={long_ar_order} and orders ({p}, {q})"
        )
    report = _fit_two_step(panel, p, q, long_ar_order)
    if ar_root_report(report.model).classification != "stable":
        warnings.warn("fitted VARMA autoregressive part is not stable", stacklevel=2)
    return report
