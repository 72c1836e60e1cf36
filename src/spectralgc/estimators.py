"""Parametric model fitting: VAR, VMA, and VARMA estimators.

* VAR: Nuttall-Strand recursion (multivariate Burg variant minimizing
  forward and backward prediction errors simultaneously, stable by
  construction) with Hannan-Quinn order selection.
* VMA / VARMA: two-step least squares.  A long VAR prewhitening fit
  provides innovation estimates ``eps(n)``; the MA (and AR) blocks are
  then regressed with the zero-lag MA block pinned to the identity.

Both read the samples only through their lag products ``C_k = Σ_s
x(s + k) x(s)ᵀ`` and the windows at the record's two edges.  The lattice
stages are computed from them, and the normal equations of the
regression and its innovation covariance are fixed linear maps of them,
so no residual or regressor sequence is formed.

Fitted MA parts are steered toward minimum phase: if the two-step
regression lands outside the invertibility region (which happens when
the generator itself is nonminimum-phase), the MA polynomial is replaced
by a Wilson factorization of its spectrum, the minimum-phase counterpart
that any second-order method can identify anyway.  That swap is inexact
next to the unit circle and can leave a zero outside it (see
:func:`_minimum_phase_stack`).

Every fit is made by :func:`_fit_group`, one direct call for a group of
equal-shaped panels and a list of fits: one set of lag products and edge
windows, up to the deepest lag any fit reads, which feeds one batched
Nuttall-Strand lattice and every two-step regression, and one
minimum-phase stack per two-step fit.  It returns each panel's report or
error per fit, bit-identical to what that panel gets alone.  The public
fits are groups of one; nothing is kept between calls.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import wilson
from .errors import ConfigError, DegeneratePanelError, NumericalError
from .models import (
    COND_LIMIT,
    FrequencyGrid,
    VarmaModel,
    ar_root_report,
    ma_root_report,
    theoretical_spectrum,
)
from .simulate import TimeSeriesPanel, _check_panel

__all__ = ["FitReport", "fit_var", "fit_vma", "fit_varma"]

DEFAULT_VAR_P_MAX = 30
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


def _solve_sylvester(gram, cov, c):
    """``[A_m, B_m] = [X pb⁻¹, Xᵀ pf⁻¹]``, ``(pfh pf⁻¹) X + X (pb⁻¹ pbh) = c``, per panel of a group.

    ``gram = [pfh, pbh]`` and ``cov = [pf, pb]`` are ``(R, 2, N, N)``
    pairs and ``c`` is ``(R, N, N)``, one entry per panel.  All four
    matrices are symmetric positive definite.  ``pf = L Lᵀ``,
    ``L⁻¹ pfh L⁻ᵀ = Q Λ Qᵀ``, ``pb = C Cᵀ`` and ``C⁻¹ pbh C⁻ᵀ = P M Pᵀ``
    diagonalize the coefficients as ``U Λ U⁻¹`` (``U = L Q``) and ``V M V⁻¹``
    (``V = C⁻ᵀ P``), so ``X = U y V⁻¹`` with ``y = [(U⁻¹ c V)ᵢⱼ / (λᵢ + μⱼ)]``.
    Since ``V⁻¹ pb⁻¹ = Vᵀ`` and ``Uᵀ pf⁻¹ = U⁻¹``, the partial coefficients
    are ``[A_m, B_m] = [U y Vᵀ, V⁻ᵀ yᵀ U⁻¹]``, returned as an ``(R, 2, N, N)``
    pair with no inverse of ``pf`` or ``pb``.  The forward and backward
    halves of every panel share each call: one batched Cholesky, inverse
    and ``eigh`` over the ``(R, 2, N, N)`` pairs.  Raises ``LinAlgError``
    if any ``pf`` or ``pb`` is not positive definite.
    """
    chol = np.linalg.cholesky(cov)  # [L, C]
    chol_inv = np.linalg.inv(chol)
    w, v = np.linalg.eigh(chol_inv @ gram @ chol_inv.swapaxes(2, 3))  # [Λ, M], [Q, P]
    left = v.swapaxes(2, 3) @ chol_inv  # [U⁻¹, Vᵀ]
    right = chol @ v  # [U, V⁻ᵀ]
    y = (left[:, 0] @ c @ left[:, 1].swapaxes(1, 2)) / (w[:, 0, :, None] + w[:, 1, None])
    return right @ np.array((y, y.swapaxes(1, 2))).swapaxes(0, 1) @ left[:, ::-1]


def _edge_windows(x: np.ndarray, cap: int) -> np.ndarray:
    """``E``, the zero-padded windows at each panel's edges: ``(R, (cap + 1) N, 2 cap)``.

    Columns ``2 t`` and ``2 t + 1`` hold ``X(t)`` and ``X(n_samp + t)``,
    ``X(t) = [x(t); ...; x(t - cap)]`` with ``x = 0`` outside the record,
    for ``t = 0..cap-1``; so rows ``:(m + 1) N`` of columns ``:2 m`` are
    the order-m windows at both edges.
    """
    r, n, n_samp = x.shape
    span = min(cap, n_samp)
    u = np.zeros((r, n, 2 * cap, 2))  # [..., 0] the head edge, [..., 1] the tail edge
    u[:, :, cap : cap + span, 0] = x[:, :, :span]
    u[:, :, cap - span : cap, 1] = x[:, :, n_samp - span :]
    # window [r, i, t, edge, k] = u[r, i, t + cap - k, edge], which is x(t - k) at the
    # head edge and x(n_samp + t - k) at the tail edge
    windows = np.lib.stride_tricks.sliding_window_view(u, cap + 1, axis=2)[..., ::-1]
    return windows.transpose(0, 4, 1, 2, 3).reshape(r, (cap + 1) * n, 2 * cap)


def _lag_products(x: np.ndarray, depth: int):
    """``(lags, edges)``, the lag products and edge windows of stacked panels ``x`` up to lag ``M``.

    ``x`` is ``(R, N, n_samp)`` and ``M = min(depth, n_samp - 1)``.  ``lags``
    is the ``(R, (2 M + 1) N, N)`` lag column: block ``M - k`` holds the
    full-range lag product ``C_k = Σ_s x(s + k) x(s)ᵀ`` for ``k = -M..M``
    (``C_{-k} = C_kᵀ``), so ``[C_j; C_{j-1}; ...; C_{j-m}]`` is one slice of
    it for any ``0 <= j <= m <= M``.  ``edges`` is ``E`` for ``M``
    (:func:`_edge_windows`).  They are a group's only passes over its
    samples: the lattice (:func:`_lattice_stages`) and every two-step
    regression (:func:`_regress_two_step`) read them.  Each ``C_k`` is one
    matrix product per panel, so a panel's lag products are bit-identical
    in any group.
    """
    r, n, n_samp = x.shape
    cap = min(depth, n_samp - 1)  # C_k needs k < n_samp; a negative slice stop would wrap
    lags = np.empty((r, (2 * cap + 1) * n, n))
    lags[:, cap * n : (cap + 1) * n] = x @ x.swapaxes(1, 2)
    for k in range(1, cap + 1):
        lag = lags[:, (cap - k) * n : (cap - k + 1) * n]
        np.matmul(x[:, :, k:], x[:, :, : n_samp - k].swapaxes(1, 2), out=lag)
        lags[:, (cap + k) * n : (cap + k + 1) * n] = lag.swapaxes(1, 2)
    return lags, _edge_windows(x, cap)


def _lattice_stages(lags: np.ndarray, edges: np.ndarray, n_samp: int):
    """Nuttall-Strand stages ``(ar_blocks, residual_cov)`` for p = 0, 1, 2, ..., lazily.

    ``lags`` and ``edges`` are the lag column and ``E`` of R equal-shaped
    panels of ``n_samp`` samples (:func:`_lag_products`); stage p is
    ``ar_blocks`` of shape ``(R, p, N, N)`` and ``residual_cov`` of shape
    ``(R, N, N)``, panel i's lattice at index i.  Each stage solves the
    Sylvester equation expressing the harmonic-mean (Nuttall-Strand)
    compromise between the forward and backward partial correlation
    normal equations, then updates both prediction-error filters.

    A stage updates the filters, never the data.  Stage m's errors are
    ``z(t) = [ef(t); eb(t - 1)] = W X(t)`` for ``t = m..n_samp - 1``, with
    ``X(t) = [x(t); ...; x(t - m)]`` and the filter pair
    ``W = [[I, -F_1, ..., -F_{m-1}, 0], [0, -B_{m-1}, ..., -B_1, I]]``, so
    the Gram of the errors, whose blocks are the three correlations, is
    ``W T Wᵀ - (W E)(W E)ᵀ``.  ``T`` is block Toeplitz with blocks
    ``C_{j-i}``, and ``E`` holds the zero-padded windows ``X(t)`` at
    ``t = 0..m-1`` and ``t = n_samp..n_samp+m-1`` that the full range adds.
    ``T`` is never formed, and ``W E`` is one product on a corner of ``E``.
    ``W T`` is carried along with ``W``: the update ``[[I, -A_m], [-B_m, I]]``
    maps both to the next order, and each row gains one block,
    ``[I, -A_m] W`` times ``[C_{m+1}; ...; C_1]`` and ``[-B_m, I] W`` times
    ``[C_1ᵀ; ...; C_{m+1}ᵀ]``, both slices of the lag column.  A stage makes
    no pass over the samples, so it costs O(m N³ + m² N²) where filtering
    the data would take three O(N² n_samp) products.  ``W`` and ``W T``
    share a buffer pair, the backward row one block to the right of the
    forward row, sized once for the order ``M`` of the lag products; a
    stage past order ``n_samp - 1`` raises ``NumericalError``.  The AR
    blocks are read off the forward filter.

    At N = 2-3 a stage's cost is the number of numpy calls, not
    arithmetic, so every call runs once for all R panels and for both
    halves of each: the forward/backward twins are ``(R, 2, ...)`` stacks,
    forward first (the residual covariances ``P = [pf, pb]``, the Gram's
    diagonal blocks ``[pfh, pbh]`` as a view and the partial coefficients
    ``[A_m, B_m]``).  numpy still hands BLAS and LAPACK one matrix at a
    time, with the strides a lone panel has, so a panel's stages are
    bit-identical in any group.  A group shares that per-call cost among
    its panels: 32 example-1 lattices of 50 stages (N = 2, n_samp = 1024,
    1 BLAS thread) took 239 ms one by one, 76 ms in groups of four and
    27 ms as one group.  A group of one is the lone panel.
    """
    r, rows, n = lags.shape
    cap = rows // (2 * n)
    eye = np.eye(n)
    update = np.tile(np.eye(2 * n), (r, 1, 1))  # [[I, -A_m], [-B_m, I]] per panel
    c0 = lags[:, cap * n : (cap + 1) * n]
    P = np.broadcast_to((c0 / n_samp)[:, None], (r, 2, n, n)).copy()
    yield np.zeros((r, 0, n, n)), P[:, 0]
    # [W, W T] per panel, twice: the pair axis leads, so matmul writes in place
    filters = np.zeros((2, r, 2, 2 * n, (cap + 2) * n))
    filters[0, :, 0, :n, :n] = filters[0, :, 0, n:, n : 2 * n] = eye
    filters[0, :, 1, :n, :n] = filters[0, :, 1, n:, n : 2 * n] = c0
    m = 0
    while True:
        m += 1
        if m >= n_samp:
            raise NumericalError(f"Nuttall-Strand stage {m} is past order n_s - 1 = {n_samp - 1}")
        width = (m + 1) * n
        w, wt = filters[(m - 1) % 2, :, 0], filters[(m - 1) % 2, :, 1]
        # the blocks W T gains at order m: its last forward one and its first backward one
        np.matmul(w[:, :n, : m * n], lags[:, (cap - m) * n : cap * n], out=wt[:, :n, m * n : width])
        np.matmul(w[:, n:, n:width], lags[:, (cap + 1) * n : (cap + m + 1) * n], out=wt[:, n:, :n])
        z = w[:, :, :width] @ edges[:, :width, : 2 * m]  # W E
        g = wt[:, :, :width] @ w[:, :, :width].swapaxes(1, 2) - z @ z.swapaxes(1, 2)
        gram = g.reshape(r, 2, n, 2, n).diagonal(0, 1, 3).transpose(0, 3, 1, 2)  # [pfh, pbh], a view
        try:
            ab = _solve_sylvester(gram, P, 2.0 * g[:, :n, n:])  # [A_m, B_m]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Nuttall-Strand stage {m} failed: {exc}") from exc
        P = (eye - ab @ ab[:, ::-1]) @ P  # [(I - A_m B_m) pf, (I - B_m A_m) pb]
        P = 0.5 * (P + P.swapaxes(2, 3))
        update[:, :n, n:], update[:, n:, :n] = -ab.swapaxes(0, 1)
        # the forward rows stay in their columns, the backward rows move one block right
        src, dst = filters[(m - 1) % 2, ..., :width], filters[m % 2]
        np.matmul(update[:, None, :n], src, out=dst[..., :n, :width])
        np.matmul(update[:, None, n:], src, out=dst[..., n:, n : width + n])
        # the forward filter is [I, -F_1, ..., -F_m]; a fresh array, never written again
        yield -filters[m % 2, :, 0, :n, n:width].reshape(r, n, m, n).swapaxes(1, 2), P[:, 0]


def _lattice_run(lags: np.ndarray, edges: np.ndarray, n_samp: int, depth: int) -> list:
    """Each panel's stages ``[(ar_blocks, residual_cov)]`` for p = 0..depth, and its error or None.

    ``lags`` and ``edges`` are those of a group (:func:`_lag_products`),
    whose panels run as one batched lattice (:func:`_lattice_stages`).  The
    lattice is closed once it gets to ``depth``, which frees its filter
    pair; only the stages stay, and the caller's lag products are left as
    they are.  A panel's stages are bit-identical in any group.  If a
    stacked stage raises ``NumericalError``, each panel reruns on a lattice
    of its own, over its own slice of ``lags`` and ``edges``, and a panel
    whose own stage fails keeps the stages it reached, with that error.
    Any other exception propagates.
    """
    stages = [[] for _ in lags]
    lattice = _lattice_stages(lags, edges, n_samp)
    try:
        for _ in range(depth + 1):
            ar, cov = next(lattice)
            for own, ar_i, cov_i in zip(stages, ar, cov):
                own.append((ar_i, cov_i))
    except NumericalError as exc:
        if len(lags) == 1:
            return [(stages[0], exc)]
        return [_lattice_run(lags[k : k + 1], edges[k : k + 1], n_samp, depth)[0] for k in range(len(lags))]
    finally:
        lattice.close()
    return [(own, None) for own in stages]


def _hq_values(residual_covs, n_samples: int, n_channels: int) -> list:
    """Hannan-Quinn criterion ``(order, ln det cov + penalty)`` of each ``(order, cov)`` pair.

    The penalty is ``2 p N^2 ln(ln n_s) / n_s``; a singular or indefinite
    cov scores inf.  :func:`_hq_argmin` picks the order, ties to the
    smaller one.
    """
    penalty_unit = 2.0 * n_channels**2 * np.log(np.log(n_samples)) / n_samples
    signs, logdets = np.linalg.slogdet(np.array([cov for _, cov in residual_covs]))
    return [
        (order, (logdet + order * penalty_unit) if sign > 0 else np.inf)
        for (order, _), sign, logdet in zip(residual_covs, signs, logdets)
    ]


def _hq_argmin(values) -> int:
    """Order of the smallest finite criterion value, ties to the smaller order."""
    best_order, best_val = None, np.inf
    for order, val in sorted(values, key=lambda ov: ov[0]):
        if val < best_val:
            best_order, best_val = order, val
    if best_order is None:
        raise NumericalError("all candidate residual covariances were singular")
    return best_order


def _select_var(stages, n_samples: int) -> FitReport:
    """The VAR fit of a panel's stages for p = 0..p_max: Hannan-Quinn selection over p = 1..p_max."""
    n = stages[0][1].shape[0]
    values = _hq_values([(p, cov) for p, (_, cov) in enumerate(stages) if p], n_samples, n)
    p_hat = _hq_argmin(values)
    ar, sigma = stages[p_hat]
    return FitReport(VarmaModel(np.array(ar), np.eye(n)[None], sigma), (p_hat, 0), values)


def _minimum_phase_stack(parts) -> list:
    """Steer the MA part of each ``(ma_blocks, sigma)`` of ``parts`` (one order q) to minimum phase.

    Returns one entry per part, in order: the part itself if its MA roots
    lie within ``1 + 1e-6``; otherwise the minimum-phase spectral
    equivalent; or the error that part's root check or swap raised, which
    leaves the other parts as they are.  A swap refactorizes the
    MA-part spectrum ``B sigma B^H`` on a fine grid and reads back the lag
    coefficients of its minimum-phase factor (exactly q of them, up to grid
    truncation).  Every swapped part of the stack runs in one Wilson stack
    (``wilson._factorize_stack``), so each gets the factor, and the result,
    it gets alone.

    The result is not guaranteed to be minimum-phase.  Wilson's fixed
    point creeps near a zero on the unit circle, and grid truncation
    does the rest: on example 1 at n_s = 1024, seeds 56003 and 56015, the
    largest MA root goes from 1.000138 to 1.003363 and from 1.000091 to
    1.004099, further outside than before the swap.
    """
    out = list(parts)
    swapped, spectra = [], []
    for k, (ma_blocks, sigma) in enumerate(parts):
        try:
            probe = VarmaModel(np.zeros((0,) + sigma.shape), ma_blocks, sigma)
            report = ma_root_report(probe)
            if report.roots.size == 0 or np.max(report.magnitudes) <= 1.0 + 1e-6:
                continue
            spectrum = theoretical_spectrum(probe, FrequencyGrid(max(1024, 8 * ma_blocks.shape[0])))
        except Exception as exc:  # this part's own error, not the stack's
            out[k] = exc
            continue
        spectra.append(spectrum)
        swapped.append(k)
    if not swapped:
        return out

    # Roots near the unit circle make the fixed point contract slowly,
    # hence the generous iteration budget.
    factors = wilson._factorize_stack(spectra, tol=1e-8, max_iter=5000)  # looked up at call time
    for k, factor in zip(swapped, factors):
        if isinstance(factor, Exception):
            out[k] = factor
            continue
        q = parts[k][0].shape[0] - 1
        lags = np.fft.irfft(factor.values, n=factor.grid.n_points, axis=0)[: q + 1]
        new_ma = lags @ np.linalg.inv(lags[0])
        new_sigma = lags[0] @ factor.sigma @ lags[0].T
        out[k] = new_ma, 0.5 * (new_sigma + new_sigma.T)
    return out


def _two_step_gram(lags: np.ndarray, edges: np.ndarray, long_ar: np.ndarray, n_samp: int, p: int, q: int):
    """``(Z Zᵀ, Z Yᵀ, Σ)``: the normal equations and innovation covariance of a two-step VARMA(p, q) fit.

    ``lags`` and ``edges`` are one panel's lag column and ``E``
    (:func:`_lag_products`), up to lag ``M = P + max(p, q)`` or deeper, and
    ``long_ar`` holds the AR blocks of the long VAR(P), whose residuals
    ``eps(t) = Σ_r Φ_r x(t - r)`` (``Φ_0 = I``, ``Φ_r = -A_r``) stand in for
    the innovations.  The regression is ``Y(t) = x(t) - eps(t) ~ C Z(t)``,
    with ``Z(t)`` the lags ``x(t - 1..p)`` and ``eps(t - 1..q)``, over the
    samples ``M <= t < n_samp`` where every lag exists; ``Σ`` is the mean of
    ``eps(t) eps(t)ᵀ`` over ``P <= t < n_samp``.

    No residual or regressor sequence is formed.  ``Z(t)``, ``Y(t)`` and
    ``eps(t)`` are one fixed linear map ``Ψ`` of ``X(t) = [x(t); ...;
    x(t - M)]``, and ``S = Σ_{t >= M} X(t) X(t)ᵀ = T - E Eᵀ`` with ``T`` and
    ``E`` of order ``M`` as in :func:`_lattice_stages` (the head windows of
    ``E`` are exactly ``t < M``).  So ``Z Zᵀ``, ``Z Yᵀ`` and the residual Gram
    over ``t >= M`` are blocks of ``Ψ S Ψᵀ = (Ψ T) Ψᵀ - (Ψ E)(Ψ E)ᵀ``, and
    ``Σ`` adds back the head windows ``P <= t < M``, which are columns of
    ``Ψ E``.  ``T`` is never formed: block column j of ``Ψ T`` is ``Ψ`` times
    the slice ``[C_j; ...; C_{j-M}]`` of the lag column.  The work does not
    grow with ``n_samp``.

    The Gram is a difference of sums over the whole record, so it loses
    digits as the residuals' energy falls below the data's.  Against
    products over the window (the reference in ``tests/reference_impl.py``)
    the normal equations and ``Σ`` of random stable panels deviated by at
    most 1.6e-13 times the ratio ``tr(C_0 / n_samp) / tr(Σ)`` at n_s = 16384,
    and 6.9e-13 times it on the shortest panels the fits accept.
    """
    (order, n, _), depth = long_ar.shape, long_ar.shape[0] + max(p, q)
    width, cap, k = (depth + 1) * n, lags.shape[0] // (2 * n), (p + q) * n
    phi = np.concatenate([np.eye(n)[None], -long_ar]).transpose(1, 0, 2)  # [Φ_0, ..., Φ_P] side by side
    psi = np.zeros((p + q + 2, n, depth + 1, n))  # rows Z(t), Y(t), eps(t); column block j reads x(t - j)
    for r in range(1, p + 1):
        psi[r - 1, :, r] = np.eye(n)
    for s in range(1, q + 1):
        psi[p + s - 1, :, s : s + order + 1] = phi
    psi[p + q, :, 1 : order + 1] = -phi[:, 1:]
    psi[p + q + 1, :, : order + 1] = phi
    psi = psi.reshape(-1, width)
    # window i of the lag column starts at its row i; block column j of T is the window at (cap - j) N
    windows = np.lib.stride_tricks.sliding_window_view(lags, width, axis=0)
    columns = windows[(cap - depth) * n : cap * n + 1 : n][::-1].swapaxes(1, 2)
    psi_t = (psi @ columns).transpose(1, 0, 2).reshape(-1, width)  # Ψ T
    psi_e = psi @ edges[:width, : 2 * depth]  # Ψ E
    g = psi_t @ psi.T - psi_e @ psi_e.T  # Ψ S Ψᵀ
    head = psi_e[-n:, 2 * order : 2 * depth : 2]  # eps(t) for P <= t < M
    sigma = (g[-n:, -n:] + head @ head.T) / (n_samp - order)
    return g[:k, :k], g[:k, k : k + n], 0.5 * (sigma + sigma.T)


def _regress_two_step(lags: np.ndarray, edges: np.ndarray, long_ar: np.ndarray, n_samp: int, p: int, q: int):
    """``(ar, ma, sigma)`` of one panel's two-step VARMA(p, q) fit, before the guard (:func:`_two_step_gram`).

    ``C = [A_1, ..., A_p, B_1, ..., B_q]`` solves the normal equations.
    """
    n = long_ar.shape[1]
    ZZt, ZYt, sigma = _two_step_gram(lags, edges, long_ar, n_samp, p, q)
    if np.linalg.cond(ZZt) > COND_LIMIT:
        raise NumericalError("regressor matrix is numerically rank deficient")
    C = np.linalg.solve(ZZt, ZYt).T
    ar = C[:, : p * n].reshape(n, p, n).transpose(1, 0, 2).copy()
    ma = np.concatenate(
        [np.eye(n)[None], C[:, p * n :].reshape(n, q, n).transpose(1, 0, 2)], axis=0
    )
    return ar, ma, sigma


def _fit_depths(fit, n_channels: int, n_samples: int):
    """``(order, lag)``, the lattice order and deepest lag ``fit`` reads; ``ConfigError`` if too few samples."""
    if fit[0] == "var":
        p_max = fit[1]
        if n_samples <= n_channels * p_max + 1:
            raise ConfigError(
                f"need more than {n_channels * p_max + 1} samples to sweep VAR orders up to {p_max}"
            )
        return p_max, p_max
    _, p, q, long_ar_order = fit
    if n_samples < 4 * (long_ar_order + max(p, q)):
        orders = f"q={q}" if p == 0 else f"orders ({p}, {q})"
        raise ConfigError(f"panel too short for long_ar_order={long_ar_order} and {orders}")
    return long_ar_order, long_ar_order + max(p, q)


def _fit_group(panels, fits) -> list:
    """Make each of ``fits`` for every one of equal-shaped ``panels``: one ``{fit: outcome}`` dict per panel.

    A fit is ``("var", p_max)``, the fit of :func:`fit_var`, or
    ``("two_step", p, q, long_ar_order)``, that of :func:`fit_varma`
    (``p = 0`` is :func:`fit_vma`'s).  An outcome is the fit's ``FitReport``,
    or the ``Exception`` the panel's lone fit raises; every outcome is the
    one that panel gets alone, bit for bit.  Each dict holds the fits in
    the order of ``fits``.

    1. A panel that fails :func:`_check_panel` takes that error for every
       fit; a fit that needs more samples than the panels have gives each
       of them its ``ConfigError``.  Neither runs any further.
    2. The other panels' lag products and edge windows are computed once
       (:func:`_lag_products`), up to the deepest lag any fit reads, and
       run one lattice (:func:`_lattice_run`) up to the deepest order the
       fits read; a stage that fails takes only its own panel's fits past
       it.
    3. Each two-step fit regresses every panel on its own, from the same
       lag products and the lattice's long VAR (:func:`_regress_two_step`).
       The lag products are then freed, and each two-step fit swaps the MA
       parts that need it in one minimum-phase stack
       (:func:`_minimum_phase_stack`).

    Only an ``Exception`` is kept; a ``KeyboardInterrupt`` propagates.
    """
    outcomes = [dict.fromkeys(fits) for _ in panels]
    valid = []
    for k, panel in enumerate(panels):
        try:
            _check_panel(panel)
            valid.append(k)
        except DegeneratePanelError as exc:
            outcomes[k] = dict.fromkeys(fits, exc)
    if not valid:
        return outcomes
    depths = {}
    for fit in fits:
        try:
            depths[fit] = _fit_depths(fit, *panels[valid[0]].data.shape)
        except ConfigError as exc:
            for k in valid:
                outcomes[k][fit] = exc
    if not depths:
        return outcomes

    data = [panels[k].data for k in valid]
    n_samp = data[0].shape[1]
    orders, lag_depths = zip(*depths.values())
    # a lone panel is viewed, not copied; Monte Carlo runs group only short panels
    lags, edges = _lag_products(np.stack(data) if len(data) > 1 else data[0][None], max(lag_depths))
    lattices = _lattice_run(lags, edges, n_samp, max(orders))
    parts = {fit: {} for fit in depths if fit[0] == "two_step"}  # panel -> (ar, ma, sigma), before the guard
    for fit, (order, _) in depths.items():
        for i, (k, (stages, error)) in enumerate(zip(valid, lattices)):
            if len(stages) <= order:
                outcomes[k][fit] = error
                continue
            try:
                if fit[0] == "var":
                    outcomes[k][fit] = _select_var(stages[: order + 1], n_samp)
                else:
                    parts[fit][k] = _regress_two_step(lags[i], edges[i], stages[order][0], n_samp, *fit[1:3])
            except Exception as exc:
                outcomes[k][fit] = exc
    del lags, edges
    for fit, own in parts.items():
        guarded = _minimum_phase_stack([part[1:] for part in own.values()])
        for (k, part), result in zip(own.items(), guarded):
            try:
                outcomes[k][fit] = result if isinstance(result, Exception) else FitReport(
                    VarmaModel(part[0], *result), fit[1:3], []
                )
            except Exception as exc:  # a VarmaModel that rejects its fitted sigma
                outcomes[k][fit] = exc
    return outcomes


def _fit_one(panel: TimeSeriesPanel, fit) -> FitReport:
    """``fit`` of ``panel`` alone, a group of one (see :func:`_fit_group`); its error is raised."""
    (outcomes,) = _fit_group([panel], [fit])
    if isinstance(outcomes[fit], Exception):
        raise outcomes[fit]
    return outcomes[fit]


def _warn_if_unstable(report: FitReport, stacklevel: int) -> None:
    """Warn if the AR part of a VARMA fit is not stable, attributed ``stacklevel`` frames up from the caller."""
    if ar_root_report(report.model).classification != "stable":
        warnings.warn("fitted VARMA autoregressive part is not stable", stacklevel=stacklevel + 1)


def fit_var(panel: TimeSeriesPanel, p_max: int = DEFAULT_VAR_P_MAX) -> FitReport:
    """Nuttall-Strand VAR fit with Hannan-Quinn selection over p = 1..p_max."""
    if p_max < 1:
        raise ConfigError(f"p_max must be a positive integer, got {p_max}")
    return _fit_one(panel, ("var", p_max))


def fit_vma(panel: TimeSeriesPanel, q: int, long_ar_order: int = DEFAULT_LONG_AR_ORDER) -> FitReport:
    """Two-step VMA(q) fit.

    Long-VAR residuals stand in for the unobserved innovations; the MA
    blocks solve the least-squares problem ``x(n) - eps(n) ~ sum_s B_s
    eps(n - s)`` over the sample range where every lag exists.  The
    innovation covariance is the sample covariance of the residuals.
    """
    if q < 1 or long_ar_order < 1:
        raise ConfigError(f"q and long_ar_order must be positive integers, got {q} and {long_ar_order}")
    return _fit_one(panel, ("two_step", 0, q, long_ar_order))


def fit_varma(
    panel: TimeSeriesPanel, p: int, q: int, long_ar_order: int = DEFAULT_LONG_AR_ORDER
) -> FitReport:
    """Two-step VARMA(p, q) fit (same scheme as :func:`fit_vma` plus AR lags).

    ``q = 0`` is not an ordinary least-squares VAR(p) fit: the AR blocks
    regress ``x(n) - eps(n)`` on the p lags of ``x`` over
    ``n >= long_ar_order + p``, and ``Σ`` is the covariance of the long-VAR
    residuals ``eps``.
    """
    if p < 1 or q < 0 or long_ar_order < 1:
        raise ConfigError(f"need p >= 1, q >= 0 and long_ar_order >= 1, got ({p}, {q}) and {long_ar_order}")
    report = _fit_one(panel, ("two_step", p, q, long_ar_order))
    _warn_if_unstable(report, 2)
    return report
