"""Parametric model fitting: VAR, VMA, and VARMA estimators.

* VAR: Nuttall-Strand recursion (multivariate Burg variant minimizing
  forward and backward prediction errors simultaneously, stable by
  construction) with Hannan-Quinn order selection.
* VMA / VARMA: two-step least squares.  A long VAR prewhitening fit
  provides innovation estimates ``eps(n)``; the MA (and AR) blocks are
  then regressed with the zero-lag MA block pinned to the identity.

Fitted MA parts are steered toward minimum phase: if the two-step
regression lands outside the invertibility region (which happens when
the generator itself is nonminimum-phase), the MA polynomial is replaced
by a Wilson factorization of its spectrum, the minimum-phase counterpart
that any second-order method can identify anyway.  That swap is inexact
next to the unit circle and can leave a zero outside it (see
:func:`_ensure_minimum_phase`).
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .models import (
    BLOCK_BYTES,
    COND_LIMIT,
    FrequencyGrid,
    SpectralMatrix,
    VarmaModel,
    eval_ma_polynomial,
    ar_root_report,
    ma_root_report,
)
from .simulate import TimeSeriesPanel, _check_panel

__all__ = ["FitReport", "fit_var", "fit_vma", "fit_varma"]

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


def _lattice_stages(x: np.ndarray):
    """Nuttall-Strand stages ``(ar_blocks, residual_cov)`` for p = 0, 1, 2, ..., lazily.

    ``x`` stacks R equal-shaped panels as ``(R, N, n_samp)``; stage p is
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
    ``C_{j-i}``, the full-range lag products ``C_k = Σ_s x(s + k) x(s)ᵀ``
    (``C_{-k} = C_kᵀ``), and ``E`` holds the zero-padded windows ``X(t)``
    at ``t = 0..m-1`` and ``t = n_samp..n_samp+m-1`` that the full range
    adds.  ``T`` is never formed, and ``E`` is built from the samples once
    (see :func:`_edge_windows`), so ``W E`` is one product on a view of it.
    ``W T`` is carried along with ``W``: the update ``[[I, -A_m], [-B_m, I]]``
    maps both to the next order, and each row gains one block,
    ``[I, -A_m] W`` times ``[C_{m+1}; ...; C_1]`` and ``[-B_m, I] W`` times
    ``[C_1ᵀ; ...; C_{m+1}ᵀ]``.  The lag product is the only pass over the
    samples, so a stage costs O(N² n_samp + m N³ + m² N²) where filtering
    the data would take three O(N² n_samp) products.  ``W`` and ``W T``
    share a buffer pair, the backward row one block to the right of the
    forward row.  The operators hold orders up to a capacity of 64; when a
    stage passes it, the capacity doubles and ``E`` is rebuilt for it.
    The AR blocks are read off the forward filter.

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
    r, n, n_samp = x.shape
    eye = np.eye(n)
    update = np.tile(np.eye(2 * n), (r, 1, 1))  # [[I, -A_m], [-B_m, I]] per panel
    c0 = x @ x.swapaxes(1, 2)
    P = np.broadcast_to((c0 / n_samp)[:, None], (r, 2, n, n)).copy()
    yield np.zeros((r, 0, n, n)), P[:, 0]
    cap = 64  # the highest order the operators hold
    lags = np.zeros((r, (2 * cap + 1) * n, n))  # C_k in block cap - k, for k = -cap..cap
    lags[:, cap * n : (cap + 1) * n] = c0
    # [W, W T] per panel, twice: the pair axis leads, so matmul writes in place
    filters = np.zeros((2, r, 2, 2 * n, (cap + 2) * n))
    filters[0, :, 0, :n, :n] = filters[0, :, 0, n:, n : 2 * n] = eye
    filters[0, :, 1, :n, :n] = filters[0, :, 1, n:, n : 2 * n] = c0
    edges = _edge_windows(x, cap)
    m = 0
    while True:
        m += 1
        if m >= n_samp:
            # the lag product C_m needs m < n_samp; a negative slice stop would wrap
            raise NumericalError(f"Nuttall-Strand stage {m} is past order n_s - 1 = {n_samp - 1}")
        if m > cap:
            lags = np.pad(lags, ((0, 0), (cap * n, cap * n), (0, 0)))
            filters = np.pad(filters, ((0, 0),) * 4 + ((0, cap * n),))
            cap *= 2
            edges = _edge_windows(x, cap)
        width = (m + 1) * n
        w, wt = filters[(m - 1) % 2, :, 0], filters[(m - 1) % 2, :, 1]
        lag = lags[:, (cap - m) * n : (cap - m + 1) * n]
        np.matmul(x[:, :, m:], x[:, :, : n_samp - m].swapaxes(1, 2), out=lag)  # C_m
        lags[:, (cap + m) * n : (cap + m + 1) * n] = lag.swapaxes(1, 2)
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


class _LatticeGroup:
    """One Nuttall-Strand lattice over a stack of equal-shaped panels' data, extended on demand.

    The group holds the data, never a panel: each member panel holds
    ``(group, index)`` in its memo, so the group lives as long as the last
    memo that holds it.  A failed stage spends the group, and only
    :func:`_nuttall_strand` takes it out of a member's memo, on that
    member's next fit.
    """

    def __init__(self, data: np.ndarray):
        self._lock = threading.Lock()
        self._gen = _lattice_stages(data)
        self._stages = [[] for _ in data]  # per member, [(ar_blocks, residual_cov)]

    def __len__(self) -> int:
        return len(self._stages)

    def stages(self, index: int, p_max: int) -> list:
        """Member ``index``'s stages for p = 0..p_max, extending the lattice as needed."""
        with self._lock:
            if self._gen is None:
                raise NumericalError("a stage failed in another panel of this lattice group")
            try:
                while len(self._stages[index]) <= p_max:
                    ar, cov = next(self._gen)
                    for own, ar_i, cov_i in zip(self._stages, ar, cov):
                        own.append((ar_i, cov_i))
            except BaseException:
                self._gen = None  # the generator is spent
                raise
            return self._stages[index][: p_max + 1]


def _join_lattice(panels) -> None:
    """Let equal-shaped ``panels`` share one Nuttall-Strand lattice (see :func:`_nuttall_strand`)."""
    data = [panel.data for panel in panels]
    # a lone panel is viewed, not copied; Monte Carlo runs group only short panels
    group = _LatticeGroup(np.stack(data) if len(data) > 1 else data[0][None])
    for index, panel in enumerate(panels):
        with panel._lock:
            panel._memo["lattice"] = (group, index)


def _nuttall_strand(panel: TimeSeriesPanel, p_max: int) -> list:
    """Stages ``[(ar_blocks, residual_cov)]`` for p = 0..p_max (see :func:`_lattice_stages`).

    The lattice and its stages are memoised on the panel, so every fit
    of one panel (VAR order sweep and long-VAR prewhitening alike)
    continues one lattice instead of restarting it; stages are identical
    either way.  Panels joined by :func:`_join_lattice` share one lattice
    group and extend it together, one batched stage for all of them; a
    panel fitted alone is a group of one.  A stage reads the samples only
    through one lag product per member; what a member keeps between stages
    is its filters, the lag products and the edge windows ``E``, about
    ``660 N² + 8320 N`` doubles for any p up to 64 and any n_s (154 KB at
    N = 2, 133 KB of it ``E``).  A Monte Carlo run groups
    ``max(1, 8192 // (N n_s))`` realizations, four on example 1 at
    n_s = 1024.  In five rounds of the benchmark's mc-ex1-short workload
    (32 realizations a call, 1 BLAS thread) groups of 4, 16 and 32 took a
    median 0.270, 0.244 and 0.224 s a call, gaps smaller than the quartile
    spread of groups of four (0.259-0.345 s), while peak RSS rose from 44.5
    to 46.2 and 48.8 MB, before ``E`` added its 133 KB a member; so the
    smallest group stays.

    A stage that fails spends its group for every member.  Each member's
    own next fit, under its own lock, drops the spent group from its memo
    and continues on a lattice of its own, through the same code with
    R = 1, so only the panel whose stage fails raises.  A group of one
    re-raises; its lattice has left the memo, so a retry fails the same
    way.  Any other exception drops the group the same way and
    propagates, from a group of any size.
    """
    with panel._lock:
        while True:
            if "lattice" not in panel._memo:
                _join_lattice([panel])
            group, index = panel._memo["lattice"]
            try:
                return group.stages(index, p_max)
            except BaseException as exc:
                del panel._memo["lattice"]  # any failure spends the group
                if len(group) == 1 or not isinstance(exc, NumericalError):
                    raise


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

    The result is not guaranteed to be minimum-phase.  Wilson's fixed
    point creeps near a zero on the unit circle, and grid truncation
    does the rest: on example 1 at n_s = 1024, seeds 56003 and 56015, the
    largest MA root goes from 1.000138 to 1.003363 and from 1.000091 to
    1.004099, further outside than before the swap.
    """
    q = ma_blocks.shape[0] - 1
    probe = VarmaModel(np.zeros((0,) + sigma.shape), ma_blocks, sigma)
    report = ma_root_report(probe)
    if report.roots.size == 0 or np.max(report.magnitudes) <= 1.0 + 1e-6:
        return ma_blocks, sigma

    # looked up at call time, so a wrapper installed on spectralgc.wilson (as
    # bench/tracing.py installs to count minimum-phase swaps) sees this call
    from .wilson import wilson_factorize

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


def _normal_equations(x: np.ndarray, eps: np.ndarray, p: int, q: int):
    """``(Z Zᵀ, Z Yᵀ)`` of the two-step regression ``Y ~ C Z`` over ``t >= t0``.

    Column ``t`` of ``Z`` stacks ``x(t - 1..p)`` and ``eps(t - 1..q)``, and
    ``Y(t) = x(t) - eps(t)``; ``eps`` is the long-VAR residual sequence,
    which starts ``off = n_s - len(eps)`` samples into ``x``, and ``t0 = off
    + max(p, q)`` is the first sample where every lag exists.

    Both products are accumulated over blocks of ``max(1, BLOCK_BYTES //
    (8 N (p + q)))`` samples, so the regressors held at once stay within
    ``BLOCK_BYTES`` (256 KiB) whatever the panel length: the first block
    assigns both products and each later block adds to them.  A window
    that fits in one block (the VMA(1) fits of example 1 at any n_s up to
    16384) gives products bit-identical to one product over the whole
    window; across blocks only the summation order changes.
    """
    n, n_samp = x.shape
    off = n_samp - eps.shape[1]
    t0 = off + max(p, q)
    step = max(1, BLOCK_BYTES // (8 * n * (p + q)))
    for a in range(t0, n_samp, step):
        b = min(a + step, n_samp)
        Y = x[:, a:b] - eps[:, a - off : b - off]
        blocks = [x[:, a - r : b - r] for r in range(1, p + 1)]
        blocks += [eps[:, a - off - s : b - off - s] for s in range(1, q + 1)]
        Z = np.concatenate(blocks, axis=0)
        if a == t0:
            ZZt, ZYt = Z @ Z.T, Z @ Y.T
        else:
            ZZt += Z @ Z.T
            ZYt += Z @ Y.T
    return ZZt, ZYt


def _fit_two_step(panel: TimeSeriesPanel, p: int, q: int, long_ar_order: int) -> FitReport:
    """Two-step VARMA(p, q) fit of a checked panel; ``p = 0`` is the VMA(q) fit.

    Least squares ``x(n) - eps(n) ~ C z(n)``, with ``z(n)`` the lags
    ``x(n - 1..p)`` and ``eps(n - 1..q)`` (AR blocks first in ``C``), over
    the samples where every lag exists; ``eps`` starts at ``long_ar_order``.
    The normal equations come from :func:`_normal_equations`, in blocks
    of ``BLOCK_BYTES`` (256 KiB) of regressors.  A window that fits in one
    block gives a fit bit-identical to one product over the whole window.
    On example 2 at n_s = 16384, where the fits take several blocks, the
    mean tPDC MSEs of 8 runs of 4 realizations moved from those of a
    one-product fit by at most 1.1e-13 relative for VARMA(2, 2) and 4.1e-15
    for VMA(20).
    """
    x = panel.data
    n = x.shape[0]
    eps = _long_var_residuals(panel, long_ar_order)
    ZZt, ZYt = _normal_equations(x, eps, p, q)
    if np.linalg.cond(ZZt) > COND_LIMIT:
        raise NumericalError("regressor matrix is numerically rank deficient")
    C = np.linalg.solve(ZZt, ZYt).T
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

    ``q = 0`` is not an ordinary least-squares VAR(p) fit: the AR blocks
    regress ``x(n) - eps(n)`` on the p lags of ``x`` over
    ``n >= long_ar_order + p``, and ``Σ`` is the covariance of the long-VAR
    residuals ``eps``.
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
