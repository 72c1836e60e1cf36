"""Panel simulation from a VARMA model, plus panel file I/O.

Panels are stored channels-by-samples (shape ``(N, n_samples)``).  The
CSV layout is one row per sample with columns ``t, x1, .., xN`` and a
JSON sidecar (same stem, ``.json`` suffix) recording how the panel was
generated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegeneratePanelError, UnstableModelError
from .models import VarmaModel, _read_rows, _write_rows, ar_root_report

__all__ = ["TimeSeriesPanel", "simulate", "save_panel_csv", "load_panel_csv"]

DEFAULT_BURN_IN = 1000
#: samples per block of the AR recursion in :func:`simulate` (raised to p when p is larger)
BLOCK_LEN = 64


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """Multichannel sample panel with optional provenance metadata.

    The panel owns a read-only, C-ordered float copy of ``data``, which
    a pickled copy rebuilds through the constructor.  A panel holds no
    other state: the estimators keep nothing on it between fits.  It
    compares and hashes by identity.
    """

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        data = np.array(self.data, dtype=float, order="C")
        if data.ndim != 2:
            raise ConfigError(f"panel data must be 2-d (channels x samples), got {data.ndim}-d")
        # per-channel extremes propagate nan and +-inf with no N x n_s temporary;
        # ``initial`` keeps a panel without samples valid
        finite = np.isfinite(data.min(axis=1, initial=0.0)) & np.isfinite(data.max(axis=1, initial=0.0))
        if not finite.all():
            raise ConfigError(f"channel x{int(np.argmin(finite)) + 1} has a non-finite sample (nan or inf)")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def __reduce__(self):
        return type(self), (self.data, self.meta)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def _check_panel(panel: TimeSeriesPanel) -> None:
    """Raise ``DegeneratePanelError`` naming the first constant channel: nothing can be fitted.

    Not a constructor check: a 1-sample panel, which :func:`simulate` can
    draw, is constant in every channel.
    """
    # exact for a constant channel, whose variance can round to a tiny positive
    # number (1.9e-34 for 0.1), and no N x n_s temporary
    x = panel.data
    constant = x.min(axis=1) == x.max(axis=1)
    if np.any(constant):
        ch = int(np.argmax(constant)) + 1
        raise DegeneratePanelError(f"channel x{ch} has zero variance; nothing to fit")


def simulate(model: VarmaModel, n_samples: int, seed: int, burn_in: int = DEFAULT_BURN_IN) -> TimeSeriesPanel:
    """Draw one realization of the model.

    Gaussian innovations are generated with ``default_rng(seed)`` and
    colored by the lower Cholesky factor of the innovation covariance.
    The recursion starts from zeros and the first ``burn_in`` samples are
    discarded so the retained block is effectively stationary.

    The MA part is applied to the whole record at once.  The AR
    recursion then runs over blocks of ``L = max(BLOCK_LEN, p)`` samples
    (see :func:`_ar_block_operators`): every block's zero-state response
    comes from one matrix product for all blocks, and only the carry of
    the previous block's last ``p`` outputs is a loop.  This sums in a
    different order than a per-sample recursion; the two agree to about
    1e-15 relative to ``max |x|`` (measured: 6.2e-16 on example 2 at
    n_s = 16384, 1.4e-15 over random stable VAR(p) models with N = 1..7,
    p = 1..4).

    Raises
    ------
    ConfigError
        If ``n_samples`` is below 1, or ``burn_in`` or ``seed`` is negative.
    UnstableModelError
        If the AR part of ``model`` is not stable.
    """
    if n_samples < 1:
        raise ConfigError(f"n_samples must be positive, got {n_samples}")
    for name, value in (("burn_in", burn_in), ("seed", seed)):
        if value < 0:
            raise ConfigError(f"{name} must be non-negative, got {value}")
    report = ar_root_report(model)
    if report.classification != "stable":
        worst = report.magnitudes.max()
        raise UnstableModelError(
            f"cannot simulate: AR root magnitude {worst:.6f} not inside the unit circle"
        )

    n = model.n_channels
    p, q = model.ar_order, model.ma_order
    total = burn_in + n_samples
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(model.innovations_cov)
    w = rng.standard_normal((total + q, n)) @ chol.T  # w[k] is innovation at time k - q

    # MA part first (vectorized over time), then the AR recursion by blocks.
    L = max(BLOCK_LEN, p)
    n_blocks = -(-total // L)
    x = np.zeros((n_blocks * L, n))
    for s, B_s in enumerate(model.ma_blocks):
        x[:total] += w[q - s : q - s + total] @ B_s.T
    if p > 0:
        toeplitz, carry = _ar_block_operators(model.ar_blocks, L)
        blocks = x.reshape(n_blocks, L * n) @ toeplitz.T  # zero-state responses
        for k in range(1, n_blocks):
            blocks[k] += carry @ blocks[k - 1, (L - p) * n :]
        x = blocks.reshape(n_blocks * L, n)

    meta = {"seed": int(seed), "burn_in": int(burn_in), "model_hash": model.content_hash()}
    return TimeSeriesPanel(x[burn_in:total].T, meta)


def _ar_block_operators(ar_blocks: np.ndarray, L: int):
    """Operators of ``x(t) = sum_r A_r x(t - r) + u(t)`` over one block of L >= p samples.

    With a block's inputs and outputs flattened time-major (``u(t0 + j)``
    at rows ``j N .. j N + N - 1``) its outputs are ``toeplitz @ u_block +
    carry @ state``, where ``state`` is the previous ``p`` outputs
    ``x(t0 - p) .. x(t0 - 1)`` flattened the same way.  ``toeplitz`` is
    block lower triangular with the impulse responses ``Psi_0 .. Psi_{L-1}``
    on its block diagonals.  Both come from running the recursion once
    on an impulse and on every unit initial state.
    """
    p, n, _ = ar_blocks.shape
    # hist[p + j] is the response at lag j: impulse columns first, then the p*n state columns.
    hist = np.zeros((p + L, n, n + p * n))
    hist[:p, :, n:] = np.eye(p * n).reshape(p, n, p * n)
    hist[p, :, :n] = np.eye(n)
    for j in range(L):
        for r in range(1, p + 1):
            hist[p + j] += ar_blocks[r - 1] @ hist[p + j - r]
    psi = hist[p:, :, :n]
    toeplitz = np.zeros((L, n, L, n))
    for j in range(L):
        toeplitz[j:, :, j, :] = psi[: L - j]
    return toeplitz.reshape(L * n, L * n), hist[p:, :, n:].reshape(L * n, p * n)


def save_panel_csv(panel: TimeSeriesPanel, path) -> None:
    """Write ``t, x1, .., xN`` rows plus the JSON metadata sidecar."""
    path = Path(path)
    n = panel.n_channels
    row = "%d" + ",%.17g" * n + "\n"

    def block(a, b):
        return row * (b - a), np.column_stack([np.arange(a, b), panel.data[:, a:b].T]).ravel().tolist()

    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
        _write_rows(fh, panel.n_samples, n + 1, block)
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(panel.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_panel_csv(path) -> TimeSeriesPanel:
    """Read a panel CSV written by :func:`save_panel_csv` (sidecar optional)."""
    path = Path(path)
    header, rows = _read_rows(path, "panel file")
    if header[:1] != ["t"] or any(not c.startswith("x") for c in header[1:]):
        raise ConfigError(f"{path}: expected header 't,x1,..,xN', got {header!r}")
    if rows.shape[1] != len(header):
        raise ConfigError(f"{path}: row width {rows.shape[1]} does not match header")
    meta = {}
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        try:
            with open(sidecar) as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ConfigError(f"cannot read panel sidecar {sidecar}: {exc}") from exc
        if not isinstance(meta, dict):
            raise ConfigError(f"{sidecar}: panel sidecar must hold a JSON object, got {type(meta).__name__}")
    return TimeSeriesPanel(rows[:, 1:].T, meta)
