"""VARMA model core: containers, polynomial evaluation, roots, spectra.

A model is

    x(n) = sum_r A_r x(n - r) + sum_s B_s w(n - s),    cov w = sigma

with ``r = 1..p`` and ``s = 0..q``.  The matrix polynomials evaluated on
the unit circle are ``A(nu) = I - sum_r A_r exp(-i 2 pi nu r)`` and
``B(nu) = sum_s B_s exp(-i 2 pi nu s)``, giving the transfer function
``H = A^{-1} B`` and spectral matrix ``S = H sigma H^H``, held on the
one-sided band of a :class:`FrequencyGrid`.  The roots of
``det A(z)`` and ``det B(z)`` are companion-matrix eigenvalues.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularFrequencyError

__all__ = [
    "FrequencyGrid",
    "SpectralMatrix",
    "SpectralFactor",
    "VarmaModel",
    "RootReport",
    "eval_ar_polynomial",
    "eval_ma_polynomial",
    "transfer_function",
    "theoretical_spectrum",
    "ar_root_report",
    "ma_root_report",
    "innovation_form",
]

#: condition number above which a matrix is treated as singular and not solved with
COND_LIMIT = 1e12

#: bytes of work one streamed block may hold: the segments of a Welch batch,
#: the Python floats and text of a block of CSV table rows
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class FrequencyGrid:
    """The closed one-sided band ``nu_k = k / n_points``, ``k = 0 .. n_points/2``.

    ``n_points`` is the FFT length and must be even, so the band ends
    exactly at the Nyquist frequency ``nu = 1/2``.  A real process has
    ``S(-nu) = conj S(nu)``, and so do its factors and fields, so these
    ``n_points/2 + 1`` frequencies determine them on the whole circle and
    are the only ones any spectral array holds.
    """

    n_points: int

    def __post_init__(self):
        if self.n_points < 2 or self.n_points % 2 != 0:
            raise ConfigError(
                f"frequency grid needs an even number of points >= 2, got {self.n_points}"
            )

    @property
    def one_sided_count(self) -> int:
        """Number of points in the closed band [0, 1/2]."""
        return self.n_points // 2 + 1

    @property
    def values(self) -> np.ndarray:
        """The grid frequencies in [0, 1/2]."""
        return np.arange(self.one_sided_count) / self.n_points


def _stacked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of small matrices, as real products; the result is complex.

    numpy's complex ``@`` makes one ``zgemm`` call per matrix of a stack,
    and at N = 2-7 that call's overhead outweighs its arithmetic; the real
    matmul loop is several times cheaper.  So ``a`` is read as its
    interleaved ``(re, im)`` float view and every entry ``x + iy`` of ``b``
    becomes the real block ``[[x, y], [-y, x]]``, whose two rows are the
    float views of ``x + iy`` and ``i (x + iy)``: the real product of these
    is ``a @ b`` again in interleaved form.  A real ``a`` needs no blocks:
    it multiplies the float view of ``b`` as it is, and a real ``a``
    without stack axes (one ``sigma`` for every frequency) multiplies the
    whole stack of ``b``, laid side by side, in one product.  A real ``b``
    is the transposed product ``(bᵀ aᵀ)ᵀ``, returned as that transposed
    view.  Any leading axes of ``a`` and ``b`` are stack axes, broadcast
    as ``@`` broadcasts them.
    """
    if not np.iscomplexobj(b):
        a_t = np.swapaxes(a, -1, -2).astype(complex, copy=False)  # two real operands recurse once
        return _stacked_matmul(np.swapaxes(b, -1, -2), a_t).swapaxes(-1, -2)
    if not np.iscomplexobj(a):
        a = np.asarray(a, dtype=float)
        if a.ndim > 2:
            return (a @ np.ascontiguousarray(b, dtype=complex).view(float)).view(complex)
        # the rows of every matrix of b side by side: (k, stack..., m) in one product
        b_side = np.ascontiguousarray(np.moveaxis(b, -2, 0), dtype=complex)
        out = (a @ b_side.view(float).reshape(b_side.shape[0], -1)).view(complex)
        return np.moveaxis(out.reshape((a.shape[0],) + b_side.shape[1:]), 0, -2)
    *stack, k, m = b.shape
    rows = np.empty((*stack, k, 2, m), dtype=complex)
    rows[..., 0, :] = b
    np.multiply(b, 1j, out=rows[..., 1, :])
    a_real = np.ascontiguousarray(a, dtype=complex).view(float)
    return (a_real @ rows.view(float).reshape(*stack, 2 * k, 2 * m)).view(complex)


def _check_leading_axis(values: np.ndarray, grid: FrequencyGrid, what: str) -> None:
    F, n1, n2 = values.shape
    if F != grid.one_sided_count or n1 != n2:
        raise ConfigError(
            f"{what} shape {values.shape} does not match the one-sided grid "
            f"of {grid.one_sided_count} points"
        )


def _write_rows(fh, n_rows: int, row_values: int, block) -> None:
    """Write ``n_rows`` CSV rows of ``row_values`` numbers each, in bounded blocks.

    ``block(a, b)`` returns the ``%`` format of rows ``a .. b - 1`` and the
    numbers it takes, in order; each block is written with one ``%``.  A
    number in flight is a Python float (24 bytes), its slots in a list and
    a tuple (8 bytes each) and up to 24 characters of text, so a block of
    ``BLOCK_BYTES // (64 row_values)`` rows (at least one) holds at most
    about ``BLOCK_BYTES``, whatever the size of the table.
    """
    step = max(1, BLOCK_BYTES // (64 * row_values))
    for a in range(0, n_rows, step):
        fmt, numbers = block(a, min(a + step, n_rows))
        fh.write(fmt % tuple(numbers))


def _read_rows(path, what: str, **loadtxt_kwargs) -> tuple:
    """The header fields and the rows of the comma-separated table at ``path``.

    The rows after the header are read as a 2-d array by numpy's
    ``loadtxt`` with ``loadtxt_kwargs``.  An unreadable file, a malformed
    row and a table without rows raise ``ConfigError`` naming the
    ``what`` (``"panel file"``, ...) at ``path``.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            header = fh.readline().strip().split(",")
            # an empty table is reported below, not as numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, **loadtxt_kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if rows.size == 0:
        raise ConfigError(f"{path}: no data rows after the header")
    return header, rows


@dataclass
class SpectralMatrix:
    """Spectral density matrix sampled on the one-sided grid.

    ``values`` has shape ``(grid.one_sided_count, N, N)`` and is
    Hermitian at every frequency.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        _check_leading_axis(self.values, self.grid, "spectral matrix")

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass
class SpectralFactor:
    """Left spectral factor ``H`` with innovation covariance ``sigma``.

    Reconstructs the spectrum as ``S(nu) = H(nu) sigma H(nu)^H``.  Factors
    produced by the factorization routine and by :func:`innovation_form`
    carry the zero-lag identity normalization (the lag-0 coefficient of
    ``H`` is the identity); :func:`transfer_function` returns whatever
    normalization the model's MA part implies.
    """

    grid: FrequencyGrid
    values: np.ndarray
    sigma: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.sigma = np.asarray(self.sigma, dtype=float)
        _check_leading_axis(self.values, self.grid, "spectral factor")
        if self.sigma.shape != self.values.shape[1:]:
            raise ConfigError("spectral factor shapes are inconsistent")

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def spectrum(self) -> SpectralMatrix:
        """Reassemble ``S = H sigma H^H`` on the factor's grid."""
        H = self.values
        S = _stacked_matmul(_stacked_matmul(H, self.sigma), H.conj().transpose(0, 2, 1))
        return SpectralMatrix(self.grid, S)


def _as_blocks(blocks, n_channels: int, what: str) -> np.ndarray:
    arr = np.asarray(blocks, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, n_channels, n_channels)
    if arr.ndim != 3 or arr.shape[1:] != (n_channels, n_channels):
        raise ConfigError(
            f"{what} blocks must have shape (k, {n_channels}, {n_channels}), got {arr.shape}"
        )
    return arr


def _blocks_field(d: dict, name: str, n: int, default) -> np.ndarray:
    """``d[name]`` as ``(k, n, n)`` blocks; a ragged or wrongly sized list raises ``ConfigError``."""
    value = d.get(name)
    try:
        return np.asarray(default if value is None else value, dtype=float).reshape(-1, n, n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model description field {name!r}: cannot read {n}x{n} blocks: {exc}") from exc


@dataclass
class VarmaModel:
    """VARMA(p, q) parameter container.

    Parameters
    ----------
    ar_blocks : array_like, shape (p, N, N)
        Coefficients ``A_1 .. A_p``.  Empty for a pure MA model.
    ma_blocks : array_like, shape (q + 1, N, N)
        Coefficients ``B_0 .. B_q``; ``B_0`` must be invertible.  A pure
        AR model uses the single block ``B_0 = I``.
    innovations_cov : array_like, shape (N, N)
        Symmetric positive definite covariance of the driving noise.
    """

    ar_blocks: np.ndarray
    ma_blocks: np.ndarray
    innovations_cov: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.innovations_cov, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ConfigError(f"innovations_cov must be square, got shape {sigma.shape}")
        n = sigma.shape[0]
        if np.max(np.abs(sigma - sigma.T)) > 1e-12 * max(1.0, np.max(np.abs(sigma))):
            raise ConfigError("innovations_cov must be symmetric")
        if np.min(np.linalg.eigvalsh(sigma)) <= 0:
            raise ConfigError("innovations_cov must be positive definite")
        self.innovations_cov = 0.5 * (sigma + sigma.T)
        self.ar_blocks = _as_blocks(self.ar_blocks, n, "AR")
        self.ma_blocks = _as_blocks(self.ma_blocks, n, "MA")
        if self.ma_blocks.shape[0] == 0:
            self.ma_blocks = np.eye(n)[None]
        if abs(np.linalg.det(self.ma_blocks[0])) < 1e-12:
            raise ConfigError("leading MA block B_0 must be invertible")

    @property
    def n_channels(self) -> int:
        return self.innovations_cov.shape[0]

    @property
    def ar_order(self) -> int:
        return self.ar_blocks.shape[0]

    @property
    def ma_order(self) -> int:
        return self.ma_blocks.shape[0] - 1

    def to_dict(self) -> dict:
        d = {"n_channels": self.n_channels}
        if self.ar_order > 0:
            d["ar"] = self.ar_blocks.tolist()
        if self.ma_order > 0 or not np.array_equal(self.ma_blocks[0], np.eye(self.n_channels)):
            d["ma"] = self.ma_blocks.tolist()
        d["sigma"] = self.innovations_cov.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VarmaModel":
        try:
            n = int(d["n_channels"])
            sigma = np.asarray(d["sigma"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"model description missing/invalid field: {exc}") from exc
        ar = _blocks_field(d, "ar", n, [])
        ma = _blocks_field(d, "ma", n, np.eye(n)[None])
        return cls(ar, ma, sigma)

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load_json(cls, path) -> "VarmaModel":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ConfigError(f"cannot read model file {path}: {exc}") from exc
        return cls.from_dict(d)

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON form (for output metadata)."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _lag_polynomial(blocks: np.ndarray, nu) -> np.ndarray:
    """``sum_s blocks[s] exp(-i 2 pi nu s)`` for scalar or 1-d ``nu``.

    One product of the ``(F, s)`` phase matrix with the stacked blocks.
    """
    nu_arr = np.atleast_1d(np.asarray(nu, dtype=float))
    n_lags = blocks.shape[0]
    phase = np.exp((-2j * np.pi * nu_arr)[:, None] * np.arange(n_lags))
    out = _stacked_matmul(phase, blocks.reshape(n_lags, -1)).reshape((nu_arr.size,) + blocks.shape[1:])
    return out[0] if np.ndim(nu) == 0 else out


def eval_ar_polynomial(model: VarmaModel, nu) -> np.ndarray:
    """Evaluate ``A(nu) = I - sum_r A_r exp(-i 2 pi nu r)``.

    ``nu`` may be a scalar or 1-d array; returns ``(N, N)`` or ``(F, N, N)``.
    """
    return _lag_polynomial(np.concatenate([np.eye(model.n_channels)[None], -model.ar_blocks]), nu)


def eval_ma_polynomial(model: VarmaModel, nu) -> np.ndarray:
    """Evaluate ``B(nu) = sum_s B_s exp(-i 2 pi nu s)`` (same shapes as above)."""
    return _lag_polynomial(model.ma_blocks, nu)


def transfer_function(model: VarmaModel, grid: FrequencyGrid) -> SpectralFactor:
    """Transfer function ``H(nu_k) = A(nu_k)^{-1} B(nu_k)`` on the one-sided grid.

    ``A`` is inverted once, as one batched inverse: the inverse gives the
    1-norm condition number that the ``COND_LIMIT`` check reads (as
    ``numpy.linalg.cond(A, 1)`` computes it) and ``H = A^{-1} B``.  A pure
    VAR (``B = I``) returns that inverse, bit-identical to ``solve(A, I)``,
    and a pure VMA returns ``B``; neither evaluates the polynomial it
    does not read.

    Raises
    ------
    SingularFrequencyError
        If ``A(nu_k)`` is ill conditioned at some grid point.
    """
    if model.ar_order == 0:
        H = eval_ma_polynomial(model, grid.values)
    else:
        A = eval_ar_polynomial(model, grid.values)
        try:
            A_inv = np.linalg.inv(A)
            conds = np.linalg.norm(A, 1, axis=(1, 2)) * np.linalg.norm(A_inv, 1, axis=(1, 2))
        except np.linalg.LinAlgError:
            conds = np.linalg.cond(A, 1)  # inf where singular
        if np.any(conds > COND_LIMIT):
            k = int(np.argmax(conds))
            raise SingularFrequencyError(
                f"AR polynomial nearly singular at nu={grid.values[k]:.6f} "
                f"(cond={conds[k]:.2e})"
            )
        pure_var = model.ma_order == 0 and np.array_equal(model.ma_blocks[0], np.eye(model.n_channels))
        H = A_inv if pure_var else _stacked_matmul(A_inv, eval_ma_polynomial(model, grid.values))
    return SpectralFactor(grid, H, model.innovations_cov)


def theoretical_spectrum(model: VarmaModel, grid: FrequencyGrid) -> SpectralMatrix:
    """Model-implied spectral matrix ``S = H sigma H^H`` on the one-sided grid."""
    return transfer_function(model, grid).spectrum()


@dataclass(frozen=True)
class RootReport:
    """Roots of ``det A(z)`` or ``det B(z)`` with their magnitudes.

    ``roots`` are in the z-plane (delay operator ``z^{-1}``), sorted by
    decreasing magnitude.  They are the eigenvalues of the block companion
    matrix of the polynomial above 1e-10 in magnitude; smaller ones are
    structural zeros.  The stability/phase conventions:

    * AR part is *stable* when every root satisfies ``|z| < 1 - 1e-9``;
    * MA part is *minimum-phase* when every root satisfies ``|z| <= 1 + 1e-9``.
    """

    roots: np.ndarray
    magnitudes: np.ndarray
    classification: str


_STRUCTURAL_ZERO = 1e-10


def _companion_roots(first_row: np.ndarray) -> np.ndarray:
    """Roots in z of ``det(I - sum_k C_k z^{-k})`` for ``first_row = C_1 .. C_m``.

    They are the nonzero eigenvalues of the block companion matrix
    (Lütkepohl 2005, sec. 2.1).  Its ``mN`` eigenvalues include one at
    ``z = 0`` for every degree the determinant lacks as a polynomial in
    ``z^{-1}`` (rank-deficient ``C_m``, constant determinant); computed,
    they land at rounding level (below 1e-13 on random models up to
    N = 7), hence the cutoff.
    """
    m, n, _ = first_row.shape
    if m == 0:
        return np.array([], dtype=complex)
    companion = np.eye(m * n, k=-n)
    companion[:n] = first_row.transpose(1, 0, 2).reshape(n, m * n)
    eig = np.linalg.eigvals(companion)
    roots = eig[np.abs(eig) > _STRUCTURAL_ZERO]
    order = np.lexsort((np.angle(roots), -np.abs(roots)))
    return roots[order]


def ar_root_report(model: VarmaModel) -> RootReport:
    """Roots of ``det A(z)`` (companion first block row ``A_1 .. A_p``), stable or not."""
    roots = _companion_roots(model.ar_blocks)
    mags = np.abs(roots)
    stable = roots.size == 0 or np.all(mags < 1.0 - 1e-9)
    return RootReport(roots, mags, "stable" if stable else "unstable")


def ma_root_report(model: VarmaModel) -> RootReport:
    """Roots of ``det B(z)`` (companion first block row ``-B_0^{-1} B_s``), minimum-phase or not."""
    B0_inv = np.linalg.inv(model.ma_blocks[0])
    roots = _companion_roots(-(B0_inv @ model.ma_blocks[1:]))
    mags = np.abs(roots)
    minphase = roots.size == 0 or np.all(mags <= 1.0 + 1e-9)
    return RootReport(roots, mags, "minimum-phase" if minphase else "nonminimum-phase")


def innovation_form(model: VarmaModel) -> VarmaModel:
    """Equivalent model with ``B_0 = I`` (innovation normalization).

    Replaces ``B_s -> B_s B_0^{-1}`` and ``sigma -> B_0 sigma B_0^T``,
    which leaves the spectrum unchanged.  Connectivity references should
    always be computed from this form so that parametric and
    factorization-based estimates share one normalization.
    """
    B0 = model.ma_blocks[0]
    if np.array_equal(B0, np.eye(model.n_channels)):
        return model
    B0_inv = np.linalg.inv(B0)
    ma = model.ma_blocks @ B0_inv
    sigma = B0 @ model.innovations_cov @ B0.T
    return VarmaModel(model.ar_blocks, ma, 0.5 * (sigma + sigma.T))
