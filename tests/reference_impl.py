"""Independent reference implementation for cross-checking the package.

Everything in this module is deliberately written with explicit
per-frequency loops and scalar sums, sharing no intermediate routines
with the package under test: transfer functions are assembled entry by
entry, the spectrum is inverted directly (instead of using
G^H sigma^{-1} G), and the measures follow their entrywise definitions.
Agreement between this code and the package is therefore a meaningful
check rather than a tautology.
"""

import itertools

import numpy as np


def ar_matrix(ar_blocks, nu):
    """A(nu) = I - sum_r A_r exp(-i 2 pi nu r), one frequency at a time."""
    n = ar_blocks[0].shape[0] if len(ar_blocks) else None
    out = np.eye(n, dtype=complex)
    for r in range(1, len(ar_blocks) + 1):
        phase = np.exp(-2j * np.pi * nu * r)
        for i in range(n):
            for j in range(n):
                out[i, j] -= ar_blocks[r - 1][i][j] * phase
    return out


def ma_matrix(ma_blocks, nu):
    """B(nu) = sum_s B_s exp(-i 2 pi nu s)."""
    n = len(ma_blocks[0])
    out = np.zeros((n, n), dtype=complex)
    for s in range(len(ma_blocks)):
        phase = np.exp(-2j * np.pi * nu * s)
        for i in range(n):
            for j in range(n):
                out[i, j] += ma_blocks[s][i][j] * phase
    return out


def transfer_at(ar_blocks, ma_blocks, sigma, nu):
    """H(nu) = A^{-1} B for the innovation-normalized (B_0 = I) system."""
    ar, ma, sigma = canonical_parameters(ar_blocks, ma_blocks, sigma)
    n = sigma.shape[0]
    B = ma_matrix(ma, nu) if len(ma) else np.eye(n, dtype=complex)
    if len(ar):
        H = np.linalg.inv(ar_matrix(ar, nu)) @ B
    else:
        H = B
    return H, sigma


def canonical_parameters(ar_blocks, ma_blocks, sigma):
    """Innovation form: divide the MA polynomial by B_0, fold B_0 into sigma."""
    ar = np.asarray(ar_blocks, dtype=float)
    ma = np.asarray(ma_blocks, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if len(ma) == 0:
        return ar, ma, sigma
    B0 = ma[0]
    B0_inv = np.linalg.inv(B0)
    ma_new = np.array([Bs @ B0_inv for Bs in ma])
    return ar, ma_new, B0 @ sigma @ B0.T


def spectral_matrix_at(ar_blocks, ma_blocks, sigma, nu):
    """S(nu) = H sigma H^H by explicit double sum."""
    H, sig = transfer_at(ar_blocks, ma_blocks, sigma, nu)
    n = sig.shape[0]
    S = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                for l in range(n):
                    acc += H[i, k] * sig[k, l] * np.conj(H[j, l])
            S[i, j] = acc
    return S


def coherency_at(ar_blocks, ma_blocks, sigma, nu):
    S = spectral_matrix_at(ar_blocks, ma_blocks, sigma, nu)
    n = S.shape[0]
    C = np.zeros_like(S)
    for i in range(n):
        for j in range(n):
            C[i, j] = S[i, j] / np.sqrt(S[i, i].real * S[j, j].real)
    return C


def gamma_at(ar_blocks, ma_blocks, sigma, nu):
    """Gamma_ij = H_ij sqrt(sigma_jj) / sqrt(S_ii)."""
    H, sig = transfer_at(ar_blocks, ma_blocks, sigma, nu)
    S = spectral_matrix_at(ar_blocks, ma_blocks, sigma, nu)
    n = sig.shape[0]
    G = np.zeros_like(H)
    for i in range(n):
        for j in range(n):
            G[i, j] = H[i, j] * np.sqrt(sig[j, j]) / np.sqrt(S[i, i].real)
    return G


def tdtf_at(ar_blocks, ma_blocks, sigma, nu):
    """Entrywise Gamma .* conj(Gamma) + (Gamma rho) .* conj(Gamma)."""
    G = gamma_at(ar_blocks, ma_blocks, sigma, nu)
    _, sig = transfer_at(ar_blocks, ma_blocks, sigma, nu)
    n = sig.shape[0]
    rho = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                rho[i, j] = sig[i, j] / np.sqrt(sig[i, i] * sig[j, j])
    out = np.zeros_like(G)
    for i in range(n):
        for j in range(n):
            grho = 0.0 + 0.0j
            for k in range(n):
                grho += G[i, k] * rho[k, j]
            out[i, j] = G[i, j] * np.conj(G[i, j]) + grho * np.conj(G[i, j])
    return out


def dc_at(ar_blocks, ma_blocks, sigma, nu):
    """Squared directed coherence |Gamma_ij|^2."""
    G = gamma_at(ar_blocks, ma_blocks, sigma, nu)
    return (G * np.conj(G)).real


def pi_at(ar_blocks, ma_blocks, sigma, nu):
    """Pi_ij = sqrt((sigma^{-1})_ii) G_ij sqrt(S_jj), G = H^{-1}."""
    H, sig = transfer_at(ar_blocks, ma_blocks, sigma, nu)
    S = spectral_matrix_at(ar_blocks, ma_blocks, sigma, nu)
    G = np.linalg.inv(H)
    sig_inv = np.linalg.inv(sig)
    n = sig.shape[0]
    out = np.zeros_like(G)
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sqrt(sig_inv[i, i]) * G[i, j] * np.sqrt(S[j, j].real)
    return out


def tpdc_at(ar_blocks, ma_blocks, sigma, nu):
    """Entrywise Pi~ .* conj(Pi~) + (Rt Pi~ - Pi~) .* conj(Pi~).

    Pi~ is the column-normalized pi factor, with the normalizer taken
    from the directly inverted spectrum: Pi~_ij = sqrt((sigma^{-1})_ii)
    G_ij / sqrt((S^{-1})_jj).  This is an independent route to the same
    quantity the package computes from G^H sigma^{-1} G.
    """
    H, sig = transfer_at(ar_blocks, ma_blocks, sigma, nu)
    S = spectral_matrix_at(ar_blocks, ma_blocks, sigma, nu)
    G = np.linalg.inv(H)
    sig_inv = np.linalg.inv(sig)
    S_inv = np.linalg.inv(S)
    n = sig.shape[0]
    rt = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            rt[i, j] = sig_inv[i, j] / np.sqrt(sig_inv[i, i] * sig_inv[j, j])
    pit = np.zeros_like(G)
    for i in range(n):
        for j in range(n):
            pit[i, j] = np.sqrt(sig_inv[i, i]) * G[i, j] / np.sqrt(S_inv[j, j].real)
    out = np.zeros_like(G)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += rt[i, k] * pit[k, j]
            out[i, j] = np.conj(pit[i, j]) * acc
    return out


def gpdc_at(ar_blocks, ma_blocks, sigma, nu):
    """(sigma^{-1})_ii |G_ij|^2 / sum_k (sigma^{-1})_kk |G_kj|^2."""
    H, sig = transfer_at(ar_blocks, ma_blocks, sigma, nu)
    G = np.linalg.inv(H)
    sig_inv = np.linalg.inv(sig)
    n = sig.shape[0]
    out = np.zeros((n, n))
    for j in range(n):
        den = 0.0
        for k in range(n):
            den += sig_inv[k, k] * abs(G[k, j]) ** 2
        for i in range(n):
            out[i, j] = sig_inv[i, i] * abs(G[i, j]) ** 2 / den
    return out


# Benchmark system parameters, restated here independently of the package.

def example1_parameters():
    ar = np.zeros((0, 2, 2))
    ma = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
    sigma = np.array([[1.0, 1.0], [1.0, 5.0]])
    return ar, ma, sigma


def example2_parameters():
    r, theta = 0.95, np.pi / 3.0
    ar = np.array(
        [
            [[2 * r * np.cos(theta), 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.7]],
            [[-(r**2), 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        ]
    )
    ma = np.array(
        [
            [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        ]
    )
    return ar, ma, np.eye(3)


def example4_parameters():
    ar = np.zeros((0, 2, 2))
    ma = np.array(
        [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [0.0, 0.0]], [[4.0, 2.0], [0.0, 2.0]]]
    )
    sigma = np.array([[1.0, 1.0], [1.0, 5.0]])
    return ar, ma, sigma


ALL_EXAMPLE_PARAMETERS = {
    1: example1_parameters,
    2: example2_parameters,
    4: example4_parameters,
}


def simulate_per_sample(ar_blocks, ma_blocks, sigma, n_samples, seed, burn_in):
    """Per-sample VARMA recursion: same draws and coloring as the package, one step at a time."""
    ar = np.asarray(ar_blocks, dtype=float)
    ma = np.asarray(ma_blocks, dtype=float)
    n = ma.shape[1]
    p, q = ar.shape[0], ma.shape[0] - 1
    total = burn_in + n_samples
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    w = rng.standard_normal((total + q, n)) @ chol.T  # w[k] is innovation at time k - q
    x = np.zeros((total, n))
    for s in range(q + 1):
        x += w[q - s : q - s + total] @ ma[s].T
    for t in range(total):
        acc = x[t]
        for r in range(1, min(p, t) + 1):
            acc = acc + ar[r - 1] @ x[t - r]
        x[t] = acc
    return x[burn_in:].T


def save_field_csv_rows(fields, path):
    """Field CSV writer, one formatted row per (frequency, i, j) entry."""
    with open(path, "w") as fh:
        fh.write("nu,i,j,re,im,kind,method\n")
        for f in fields:
            n = f.n_channels
            for k, nu in enumerate(f.frequencies):
                for i in range(n):
                    for j in range(n):
                        v = complex(f.values[k, i, j])
                        fh.write(
                            f"{nu:.17g},{i + 1},{j + 1},{v.real:.17g},{v.imag:.17g},"
                            f"{f.kind},{f.method_tag}\n"
                        )


def det_polynomial_leibniz(entry_coeffs):
    """Determinant of a matrix polynomial by the Leibniz expansion over all N! permutations.

    ``entry_coeffs[k, i, j]`` is the coefficient of ``w^k`` in entry
    ``(i, j)``, with ``w = z^{-1}`` the delay variable.  Returns the
    coefficients of ``det`` in increasing powers of ``w``.
    """
    n = entry_coeffs.shape[1]
    det = np.zeros((entry_coeffs.shape[0] - 1) * n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = np.array([1.0])
        for i in range(n):
            term = np.convolve(term, entry_coeffs[:, i, perm[i]])
        det[: term.size] += (-1.0) ** inversions * term
    return det


def roots_leibniz(entry_coeffs):
    """Roots in z of the determinant of a matrix polynomial in ``w = z^{-1}``.

    Trailing zero coefficients of the Leibniz determinant are trimmed and
    the polynomial in ``w`` is handed to ``np.roots``.  Exact only when
    the determinant's true degree shows as exactly zero coefficients.
    """
    coeffs = np.trim_zeros(det_polynomial_leibniz(entry_coeffs)[::-1], "f")
    if coeffs.size <= 1:
        return np.array([], dtype=complex)
    return 1.0 / np.roots(coeffs)


def nuttall_strand_blocks(x, p_max):
    """Nuttall-Strand stages ``[(ar_blocks, residual_cov)]`` for p = 0..p_max, one block at a time.

    The Levinson update runs over the coefficient blocks one matrix
    product at a time, the three correlations are three separate Grams of
    separately stored forward and backward errors, and the Sylvester
    equation goes to ``scipy.linalg.solve_sylvester`` (Bartels-Stewart).
    """
    from scipy.linalg import solve_sylvester

    n, n_samp = x.shape
    ef = eb = np.ascontiguousarray(x)
    pf = x @ x.T / n_samp
    pb = pf.copy()
    fwd, bwd = [], []
    stages = [([], pf.copy())]
    for m in range(1, p_max + 1):
        f = ef[:, 1:]
        b = eb[:, :-1]
        pfh = f @ f.T
        pbh = b @ b.T
        pfbh = f @ b.T
        rho = solve_sylvester(pfh @ np.linalg.inv(pf), np.linalg.inv(pb) @ pbh, 2.0 * pfbh)
        a_m = rho @ np.linalg.inv(pb)
        b_m = rho.T @ np.linalg.inv(pf)
        fwd, bwd = (
            [fwd[r] - a_m @ bwd[m - 2 - r] for r in range(m - 1)] + [a_m],
            [bwd[r] - b_m @ fwd[m - 2 - r] for r in range(m - 1)] + [b_m],
        )
        pf = (np.eye(n) - a_m @ b_m) @ pf
        pb = (np.eye(n) - b_m @ a_m) @ pb
        pf = 0.5 * (pf + pf.T)
        pb = 0.5 * (pb + pb.T)
        ef, eb = f - a_m @ b, b - b_m @ f
        stages.append(([a.copy() for a in fwd], pf.copy()))
    return stages


def two_sided(x):
    """Full ``F``-point grid of a one-sided ``(F/2 + 1, ...)`` array, by ``x(-nu) = conj x(nu)``."""
    return np.concatenate([x, x[1:-1][::-1].conj()])


def wilson_two_sided(S, tol=1e-6, max_iter=500):
    """Wilson factorization over the full two-sided grid: ``(H, sigma, iterations)``.

    ``S`` is a ``(F, N, N)`` spectrum array on the full grid (see
    :func:`two_sided`).  Every batched inverse,
    product and FFT runs over all ``F`` points, although for a real
    process the points above ``F/2`` mirror those below; the factor's lag
    0 is the real part of the grid mean.  The positive-definiteness check
    and the error types of the package are left out.
    """
    F, n = S.shape[0], S.shape[1]

    def causal_part(g):
        lags = np.fft.ifft(g, axis=0)
        lags[0] *= 0.5
        lags[F // 2 :] = 0.0
        return np.fft.fft(lags, axis=0)

    S_mean = 0.5 * (S.mean(axis=0) + S.mean(axis=0).conj().T)
    eye = np.eye(n)
    psi = np.broadcast_to(np.linalg.cholesky(S_mean.real + 1e-14 * eye), (F, n, n)).astype(complex).copy()

    for iteration in range(1, max_iter + 1):
        psi_inv = np.linalg.inv(psi)
        g = psi_inv @ S @ psi_inv.conj().transpose(0, 2, 1) + eye[None]
        psi_new = psi @ causal_part(g)
        delta = np.max(np.abs(psi_new - psi)) / np.max(np.abs(psi))
        psi = psi_new
        if delta < tol:
            break
    else:
        raise RuntimeError(f"no convergence in {max_iter} iterations")

    psi0 = psi.mean(axis=0).real
    H = psi @ np.linalg.inv(psi0)[None]
    sigma = psi0 @ psi0.T
    return H, sigma, iteration
