"""Krylov-subspace approximation of matrix-exponential-vector products.

The core routine tridiagonalizes a symmetric operator against a start vector
via the three-term recurrence (optionally with full reorthogonalization),
then evaluates exp on the small tridiagonal matrix.  Exponentials are always
taken after subtracting the top Ritz value so that large spectra cannot
overflow; the scalar is reapplied multiplicatively, or dropped entirely in
normalized mode for callers that only need the direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import ConvergenceError, as_operator

#: Calibration constant in front of the sqrt(M log(nM/(eps delta))) iteration rule.
DEFAULT_K0 = 4.0

#: Relative threshold below which an off-diagonal is treated as exact breakdown.
BREAKDOWN_RTOL = 1e-12

#: log(float64 max); exp arguments are clamped here to avoid overflow to inf.
EXP_CLAMP = 709.0


@dataclass
class LanczosDecomposition:
    """Orthonormal Krylov basis and tridiagonal coefficients.

    ``basis`` is n-by-j with ``basis[:, 0] = b/||b||``; ``alphas`` (length j)
    and ``betas`` (length j-1) are the tridiagonal diagonal/off-diagonal.
    ``terminated_early`` flags a breakdown (off-diagonal vanished) before the
    requested iteration count.
    """

    basis: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    input_norm: float
    terminated_early: bool

    @property
    def iterations(self):
        return len(self.alphas)

    def tridiagonal(self):
        j = self.iterations
        t = np.diag(self.alphas)
        if j > 1:
            t += np.diag(self.betas, 1) + np.diag(self.betas, -1)
        return t


def lanczos_decompose(a, b, k, reorthogonalize=True):
    """Run k iterations of symmetric Lanczos on operator ``a`` from vector ``b``.

    Stops early only when the new off-diagonal vanishes (the Krylov space is
    exhausted).  Requests with ``k > n`` are clamped to ``n``.  Raises on a
    zero start vector, and raises :class:`ConvergenceError` naming the
    iteration index if non-finite values appear.
    """
    op = as_operator(a)
    n = op.n
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"expected start vector of length {n}, got shape {b.shape}")
    input_norm = float(np.linalg.norm(b))
    if input_norm == 0.0:
        raise ValueError("start vector must be nonzero")
    if k < 1:
        raise ValueError("iteration count must be >= 1")
    k = min(int(k), n)

    basis = np.empty((n, k))
    alphas = np.empty(k)
    betas = np.empty(max(k - 1, 0))
    q_prev = np.zeros(n)
    q = b / input_norm
    basis[:, 0] = q
    beta_prev = 0.0
    scale = 1.0
    terminated = False
    j = 1
    for i in range(k):
        w = op.matvec(q)
        w_norm = float(np.linalg.norm(w))
        # a NaN or inf entry makes the norm non-finite; only then is the scan
        # needed, to tell it apart from finite entries whose squares overflow
        if not math.isfinite(w_norm) and not np.all(np.isfinite(w)):
            raise ConvergenceError(f"non-finite values at iteration {i + 1}")
        scale = max(scale, w_norm)
        w = w - beta_prev * q_prev
        alpha = float(w @ q)
        w = w - alpha * q
        if reorthogonalize:
            # two Gram-Schmidt passes keep the basis orthonormal to roundoff
            for _ in range(2):
                w -= basis[:, : i + 1] @ (basis[:, : i + 1].T @ w)
        alphas[i] = alpha
        j = i + 1
        if i == k - 1:
            break
        beta = float(np.linalg.norm(w))
        if not math.isfinite(beta):
            raise ConvergenceError(f"non-finite values at iteration {i + 1}")
        if beta <= BREAKDOWN_RTOL * scale:
            terminated = True
            break
        betas[i] = beta
        q_prev = q
        q = w / beta
        basis[:, i + 1] = q
        beta_prev = beta

    return LanczosDecomposition(
        basis=basis[:, :j].copy(),
        alphas=alphas[:j].copy(),
        betas=betas[: j - 1].copy(),
        input_norm=input_norm,
        terminated_early=terminated,
    )


def ritz_values(dec):
    """Eigenvalues of the tridiagonal matrix of a decomposition, ascending."""
    if dec.iterations == 1:
        return dec.alphas.copy()
    return scipy.linalg.eigvalsh_tridiagonal(dec.alphas, dec.betas)


def _tridiagonal_eigh(dec):
    if dec.iterations == 1:
        return dec.alphas.copy(), np.ones((1, 1))
    return scipy.linalg.eigh_tridiagonal(dec.alphas, dec.betas)


def expm_multiply(a, b, k, reorthogonalize=True, normalized=False):
    """Approximate ``exp(a) @ b`` from k Krylov iterations.

    The tridiagonal eigenvalues are exponentiated after subtracting their
    maximum; the scalar ``exp(max)`` is reapplied multiplicatively (clamped at
    the float64 overflow threshold).  With ``normalized=True`` the scalar is
    dropped and the result equals ``exp(a - max I) @ b`` restricted to the
    Krylov space, which callers that renormalize anyway should prefer.
    """
    dec = lanczos_decompose(a, b, k, reorthogonalize=reorthogonalize)
    theta, v = _tridiagonal_eigh(dec)
    shift = float(theta.max())
    coeff = v @ (np.exp(theta - shift) * v[0, :])
    y = dec.basis @ (dec.input_norm * coeff)
    if normalized:
        return y
    return y * math.exp(min(shift, EXP_CLAMP))


def required_iterations(op_norm_bound, epsilon, delta, n, k0=DEFAULT_K0):
    """Krylov depth sufficient for an epsilon-accurate sketched projection.

    Returns ``ceil(k0 * sqrt(M * log(n M / (epsilon delta))))`` with
    ``M = max(op_norm_bound, log(n/(epsilon delta)), 1)``.  At this depth the
    rank-1 projection built from the approximate exponential is within
    ``epsilon`` trace-norm distance of the exact one with probability at
    least ``1 - delta`` over the uniform sphere draw.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if op_norm_bound < 0.0:
        raise ValueError("operator norm bound must be nonnegative")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    m = max(float(op_norm_bound), math.log(n / (epsilon * delta)), 1.0)
    k = math.ceil(k0 * math.sqrt(m * math.log(n * m / (epsilon * delta))))
    return max(int(k), 1)
