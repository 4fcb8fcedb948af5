"""Krylov-subspace approximation of matrix-exponential-vector products.

The core routine tridiagonalizes a symmetric operator against a start vector
via the three-term recurrence with full reorthogonalization, then evaluates
exp on the small tridiagonal matrix.  Exponentials are always
taken after subtracting the top Ritz value so that large spectra cannot
overflow; the scalar is reapplied multiplicatively (an overflow there raises),
or dropped entirely in normalized mode for callers that only need the direction.

Given an error budget ``tol``, the recurrence stops as soon as Saad's a
posteriori estimate of the relative error of ``exp(A) b`` (Saad, SIAM J.
Numer. Anal. 1992) is at most ``tol``; the requested depth is then a cap.
The estimate is the first term of an error expansion, not a certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ConvergenceError, as_operator, tridiagonal_eigh

#: Calibration constant in front of the sqrt(M log(nM/(eps delta))) iteration rule.
DEFAULT_K0 = 4.0

#: Relative threshold below which an off-diagonal is treated as exact breakdown.
BREAKDOWN_RTOL = 1e-12


@dataclass
class LanczosDecomposition:
    """Orthonormal Krylov basis and tridiagonal coefficients.

    ``basis`` is n-by-j with ``basis[:, 0] = b/||b||``; ``alphas`` (length j)
    and ``betas`` (length j-1) are the tridiagonal diagonal/off-diagonal.
    ``terminated_early`` flags a breakdown (off-diagonal vanished) before the
    requested iteration count.  Runs with an error budget also carry the
    estimate at the stop (``error_estimate``) and the eigenpairs of the
    final tridiagonal matrix from that check (``ritz``); both are ``None``
    for fixed-depth runs.
    """

    basis: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    input_norm: float
    terminated_early: bool
    error_estimate: float | None = None
    ritz: tuple | None = None

    @property
    def iterations(self):
        return len(self.alphas)

    def expm(self, normalized=False):
        """Krylov approximation of ``exp(a) @ b`` from this decomposition.

        The tridiagonal eigenvalues are exponentiated after subtracting their
        maximum; the scalar ``exp(max)`` is reapplied multiplicatively, or
        dropped with ``normalized=True``.  Raises ``OverflowError`` when the
        scalar or the scaled vector is not finite in float64.  Reuses the
        eigenpairs of the last error check.
        """
        theta, v = self.ritz if self.ritz is not None else tridiagonal_eigh(self.alphas, self.betas)
        y = self.basis @ (self.input_norm * _shifted_exp_e1(theta, v))
        if not normalized:
            theta_max = float(theta.max())
            try:
                with np.errstate(over="raise"):
                    y = y * math.exp(theta_max)
            except (OverflowError, FloatingPointError):
                raise OverflowError(
                    f"exp(a) @ b overflows float64 (top Ritz value {theta_max:.6g}); use normalized=True"
                ) from None
        return y


def lanczos_decompose(a, b, k, tol=None):
    """Run k iterations of symmetric Lanczos on operator ``a`` from vector ``b``.

    Without ``tol``, stops early only when the new off-diagonal vanishes (the
    Krylov space is exhausted).  With ``tol``, also stops after iteration j
    once the relative error estimate ``beta_j |c_j| / ||c||`` of the Krylov
    approximation of ``exp(a) b``, where ``c = exp(T_j - theta_max I) e_1``,
    is at most ``tol``; k is then the cap.  Requests with ``k > n`` are
    clamped to ``n``.  Raises on a zero start vector, and raises
    :class:`ConvergenceError` naming the iteration index if non-finite values
    appear.
    """
    op = as_operator(a)
    n = op.n
    # contiguous, so that b @ b runs the dot kernel np.linalg.norm does
    b = np.ascontiguousarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"expected start vector of length {n}, got shape {b.shape}")
    input_norm = math.sqrt(b @ b)
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
    estimate = ritz = None
    j = 1
    for i in range(k):
        w = op.matvec(q)
        w_norm = math.sqrt(w @ w)
        # a NaN or inf entry makes the norm non-finite; only then is the scan
        # needed, to tell it apart from finite entries whose squares overflow
        if not math.isfinite(w_norm) and not np.all(np.isfinite(w)):
            raise ConvergenceError(f"non-finite values at iteration {i + 1}")
        scale = max(scale, w_norm)
        w = w - beta_prev * q_prev
        alpha = float(w @ q)
        w = w - alpha * q
        # two Gram-Schmidt passes keep the basis orthonormal to roundoff
        for _ in range(2):
            w -= basis[:, : i + 1] @ (basis[:, : i + 1].T @ w)
        alphas[i] = alpha
        j = i + 1
        if j == k and tol is None:
            break
        beta = math.sqrt(w @ w)
        if not math.isfinite(beta):
            raise ConvergenceError(f"non-finite values at iteration {i + 1}")
        breakdown = beta <= BREAKDOWN_RTOL * scale
        if tol is not None:
            ritz = tridiagonal_eigh(alphas[:j], betas[: j - 1])
            estimate = _error_estimate(beta, *ritz)
            if estimate <= tol or j == k:
                terminated = breakdown and j < k
                break
        if breakdown:
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
        error_estimate=estimate,
        ritz=ritz,
    )


def _shifted_exp_e1(theta, v):
    """``exp(T - theta_max I) e_1`` from the eigenpairs ``(theta, v)`` of T."""
    return v @ (np.exp(theta - theta.max()) * v[0, :])


def _error_estimate(beta, theta, v):
    """Saad's relative error estimate ``beta |c_j| / ||c||`` with ``c = exp(T - theta_max I) e_1``."""
    c = _shifted_exp_e1(theta, v)
    return beta * abs(float(c[-1])) / math.sqrt(c @ c)


def expm_multiply(a, b, k):
    """Approximate ``exp(a) @ b`` from k Krylov iterations (fewer only on breakdown).

    Raises ``OverflowError`` when the product is not finite in float64;
    callers that only need the direction use
    ``lanczos_decompose(a, b, k).expm(normalized=True)``.
    """
    return lanczos_decompose(a, b, k).expm()


def required_iterations(op_norm_bound, epsilon, delta, n):
    """Krylov depth sufficient for an epsilon-accurate sketched projection.

    Returns ``ceil(k0 * sqrt(M * log(n M / (epsilon delta))))`` with
    ``k0 = DEFAULT_K0`` and ``M = max(op_norm_bound, log(n/(epsilon delta)), 1)``.
    At this depth the rank-1 projection built from the approximate
    exponential is within ``epsilon`` trace-norm distance of the exact one
    with probability at least ``1 - delta`` over the uniform sphere draw.
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
    k = math.ceil(DEFAULT_K0 * math.sqrt(m * math.log(n * m / (epsilon * delta))))
    return max(int(k), 1)
