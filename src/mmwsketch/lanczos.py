"""Krylov-subspace approximation of matrix-exponential-vector products.

The core routine tridiagonalizes a symmetric operator against a start vector
by Lanczos with full reorthogonalization, then evaluates exp on the small
tridiagonal matrix.  An iteration is one matvec and two classical
Gram-Schmidt sweeps against the whole basis; the sweeps' coefficients on the
newest basis vector sum to the tridiagonal diagonal entry, and their
coefficients on the one before take out the three-term recurrence's
off-diagonal term with the rest.  Exponentials are always
taken after subtracting the top Ritz value so that large spectra cannot
overflow; the scalar is reapplied multiplicatively (an overflow there raises),
or dropped entirely in normalized mode for callers that only need the direction.

Given an error budget ``tol``, the recurrence stops as soon as Saad's a
posteriori estimate of the relative error of ``exp(A) b`` (Saad, SIAM J.
Numer. Anal. 1992) is at most ``tol``; the requested depth is then a cap.
The estimate is the first term of an error expansion, not a certified bound.
"""

import math

import numpy as np

from .linalg import ConvergenceError, as_operator, tridiagonal_eigh

#: Calibration constant in front of the sqrt(M log(nM/(eps delta))) iteration rule.
DEFAULT_K0 = 4.0

#: Relative threshold below which an off-diagonal is treated as exact breakdown.
BREAKDOWN_RTOL = 1e-12


class LanczosDecomposition:
    """One symmetric Lanczos run with full reorthogonalization, grown an iteration at a time.

    The run keeps its orthonormal basis one vector a row, so that a
    Gram-Schmidt sweep is one product with a contiguous ``j x n`` block; the
    basis rows and the tridiagonal coefficients sit in buffers that double
    when full.  After j iterations ``basis`` is the n-by-j view of the first
    j rows, with ``basis[:, 0] = b/||b||``, and ``alphas`` (length j) and
    ``betas`` (length j-1) are views of the tridiagonal diagonal and
    off-diagonal.  ``terminated_early`` flags a breakdown (off-diagonal
    vanished) before the requested iteration count.  Runs with an error
    budget also carry the estimate at the stop (``error_estimate``) and, from
    that check, the pair ``(c, theta_max)`` of the final tridiagonal matrix
    ``T``, where ``c = exp(T - theta_max I) e_1`` and ``theta_max`` is its
    top eigenvalue (``exp_e1``); both are ``None`` for fixed-depth runs.
    """

    def __init__(self, op, b, capacity):
        """An unstarted run of the :class:`SparseSymOperator` ``op`` from ``b``, with room for ``capacity`` rows."""
        n = op.n
        # contiguous, so that b @ b runs the dot kernel np.linalg.norm does
        b = np.ascontiguousarray(b, dtype=float)
        if b.shape != (n,):
            raise ValueError(f"expected start vector of length {n}, got shape {b.shape}")
        self.input_norm = math.sqrt(b @ b)
        if self.input_norm == 0.0:
            raise ValueError("start vector must be nonzero")
        self._op = op
        self._rows = np.empty((capacity, n))
        np.divide(b, self.input_norm, out=self._rows[0])
        self._alphas = np.empty(capacity)
        self._betas = np.empty(capacity)
        self.iterations = 0
        self.terminated_early = False
        self.error_estimate = None
        self.exp_e1 = None

    @property
    def basis(self):
        return self._rows[: self.iterations].T

    @property
    def alphas(self):
        return self._alphas[: self.iterations]

    @property
    def betas(self):
        return self._betas[: max(self.iterations - 1, 0)]

    def _grow(self, k, last_beta):
        """Run iterations 1..k, yielding ``(j, beta, breakdown)`` after iteration j.

        ``beta`` is the norm of the new residual: resuming stores it in
        ``betas[j-1]`` and the residual's direction in basis row j.  After
        iteration k it is computed only with ``last_beta``, and is ``None``
        otherwise.  ``breakdown`` flags a ``beta`` of at most
        ``BREAKDOWN_RTOL`` times the largest matvec norm so far, which ends the
        run.  Raises :class:`ConvergenceError` naming the iteration if a
        matvec or ``beta`` is not finite.
        """
        matvec, rows, alphas, betas = self._op.matvec, self._rows, self._alphas, self._betas
        scale = 1.0
        for i in range(k):
            j = i + 1
            w = matvec(rows[i])
            w_norm = math.sqrt(w @ w)
            # a NaN or inf entry makes the norm non-finite; only then is the scan
            # needed, to tell it apart from finite entries whose squares overflow
            if not math.isfinite(w_norm) and not np.all(np.isfinite(w)):
                raise ConvergenceError(f"non-finite values at iteration {j}")
            scale = max(scale, w_norm)
            # two classical Gram-Schmidt sweeps, whose coefficients on rows[i] sum to alpha; the
            # first makes a new w, since an operator may return its input or a buffer it keeps
            block = rows[:j]
            h = block @ w
            w = w - h @ block
            h2 = block @ w
            w -= h2 @ block
            alphas[i] = h[i] + h2[i]
            self.iterations = j
            if j == k and not last_beta:
                yield j, None, False
                return
            beta = math.sqrt(w @ w)
            if not math.isfinite(beta):
                raise ConvergenceError(f"non-finite values at iteration {j}")
            breakdown = beta <= BREAKDOWN_RTOL * scale
            self.terminated_early = breakdown and j < k
            yield j, beta, breakdown
            if breakdown or j == k:
                return
            if j == len(alphas):
                more = min(j, k - j)
                self._rows = rows = np.concatenate([rows, np.empty((more, rows.shape[1]))])
                self._alphas = alphas = np.concatenate([alphas, np.empty(more)])
                self._betas = betas = np.concatenate([betas, np.empty(more)])
            betas[i] = beta
            np.divide(w, beta, out=rows[j])

    def expm(self, normalized=False):
        """Krylov approximation of ``exp(a) @ b`` from this decomposition.

        The tridiagonal eigenvalues are exponentiated after subtracting their
        maximum; the scalar ``exp(max)`` is reapplied multiplicatively, or
        dropped with ``normalized=True``.  Raises ``OverflowError`` when the
        scalar or the scaled vector is not finite in float64.  Reuses ``c``
        and ``theta_max`` of the last error check.
        """
        c, theta_max = self.exp_e1 or _exp_e1(*tridiagonal_eigh(self.alphas, self.betas))
        y = self.basis @ (self.input_norm * c)
        if not normalized:
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
    clamped to ``n``.  Returns the grown run.  Raises on a zero start vector,
    and raises :class:`ConvergenceError` naming the iteration index if
    non-finite values appear.
    """
    op = as_operator(a)
    if k < 1:
        raise ValueError("iteration count must be >= 1")
    k = min(int(k), op.n)
    run = LanczosDecomposition(op, b, k)
    if tol is None:
        for _ in run._grow(k, last_beta=False):
            pass
        return run
    # a run of capacity k never outgrows its coefficient buffers
    alphas, betas = run._alphas, run._betas
    for j, beta, breakdown in run._grow(k, last_beta=True):
        # Saad's estimate beta |c_j| / ||c||: with c = V s and V orthogonal, ||c|| = ||s|| and c_j is
        # one row of V times s, so c itself is formed only at the stop
        theta, v = tridiagonal_eigh(alphas[:j], betas[: j - 1])
        s = np.exp(theta - theta[-1]) * v[0]
        estimate = beta * abs(float(v[-1] @ s)) / math.sqrt(s @ s)
        if estimate <= tol or breakdown or j == k:
            run.error_estimate = estimate
            run.exp_e1 = v @ s, float(theta[-1])
            break
    return run


def _exp_e1(theta, v):
    """``(exp(T - theta_max I) e_1, theta_max)`` from the eigenpairs ``(theta, v)`` of T, ``theta`` ascending."""
    return v @ (np.exp(theta - theta[-1]) * v[0, :]), float(theta[-1])


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
