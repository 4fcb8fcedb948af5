"""Symmetric linear algebra, seeded randomness, and spectrum utilities.

Everything downstream (Krylov exponentials, spectrahedron projections, the
online game, the SDP solver) builds on the types and samplers defined here.
Dense work is delegated to LAPACK through numpy and scipy; only the
operator-form plumbing and the samplers are hand-rolled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

#: Largest dimension for which dense eigendecompositions are allowed.
DENSE_LIMIT = 2048

#: Relative stability of the extreme Ritz values at which Lanczos estimates stop above the dense limit.
LANCZOS_RTOL = 1e-8

_EPS = float(np.finfo(float).eps)
#: 2x2 minors of a rank-one ``fl(c b b')`` vanish to this relative rounding.
_MINOR_RTOL = 64.0 * _EPS
#: Squares below the smallest subnormal flush to zero, hiding at most ``n 2^-537`` of a Frobenius norm.
_UNDERFLOW_NORM = 2.0**-537


class LinalgError(Exception):
    """Base class for numerical failures raised by this package."""


class ConvergenceError(LinalgError):
    """An iterative or direct solver failed to converge."""


class DenseLimitError(ValueError):
    """Dense work was asked for at a dimension above :data:`DENSE_LIMIT`."""


def require_dense(n, what):
    """Raise :class:`DenseLimitError` naming ``what`` unless ``n <= DENSE_LIMIT``."""
    if n > DENSE_LIMIT:
        raise DenseLimitError(f"{what} requires n <= dense limit {DENSE_LIMIT}, got n = {n}")


def sym_array(a):
    """Coerce ``a`` to an exactly symmetric float ndarray.

    Accepts any square array-like whose asymmetry is below ``1e-8``
    relative to its magnitude.  The result satisfies ``out[i, j] == out[j, i]``
    bitwise.
    """
    arr = np.array(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    scale = 1.0 + np.abs(arr).max() if arr.size else 1.0
    if np.abs(arr - arr.T).max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (arr + arr.T)


class SparseSymOperator:
    """Symmetric linear operator exposed only through matrix-vector products.

    ``matvec_count`` tallies every application.  Derived operators made via
    :meth:`scaled` delegate to the parent's ``matvec``, so cost accounting
    accrues to the base operator as well.
    """

    def __init__(self, n, apply_fn, nnz_hint=None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = int(n)
        self._apply = apply_fn
        self.nnz_hint = int(nnz_hint) if nnz_hint is not None else self.n * self.n
        self.matvec_count = 0

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        self.matvec_count += 1
        return self._apply(v)

    @classmethod
    def from_dense(cls, a):
        arr = sym_array(a)
        return cls(arr.shape[0], lambda v: arr @ v, nnz_hint=np.count_nonzero(arr))

    def scaled(self, c):
        """Operator computing ``c * (self v)``; applications also count on self."""
        return SparseSymOperator(self.n, lambda v: c * self.matvec(v), nnz_hint=self.nnz_hint)


def as_operator(a):
    """A :class:`SparseSymOperator` as it is, or one for the dense symmetric ``a``."""
    if isinstance(a, SparseSymOperator):
        return a
    return SparseSymOperator.from_dense(a)


@dataclass
class EigenDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def top(self):
        """The largest eigenvalue."""
        return self.eigenvalues[0]


def dense_eigh(a):
    """Full symmetric eigendecomposition with eigenvalues sorted descending.

    Raises :class:`ConvergenceError` naming the matrix size if LAPACK fails,
    and :class:`DenseLimitError` above :data:`DENSE_LIMIT`.
    """
    arr = sym_array(a)
    n = arr.shape[0]
    require_dense(n, "dense eigendecomposition")
    try:
        lam, q = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigendecomposition failed for n={n}: {err}") from err
    return EigenDecomposition(lam[::-1].copy(), q[:, ::-1].copy())


def tridiagonal_eigh(d, e):
    """Eigenpairs (ascending) of the symmetric tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    Calls LAPACK ``stevd``, the routine that SciPy 1.17's ``eigh_tridiagonal``
    selects for all eigenpairs, directly: that wrapper's input validation
    costs several times the solve at the depths a Krylov error check runs.
    """
    if len(d) == 1:
        return d.copy(), np.ones((1, 1))
    theta, v, info = scipy.linalg.lapack.dstevd(d, e, compute_v=1)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolver failed for n={len(d)} (info={info})")
    return theta, v


@functools.lru_cache(maxsize=16)
def _sytrd_lwork(n):
    """Optimal ``dsytrd`` workspace for order n; the wrapper's default ``lwork=n`` runs the unblocked reduction."""
    work, info = scipy.linalg.lapack.dsytrd_lwork(n, lower=1)
    if info != 0:
        raise ConvergenceError(f"tridiagonal reduction workspace query failed for n={n} (info={info})")
    return max(1, int(work))


@dataclass
class TridiagonalForm:
    """Householder reduction ``Y = Q T Q'`` with the eigenpairs ``T = V diag(theta) V'``.

    ``reflectors`` and ``tau`` are the Householder vectors and scalars that
    LAPACK ``sytrd`` (lower storage) leaves below the subdiagonal: with them
    ``Q = diag(1, Q_1)``, where ``Q_1`` is the ``ormqr`` product of the
    reflector block.  ``eigenvalues`` (``theta``, ascending) and
    ``eigenvectors`` (the columns of ``V``) are those of ``T``.  Neither
    ``Q`` nor the eigenvectors of ``Y`` are formed: ``f(Y) x`` is
    ``Q V f(theta) V' Q' x``, two ``O(n^2)`` applications of ``Q``.
    """

    reflectors: np.ndarray
    tau: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def top(self):
        """The largest eigenvalue of T, which is that of Y."""
        return self.eigenvalues[-1]

    def apply_q(self, x, trans=False):
        """``Q x``, or ``Q' x`` with ``trans``, by one LAPACK ``ormqr`` call."""
        x = np.asarray(x, dtype=float)
        n = len(self.eigenvalues)
        if x.shape != (n,):
            raise ValueError(f"expected vector of length {n}, got shape {x.shape}")
        out = x.copy()
        if n > 1:
            tail, _, info = scipy.linalg.lapack.dormqr(
                "L", "T" if trans else "N", self.reflectors, self.tau, out[1:, None], 1, overwrite_c=1
            )
            if info != 0:
                raise ConvergenceError(f"applying the Householder reflectors failed for n={n} (info={info})")
            out[1:] = tail[:, 0]
        return out


def tridiagonalize(a):
    """The :class:`TridiagonalForm` of the symmetric ``a``: LAPACK ``sytrd``, then ``stevd`` on T.

    Costs the ``O(n^3)`` reduction and the tridiagonal eigensolve of a full
    eigendecomposition, without its ``O(n^3)`` back-transform of the
    eigenvectors.  Raises :class:`ConvergenceError` naming the matrix size if
    LAPACK fails, and :class:`DenseLimitError` above :data:`DENSE_LIMIT`.
    """
    arr = sym_array(a)
    n = arr.shape[0]
    require_dense(n, "tridiagonal reduction")
    # arr is an exactly symmetric copy, so arr.T is it in Fortran order and sytrd reduces it in place
    c, d, e, tau, info = scipy.linalg.lapack.dsytrd(arr.T, lower=1, lwork=_sytrd_lwork(n), overwrite_a=1)
    if info != 0:
        raise ConvergenceError(f"tridiagonal reduction failed for n={n} (info={info})")
    theta, v = tridiagonal_eigh(d, e)
    return TridiagonalForm(np.asfortranarray(c[1:, : n - 1]), tau, theta, v)


def spectrum_within(a, lo, hi):
    """Whether ``lo I <= a <= hi I`` for the symmetric ``a``, by two Cholesky factorizations.

    LAPACK ``potrf`` factors ``a - lo I`` and ``hi I - a``; both succeed only
    if every eigenvalue lies in ``[lo, hi]`` up to rounding of order
    ``n eps |a|``.  ``False`` means a factorization failed: an eigenvalue is
    outside or within rounding of an end, or an entry is not finite.  Callers
    that must tell these apart ask an eigensolver.  Reads the lower triangle
    of ``a``, as ``np.linalg.eigvalsh`` does.
    """
    n = a.shape[0]
    for shifted, shift in ((a.copy(), -lo), (-a, hi)):
        shifted.flat[:: n + 1] += shift
        # shifted.T is shifted in Fortran order: its upper triangle is shifted's lower one
        factor, info = scipy.linalg.lapack.dpotrf(shifted.T, lower=0, clean=0, overwrite_a=1)
        # OpenBLAS's potrf only rejects pivots <= 0, so a NaN pivot counts as a failure here
        if info != 0 or not np.isfinite(factor.diagonal()).all():
            return False
    return True


def rank_one_within(a, lo, hi):
    """Whether ``lo I <= a <= hi I`` is proved in ``O(n^2)`` by splitting the exactly symmetric ``a`` at a rank-one term.

    With the pivot ``i`` of the largest diagonal entry, ``b = a[:, i] / sqrt(a_ii)``
    and ``E = a - b b'``, Weyl's inequality puts the spectrum of ``a`` in
    ``[-|E|_2, |b|^2 + |E|_2]``, and ``|E|_2 <= |E|_F``.  That interval, widened
    by a bound on the rounding of ``E``, ``|E|_F`` and ``|b|^2``, must lie in
    ``[lo, hi]``.  ``True`` is a proof; ``False`` proves nothing, and callers
    then ask :func:`spectrum_within`.  A matrix far from rank one leaves after
    one 2x2 minor ``a_ii a_jj - a_ij^2``, which vanishes to rounding for a
    rank-one ``a``.  A non-finite pivot, ``|E|_F`` or ``|b|^2`` gives ``False``.
    """
    n = a.shape[0]
    diag = a.diagonal()
    i = int(diag.argmax())
    pivot = float(diag[i])
    if not 0.0 < pivot < math.inf:
        return False
    if n > 1:
        j = i - 1  # any other index: -1 is the last one
        ajj, aij = float(diag[j]), float(a[i, j])
        if abs(pivot * ajj - aij * aij) > _MINOR_RTOL * pivot * abs(ajj):
            return False
    b = a[:, i] / math.sqrt(pivot)
    b_sq = float(b @ b)
    if not b_sq < math.inf:  # a non-finite b would make inf - inf in E
        return False
    resid = np.multiply.outer(b, b)
    np.subtract(a, resid, out=resid)
    flat = resid.ravel()
    e_norm = math.sqrt(flat @ flat)
    # with u = eps / 2: the computed E is within about u |b|^2 of a - b b' in the Frobenius norm,
    # |E|_F and |b|^2 come out within (n^2 + 2) u and (n + 1) u relative, and each sum below
    # rounds once; the factors here are about twice that
    err = (1.0 + (n * n + 8) * _EPS) * e_norm + 4.0 * (n + 2) * _EPS * b_sq + n * _UNDERFLOW_NORM
    return lo <= -err and b_sq + err <= hi


def top_eigenvalue(a):
    """Largest eigenvalue of the symmetric dense or scipy-sparse ``a``, and its uncertainty.

    Returns ``(lam_max, tol)``.  At dense scale, ``n <= DENSE_LIMIT``, LAPACK
    ``syevr`` computes that one eigenvalue from the lower triangle of ``a``
    (densified if sparse) and ``tol`` is 0; it raises
    :class:`ConvergenceError` if ``syevr`` reports a failure.  Above it,
    ``lam_max`` is the Lanczos estimate of :func:`_lanczos_extremes` and
    ``tol = LANCZOS_RTOL * max(1, |lam_max|)``; stable Ritz values are an
    estimate, not a bound.
    """
    n = a.shape[0]
    if n > DENSE_LIMIT:
        lam_max = _lanczos_extremes(a)[1]
        return lam_max, LANCZOS_RTOL * max(1.0, abs(lam_max))
    if sp.issparse(a):
        a = a.toarray()
    w, _, _, _, info = scipy.linalg.lapack.dsyevr(a.T, compute_v=0, range="I", il=n, iu=n)
    if info != 0:
        raise ConvergenceError(f"top eigenvalue failed for n={n} (info={info})")
    return float(w[0]), 0.0


def operator_norm(a):
    """``max |lam_i|`` of the symmetric dense or scipy-sparse ``a``.

    Exact at dense scale, ``n <= DENSE_LIMIT`` (``np.linalg.eigvalsh`` of
    ``a``, densified if sparse), and the Lanczos estimate of
    :func:`_lanczos_extremes` above it.
    """
    if a.shape[0] > DENSE_LIMIT:
        lam_min, lam_max = _lanczos_extremes(a)
    else:
        lam = np.linalg.eigvalsh(a.toarray() if sp.issparse(a) else a)
        lam_min, lam_max = lam[0], lam[-1]
    return max(abs(lam_min), abs(lam_max))


def _lanczos_extremes(a):
    """Lanczos estimates ``(lam_min, lam_max)`` of the symmetric dense or scipy-sparse ``a``.

    Runs Krylov tridiagonalization from a fixed random start, doubling the
    subspace dimension until the extreme Ritz values are stable to a relative
    :data:`LANCZOS_RTOL` or the subspace exhausts the full dimension, which
    is exact.  The Ritz values come from LAPACK ``stevd`` without vectors.
    Stable Ritz values are an estimate, not a bound.
    """
    from .lanczos import lanczos_decompose

    n = a.shape[0]
    op = SparseSymOperator(n, lambda v: a @ v)
    k = min(n, max(8, 2 * int(np.ceil(np.log(max(n, 2))))))
    b = sample_unit_sphere(n, SeededRng(0x5EED_0B0B))
    prev = None
    while True:
        dec = lanczos_decompose(op, b, k)
        theta = dec.alphas
        if dec.iterations > 1:
            theta, _, info = scipy.linalg.lapack.dstevd(dec.alphas, dec.betas, compute_v=0)
            if info != 0:
                raise ConvergenceError(f"tridiagonal eigensolver failed for n={dec.iterations} (info={info})")
        est = (float(theta.min()), float(theta.max()))
        if dec.terminated_early or dec.iterations >= n:
            return est  # Krylov space exhausted: extremes exact for this start
        if prev is not None and all(abs(e - p) <= 0.5 * LANCZOS_RTOL * max(1.0, abs(e)) for e, p in zip(est, prev)):
            return est
        prev = est
        k = min(2 * k, n)


class SeededRng:
    """Deterministic random stream: counter-based generator, spawnable substreams.

    Identical seed plus identical call sequence reproduces the output stream
    bitwise.  :meth:`spawn` derives independent child streams for parallel
    seed sweeps.
    """

    def __init__(self, seed, _sequence=None):
        self.seed = int(seed)
        self._sequence = (
            np.random.SeedSequence(self.seed) if _sequence is None else _sequence
        )
        self.gen = np.random.Generator(np.random.Philox(self._sequence))

    def standard_normal(self, size=None):
        return self.gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def spawn(self, n):
        return [SeededRng(self.seed, _sequence=s) for s in self._sequence.spawn(n)]

    def __repr__(self):
        return f"SeededRng(seed={self.seed})"


def gaussian_symmetric(n, rng, density=None):
    """Random symmetric matrix and its ascending eigenvalues, for callers to scale.

    Draws an ``n x n`` standard Gaussian matrix, then, given ``density``, a
    uniform matrix of the same shape, and keeps only the entries whose
    uniform draw is below ``density``; the result is the symmetric part.
    """
    a = rng.standard_normal((n, n))
    if density is not None:
        a = a * (rng.uniform(size=(n, n)) < density)
    a = 0.5 * (a + a.T)
    return a, np.linalg.eigvalsh(a)


def sample_unit_sphere(n, rng, size=None):
    """Uniform draw(s) from the unit sphere in R^n.

    Realized by normalizing i.i.d. standard Gaussian vectors, which has the
    same distribution.  With ``size=None`` returns one vector; otherwise an
    array of shape ``(size, n)`` with unit rows.  All-zero Gaussian draws
    (probability zero) are redrawn internally.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if size is None:
        g = rng.standard_normal(n)
        nrm = math.sqrt(g @ g)  # what np.linalg.norm computes for a vector, without its dispatch
        while nrm == 0.0:
            g = rng.standard_normal(n)
            nrm = math.sqrt(g @ g)
        return g / nrm
    g = rng.standard_normal((size, n))
    nrm = np.linalg.norm(g, axis=1)
    while np.any(nrm == 0.0):
        bad = nrm == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), n))
        nrm = np.linalg.norm(g, axis=1)
    return g / nrm[:, None]


def sample_dirichlet_half(n, rng, size=None):
    """Dirichlet(1/2, ..., 1/2) draw(s): squared coordinates of a sphere draw."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    u = sample_unit_sphere(n, rng, size=size)
    return u * u
