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
#: The Chebyshev series of ``exp`` stops where the coefficients it drops sum to less than this.
_SERIES_TAIL = 2.0**-60
#: 2x2 minors of a rank-one ``fl(c b b')`` vanish to this relative rounding.
_MINOR_RTOL = 64.0 * _EPS
#: Squares below the smallest subnormal flush to zero, hiding at most ``n 2^-537`` of a Frobenius norm.
_UNDERFLOW_NORM = 2.0**-537
#: ``syevr`` scales a matrix whose largest entry lies outside ``[_SYEVR_RMIN, _SYEVR_RMAX]``: LAPACK's
#: ``sqrt(safmin / eps)`` and ``min(sqrt(eps / safmin), 1 / sqrt(sqrt(safmin)))``, safmin = 2^-1022, eps = 2^-52.
_SYEVR_RMIN = math.sqrt(2.0**-1022 / 2.0**-52)
_SYEVR_RMAX = min(math.sqrt(2.0**-52 / 2.0**-1022), 1.0 / math.sqrt(math.sqrt(2.0**-1022)))


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


def sym_array(a, copy=True):
    """Coerce ``a`` to an exactly symmetric float ndarray.

    Accepts any square array-like whose asymmetry is below ``1e-8``
    relative to its magnitude.  The result satisfies ``out[i, j] == out[j, i]``
    bitwise.  Input that is already bitwise symmetric comes back as a copy,
    or, with ``copy=False``, as itself if it is a float ndarray; otherwise
    the result is ``0.5 * (a + a')``, the same bits wherever the doubled
    entries do not overflow.
    """
    arr = np.array(a, dtype=float) if copy else np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    bits = arr.view(np.int64)
    if np.array_equal(bits, bits.T):  # exactly symmetric, signed zeros and NaN payloads included
        return arr
    scale = 1.0 + np.abs(arr).max() if arr.size else 1.0
    if np.abs(arr - arr.T).max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (arr + arr.T)


class SparseSymOperator:
    """Symmetric linear operator exposed only through matrix-vector products.

    ``matvec_count`` tallies every application.  An operator made by
    :meth:`scaled` applies its base's function directly, one call per
    product, and each of its applications also counts on every operator it
    derives from.
    """

    def __init__(self, n, apply_fn, nnz_hint=None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = int(n)
        self._apply = apply_fn
        self.nnz_hint = int(nnz_hint) if nnz_hint is not None else self.n * self.n
        self.matvec_count = 0
        self._ancestors = ()  # what an application also counts on; no self-reference, so no cycle

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        self.matvec_count += 1
        for op in self._ancestors:
            op.matvec_count += 1
        return self._apply(v)

    @classmethod
    def from_dense(cls, a):
        arr = sym_array(a)
        return cls(arr.shape[0], lambda v: arr @ v, nnz_hint=np.count_nonzero(arr))

    def scaled(self, c):
        """Operator computing ``c * (self v)``; applications also count on self and its ancestors."""
        apply = self._apply
        op = SparseSymOperator(self.n, lambda v: c * apply(v), nnz_hint=self.nnz_hint)
        op._ancestors = (self,) + self._ancestors
        return op


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
    """The ``dsytrd`` workspace that ``syevr`` hands on from its optimal one: that minus the ``5n`` it keeps.

    The workspace sets the block size of the reduction, and so the last bits
    of T: with it they are those of scipy's ``eigh(driver="evr")``.  The
    wrapper's default ``lwork=n`` runs the unblocked reduction.
    """
    work, _, info = scipy.linalg.lapack.dsyevr_lwork(n, lower=1)
    if info != 0:
        raise ConvergenceError(f"tridiagonal reduction workspace query failed for n={n} (info={info})")
    return max(1, int(work) - 5 * n)


def _reduce(arr, what):
    """The diagonal and subdiagonal ``(d, e)`` of T from LAPACK ``sytrd`` on the lower triangle of ``arr``.

    ``arr`` is Fortran-ordered and reduced in place.  Raises
    :class:`ConvergenceError` naming ``what`` and the size if LAPACK fails or
    T is not finite (a NaN or inf entry of ``arr``).
    """
    n = arr.shape[0]
    _, d, e, _, info = scipy.linalg.lapack.dsytrd(arr, lower=1, lwork=_sytrd_lwork(n), overwrite_a=1)
    if info != 0:
        raise ConvergenceError(f"{what} failed for n={n} (info={info})")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ConvergenceError(f"{what} failed for n={n}: T is not finite")
    return d, e


def _bisect_eigenvalue(d, e, i, what):
    """Eigenvalue ``i`` (1-based, ascending) of the tridiagonal ``(d, e)`` by one LAPACK ``stebz`` bisection.

    Order 1 returns ``d[0]``, as ``syevr`` does; scipy's ``stebz`` wrapper rejects an empty ``e``.
    """
    if len(d) == 1:
        return float(d[0])
    _, w, _, _, info = scipy.linalg.lapack.dstebz(d, e, 3, 0.0, 0.0, i, i, 0.0, "E")
    if info != 0:
        raise ConvergenceError(f"{what} failed for n={len(d)}: bisection (info={info})")
    return float(w[0])


def _exp_series_coefficients(r):
    """Chebyshev coefficients of ``exp(r (t - 1))`` on ``[-1, 1]``: ``e^-r I_0(r)``, then ``2 e^-r I_k(r)``.

    ``I_k`` is the modified Bessel function of the first kind.  Miller's
    backward recurrence ``I_{k-1} = (2k / r) I_k + I_{k+1}`` runs down from a
    degree past where ``2 e^-r I_k(r)``, about ``2 exp(-k^2 / (2r)) / sqrt(2 pi r)``,
    falls to ``2^-120``, and its values are normalized by
    ``e^r = I_0 + 2 sum_k I_k``, so the coefficients sum to 1.  The series is
    cut at the lowest degree whose dropped coefficients sum to less than
    :data:`_SERIES_TAIL`; below ``r = _SERIES_TAIL`` that is degree 0, where
    ``e^-r I_0(r)`` rounds to 1.
    """
    if not r >= _SERIES_TAIL:
        return np.ones(1)
    start = int(math.sqrt(170.0 * r)) + 10
    vals = [0.0] * (start + 1)
    upper, cur = 0.0, 1.0  # I_{k+1} and I_k, up to a common factor
    vals[start] = cur
    two_over_r = 2.0 / r
    for k in range(start, 0, -1):
        upper, cur = cur, k * two_over_r * cur + upper
        vals[k - 1] = cur
        if cur > 2.0**900:  # a step grows by at most 2^66 (k <= start, 2 / r <= 2^61): no overflow
            vals[k - 1 :] = [x * 2.0**-900 for x in vals[k - 1 :]]
            upper *= 2.0**-900
            cur = vals[k - 1]
    coef = np.array(vals)
    coef[1:] *= 2.0
    coef /= coef.sum()
    dropped = np.cumsum(coef[::-1])[::-1]  # dropped[k]: the sum of coef[k:]
    return coef[: int(np.argmax(dropped[1:] < _SERIES_TAIL)) + 1]


@dataclass
class AnchoredForm:
    """The dense symmetric ``Y``, bitwise symmetric, with an interval ``[lo, hi]`` that holds its spectrum.

    ``top`` is the largest eigenvalue of the ``Y`` last anchored: :func:`anchor`
    gives it the bits of :func:`top_eigenvalue`, and a form widened since
    holds another ``Y`` and keeps its anchor's ``top``.
    """

    matrix: np.ndarray
    lo: float
    hi: float
    top: float

    def exp_half(self, x):
        """``exp((Y - hi I)/2) x``, by the Chebyshev series of ``exp`` on ``[lo, hi]`` (Bergamaschi & Vianello 2000).

        With ``r`` a quarter of the width and ``t`` the image of ``lam`` in
        ``[-1, 1]``, ``exp((lam - hi)/2) = exp(r (t - 1))``, whose series
        :func:`_exp_series_coefficients` gives.  Clenshaw's recurrence sums it
        with one product by ``matrix`` (BLAS ``symv``) and two ``axpy`` per
        degree.  As ``|T_k(t)| <= 1`` on the interval, the cut series is within
        ``2^-60 |x|`` of the exponential; the result shrinks by
        ``exp((lam_max - hi)/2)`` and that error does not, so a top end
        ``delta`` above ``lam_max`` multiplies the relative error by up to
        ``exp(delta/2)``.  A width whose series would take more products than
        Y has rows (degree about ``sqrt(83 r)``) takes the eigenpairs of
        ``matrix`` from :func:`dense_eigh` instead, ``V exp((lam - lam_max)/2) V' x``,
        the same direction shifted by their own largest eigenvalue, so the
        top's exponential is 1 however far ``hi`` or ``top`` lie from it.
        """
        x = np.asarray(x, dtype=float)
        n = self.matrix.shape[0]
        if x.shape != (n,):
            raise ValueError(f"expected vector of length {n}, got shape {x.shape}")
        r = 0.25 * (self.hi - self.lo)
        if 83.0 * r <= n * n:
            return _clenshaw_exp(self.matrix, 0.5 * (self.hi + self.lo), r, x)
        dec = dense_eigh(self.matrix)
        v = dec.eigenvectors
        return v @ (np.exp(0.5 * (dec.eigenvalues - dec.top)) * (v.T @ x))


def _clenshaw_exp(m, mid, r, x):
    """``exp(r (S - I)) x`` for ``S = (m - mid I) / (2r)``, by Clenshaw's recurrence on the series of ``exp``.

    The shift goes into the diagonal of a copy of ``m`` once: subtracted from
    each product instead, it would cancel to an error of ``eps |m| / r``,
    large where ``m`` has an identity part far above its spread.
    """
    coef = _exp_series_coefficients(r)
    if len(coef) == 1:
        return coef[0] * x
    n = len(x)
    shifted = np.array(m, order="C")
    shifted.flat[:: n + 1] -= mid
    a = shifted.T  # symmetric, so this Fortran-ordered view is m - mid I for BLAS
    # positional, as keywords cost f2py about 1 us a call: symv(alpha, a, x, beta, y, offx, incx, offy, incy,
    # lower, overwrite_y) = alpha A x + beta y into y, and axpy(x, y, n, a) = a x + y into y
    symv, axpy = scipy.linalg.blas.dsymv, scipy.linalg.blas.daxpy
    b1, b2 = coef[-1] * x, np.zeros(n)  # b_{k+1} and b_{k+2}
    for c in coef[-2:0:-1].tolist():
        # b_k = c_k x + 2S b_{k+1} - b_{k+2}
        b2 = axpy(x, symv(1.0 / r, a, b1, -1.0, b2, 0, 1, 0, 1, 1, 1), n, c)
        b1, b2 = b2, b1
    return axpy(x, symv(0.5 / r, a, b1, -1.0, b2, 0, 1, 0, 1, 1, 1), n, coef[0])


def anchor(a):
    """The :class:`AnchoredForm` of the symmetric ``a``.

    One symmetry check of ``a`` (:func:`sym_array`), then one ``sytrd``
    reduction of a copy and two ``stebz`` bisections give the extreme
    eigenvalues by the route of :func:`_dense_eigenvalues`, so ``top`` has
    the bits of :func:`top_eigenvalue`.  Each end of the interval
    is moved out by ``4 n eps |a|_2``.  LAPACK bounds the error of the ends
    by ``p(n) eps |a|_2`` for an unspecified, modestly growing ``p(n)``
    (LAPACK Users' Guide, 3rd ed., section 4.7); ``p(n) = 4n`` is a choice,
    not a proof, which ``test_interval_holds_the_spectrum`` checks against
    ``eigvalsh``.  The form holds ``a`` itself when it is a bitwise
    symmetric float array.  Raises :class:`ConvergenceError` naming the size
    if LAPACK fails or T is not finite (a NaN or inf entry), and
    :class:`DenseLimitError` above :data:`DENSE_LIMIT`.
    """
    arr = sym_array(a, copy=False)
    n = arr.shape[0]
    require_dense(n, "tridiagonal reduction")
    lam_min, lam_max = _reduce_and_bisect(np.array(arr.T), "tridiagonal reduction", (1, n))
    pad = 4.0 * n * _EPS * max(abs(lam_min), abs(lam_max))
    return AnchoredForm(arr, lam_min - pad, lam_max + pad, lam_max)


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
    """Whether ``lo I <= a <= hi I`` is proved in ``O(n^2)`` by splitting ``a`` at a rank-one term.

    With the pivot ``i`` of the largest diagonal entry, ``b = a[:, i] / sqrt(a_ii)``
    and ``E = a - b b'``, Weyl's inequality puts the spectrum of ``a`` in
    ``[-|E|_2, |b|^2 + |E|_2]``, and ``|E|_2 <= |E|_F``.  The lower end, widened
    by a bound on the rounding of ``E`` and ``|E|_F``, and the upper end,
    widened also for the rounding of ``|b|^2``, must lie in ``[lo, hi]``.
    ``True`` is a proof; ``False`` proves nothing, and callers then ask
    :func:`spectrum_within`.  A matrix far from rank one leaves after one 2x2
    minor ``a_ii a_jj - a_ij^2``, which vanishes to rounding for a rank-one
    ``a``.  A non-finite pivot, ``|E|_F`` or ``|b|^2`` gives ``False``.

    ``a`` need not be symmetric: ``True`` then proves the interval for
    ``(a + a') / 2``, and its lower end bounds ``|E|_F`` by ``-lo``, so that
    ``|a - a'|_F = |E - E'|_F <= -2 lo`` and the symmetric matrix that the
    lower triangle of ``a`` defines lies within ``sqrt(2) |E|_F`` of ``b b'``
    in the 2-norm.  A caller that narrows ``lo`` can thus check symmetry and
    the spectrum of that lower triangle without reading ``a'``.
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
    resid = _outer_self(b)
    np.subtract(a, resid, out=resid)
    flat = resid.ravel()
    e_norm = math.sqrt(flat @ flat)
    # with u = eps / 2: the computed E is within u |b|^2 of a - b b' in the Frobenius norm, |E|_F and
    # |b|^2 come out within (n^2 + 2) u and (n + 1) u relative, and each sum below rounds once; the
    # factors here are about twice that.  e_bound bounds |a - b b'|_F, err also the rounding of |b|^2
    e_bound = (1.0 + (n * n + 8) * _EPS) * e_norm + 2.0 * _EPS * b_sq + n * _UNDERFLOW_NORM
    err = (1.0 + (n * n + 8) * _EPS) * e_norm + 4.0 * (n + 2) * _EPS * b_sq + n * _UNDERFLOW_NORM
    return lo <= -e_bound and b_sq + err <= hi


def _outer_self(v):
    """``np.outer(v, v)`` in one BLAS rank-one update (``dger`` into zeros), C-ordered.

    Each entry is one rounded product, as in ``np.outer``, so the bits are
    its bits except that a zero product is ``+0.0``, and the result is
    exactly symmetric; numpy's row-by-row loop takes two to three times as
    long from n = 128 up.
    """
    n = len(v)
    return scipy.linalg.blas.dger(1.0, v, v, a=np.zeros((n, n), order="F"), overwrite_a=1).T


def top_eigenvalue(a):
    """Largest eigenvalue of the symmetric dense or scipy-sparse ``a``, and its uncertainty.

    Returns ``(lam_max, tol)``.  At dense scale, ``n <= DENSE_LIMIT``,
    ``lam_max`` is the top end of :func:`_dense_extremes`, from the same
    reduction and one bisection (:func:`_dense_eigenvalues`), and ``tol`` is
    0; a LAPACK failure or a NaN or inf entry raises :class:`ConvergenceError`,
    and an asymmetry above :func:`sym_array`'s ``1e-8`` raises ``ValueError``.
    Above it, ``lam_max`` is the Lanczos estimate of :func:`_lanczos_extremes`
    and ``tol = LANCZOS_RTOL * max(1, |lam_max|)``; stable Ritz values are an
    estimate, not a bound.
    """
    n = a.shape[0]
    if n > DENSE_LIMIT:
        lam_max = _lanczos_extremes(a)[1]
        return lam_max, LANCZOS_RTOL * max(1.0, abs(lam_max))
    return _dense_eigenvalues(a, "top eigenvalue", n)[0], 0.0


def operator_norm(a):
    """``max |lam_i|`` of the symmetric dense or scipy-sparse ``a``.

    Exact at dense scale, ``n <= DENSE_LIMIT``: the two extreme eigenvalues
    of :func:`_dense_extremes`, which raises :class:`ConvergenceError` on a
    NaN or inf entry and ``ValueError`` on an asymmetry above
    :func:`sym_array`'s ``1e-8``.  Above it, the Lanczos estimate of
    :func:`_lanczos_extremes`.
    """
    extremes = _lanczos_extremes if a.shape[0] > DENSE_LIMIT else _dense_extremes
    lam_min, lam_max = extremes(a)
    return max(abs(lam_min), abs(lam_max))


def _dense_extremes(a):
    """``(lam_min, lam_max)`` of the symmetric dense or scipy-sparse ``a``, one reduction for both ends."""
    return _dense_eigenvalues(a, "extreme eigenvalues", 1, a.shape[0])


def _dense_eigenvalues(a, what, *indices):
    """Eigenvalues ``indices`` (1-based, ascending) of the dense or scipy-sparse ``a``, as ``syevr`` gives each.

    Takes the route of LAPACK ``syevr`` for one eigenvalue by index, with
    ``UPLO='L'``: its scaling of a largest entry outside
    ``[_SYEVR_RMIN, _SYEVR_RMAX]``, one blocked ``sytrd`` reduction of
    ``sym_array(a)``, then one ``stebz`` bisection per index.  A sparse ``a``
    is copied once, by ``toarray``.  Raises :class:`ConvergenceError` naming
    ``what`` if LAPACK reports a failure or the tridiagonal matrix is not
    finite (a NaN or inf entry), where an unchecked bisection returns a
    number.
    """
    arr = sym_array(a.toarray(), copy=False) if sp.issparse(a) else sym_array(a)
    return _reduce_and_bisect(arr.T, what, indices)  # the transpose of a symmetric copy: itself, in Fortran order


def _reduce_and_bisect(arr, what, indices):
    """:func:`_dense_eigenvalues` of the exactly symmetric, Fortran-ordered ``arr``, scaled and reduced in place."""
    n = arr.shape[0]
    sigma = 1.0
    if n > 1:  # syevr returns a 1 x 1 matrix's entry unscaled
        top = float(max(arr.max(), -arr.min()))
        if 0.0 < top < _SYEVR_RMIN:
            sigma = _SYEVR_RMIN / top
        elif _SYEVR_RMAX < top < math.inf:
            sigma = _SYEVR_RMAX / top
        if sigma != 1.0:
            arr *= sigma
    d, e = _reduce(arr, what)
    return tuple(_bisect_eigenvalue(d, e, i, what) * (1.0 / sigma) for i in indices)


def _lanczos_extremes(a):
    """Lanczos estimates ``(lam_min, lam_max)`` of the symmetric dense or scipy-sparse ``a``.

    Runs one Krylov tridiagonalization from a fixed random start and reads
    its Ritz values at depths that double, until the extreme ones are stable
    to a relative :data:`LANCZOS_RTOL` or the subspace exhausts the full
    dimension, which is exact.  A depth-j run is the first j iterations of a
    deeper one, so the values are those of a fresh run to each depth.  The
    Ritz values come from LAPACK ``stevd`` without vectors.  Stable Ritz
    values are an estimate, not a bound.
    """
    from .lanczos import LanczosDecomposition

    n = a.shape[0]
    op = SparseSymOperator(n, lambda v: a @ v)
    k = min(n, max(8, 2 * int(np.ceil(np.log(max(n, 2))))))
    run = LanczosDecomposition(op, sample_unit_sphere(n, SeededRng(0x5EED_0B0B)), k)
    prev = None
    for j, _, breakdown in run._grow(n, last_beta=False):
        if j < k and not breakdown:
            continue
        theta = run.alphas
        if j > 1:
            theta, _, info = scipy.linalg.lapack.dstevd(theta, run.betas, compute_v=0)
            if info != 0:
                raise ConvergenceError(f"tridiagonal eigensolver failed for n={j} (info={info})")
        est = (float(theta.min()), float(theta.max()))
        if breakdown or j >= n:
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
