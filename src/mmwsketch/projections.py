"""Mirror projections onto the spectrahedron and simplex.

Implements the exact matrix-multiplicative-weights projection
``Y -> exp(Y)/tr exp(Y)``, its rank-1 randomized sketch
``Y, u -> v v' / (v'v)`` with ``v = exp(Y/2) u`` (exact via a Chebyshev series
in Y, or approximate: the same series stopped where its tail proves an error
bound, or Krylov iterations), Monte-Carlo estimators for the
sphere-averaged projection and its potential, the Bregman-divergence
estimator used by the curvature tests, and the :class:`MatrixPlayer` of both
games.  Every exponential is evaluated after subtracting the top eigenvalue
or an upper end of the spectrum near it; all projections here are invariant
to that shift, so it is loss-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lanczos import lanczos_decompose
from .linalg import (
    DENSE_LIMIT,
    AnchoredForm,
    EigenDecomposition,
    anchor,
    as_operator,
    dense_eigh,
    exp_half_series,
    sample_unit_sphere,
    sym_array,
)

_CHUNK = 20_000


def _unit_norm(x, what, tol=1e-9):
    """``|x|``, raising ``ValueError`` naming ``what`` unless it is within ``tol`` of 1; NaN and inf fail."""
    nrm = math.sqrt(x @ x)  # np.linalg.norm's own formula for a vector, without its dispatch
    if not abs(nrm - 1.0) <= tol:
        raise ValueError(f"{what} must be a unit vector")
    return nrm


def softmax_grad(c):
    """Gradient of log-sum-exp at ``c``: the multiplicative-weights simplex vector.

    The exponentials are taken after subtracting ``max(c)``, to which the
    result is invariant, so very negative accumulated costs cannot underflow
    the normalization.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("entries must be finite")
    if c.ndim != 1 or len(c) < 1:
        raise ValueError("log weights must be a nonempty vector")
    t = np.exp(c - c.max())
    return t / t.sum()


class SpectrahedronAction:
    """A point of the spectrahedron: either a rank-1 unit factor or dense PSD.

    Rank-1 actions store the unit factor with canonical sign (first nonzero
    coordinate positive); all downstream quantities depend only on the outer
    product, so the sign convention is observable only through equality tests.
    ``error_estimate`` is the relative error estimate at the stop of a Krylov
    sketch run with an error budget, and ``None`` otherwise.
    """

    __slots__ = ("factor", "matrix", "error_estimate")

    def __init__(self, factor=None, matrix=None):
        if (factor is None) == (matrix is None):
            raise ValueError("exactly one of factor/matrix must be given")
        self.factor = factor
        self.matrix = matrix
        self.error_estimate = None

    @classmethod
    def rank1(cls, x):
        x = np.array(x, dtype=float)
        x /= _unit_norm(x, "rank-1 factor")
        nz = np.nonzero(x)[0]
        if len(nz) and x[nz[0]] < 0:
            x = -x
        return cls(factor=x)

    @classmethod
    def dense(cls, x):
        return cls(matrix=sym_array(x))

    @property
    def is_rank1(self):
        return self.factor is not None

    @property
    def n(self):
        return len(self.factor) if self.is_rank1 else self.matrix.shape[0]

    def densify(self):
        if self.is_rank1:
            return np.outer(self.factor, self.factor)
        return self.matrix

    def inner(self, g):
        """Frobenius inner product <g, X>."""
        g = np.asarray(g, dtype=float)
        if self.is_rank1:
            return float(self.factor @ (g @ self.factor))
        return float(np.vdot(g, self.matrix))

    def validate(self, psd_tol=1e-9, trace_tol=1e-9):
        """Check the spectrahedron membership invariants; raises on violation."""
        if self.is_rank1:
            _unit_norm(self.factor, "rank-1 factor", tol=1e-12)
            return
        lam = np.linalg.eigvalsh(self.matrix)
        if lam.min() < -psd_tol:
            raise ValueError(f"matrix has eigenvalue {lam.min():.3e} below -{psd_tol}")
        if abs(np.trace(self.matrix) - 1.0) > trace_tol:
            raise ValueError("matrix trace differs from 1")


@dataclass
class MatrixEstimate:
    """Monte-Carlo matrix mean with entrywise standard errors."""

    action: SpectrahedronAction
    stderr: np.ndarray
    samples: int


@dataclass
class ScalarEstimate:
    """Monte-Carlo scalar mean with its standard error."""

    value: float
    stderr: float
    samples: int


def _eigenpairs(y):
    """Descending eigenpairs of ``y``: a symmetric matrix, or an :class:`EigenDecomposition` used as given."""
    if isinstance(y, EigenDecomposition):
        return y
    return dense_eigh(y)


def mmw_projection(y):
    """Exact multiplicative-weights projection ``exp(Y)/tr exp(Y)``.

    ``y`` is the symmetric Y or its :class:`EigenDecomposition`.
    """
    dec = _eigenpairs(y)
    lam = dec.eigenvalues
    e = np.exp(lam - lam[0])
    s = e / e.sum()
    x = (dec.eigenvectors * s) @ dec.eigenvectors.T
    return SpectrahedronAction.dense(x)


def _direction_action(v, underflow_message):
    """The rank-1 action along ``v``; a zero or non-finite ``v`` raises ``ArithmeticError``."""
    nrm = math.sqrt(v @ v)
    if nrm == 0.0 or not math.isfinite(nrm):
        raise ArithmeticError(underflow_message)
    return SpectrahedronAction.rank1(v / nrm)


def rank1_projection(y, u):
    """Exact rank-1 sketch ``v v'/(v'v)`` with ``v = exp(Y/2) u``; requires dense scale.

    ``y`` is the symmetric Y, which is anchored here (one ``sytrd`` reduction
    and two bisections), or an :class:`AnchoredForm` of Y with an interval
    ``[lo, hi]`` that holds its spectrum, as the :class:`MatrixPlayer` keeps.
    Computes ``v = exp((Y - hi I)/2) u`` by one Chebyshev series in Y, one
    matrix-vector product per degree, or, for an interval too wide for the
    series, by the eigenpairs of Y (:meth:`AnchoredForm.exp_half`).  A
    vanishing ``v`` is impossible for symmetric Y (the exponential is
    nonsingular), so an underflow here signals a shifting bug and raises.
    """
    u = np.asarray(u, dtype=float)
    _unit_norm(u, "u")
    form = y if isinstance(y, AnchoredForm) else anchor(y)
    return _direction_action(form.exp_half(u), "exp(Y/2) u underflowed after shifting")


def rank1_projection_lanczos(y, u, k, tol=None):
    """Approximate rank-1 sketch from a Krylov exponential of depth at most k.

    Without ``tol`` exactly k iterations run (fewer only on breakdown).  With
    ``tol`` the Lanczos loop stops once its estimate of the relative error of
    ``exp(Y/2) u`` is at most ``tol``; the trace distance of the rank-1
    sketch is at most twice the relative error of its vector.  The estimate
    at the stop is recorded as the action's ``error_estimate``.
    """
    u = np.asarray(u, dtype=float)
    _unit_norm(u, "u")
    dec = lanczos_decompose(as_operator(y).scaled(0.5), u, k, tol=tol)
    action = _direction_action(dec.expm(normalized=True), "Krylov exponential returned a zero vector")
    action.error_estimate = dec.error_estimate
    return action


#: The matrix player's routes: exact multiplicative weights, the exact rank-1 sketch, its Krylov approximation.
ROUTES = ("exact_mmw", "rank1_exact", "rank1_lanczos")


#: tau: the player anchors ``Y`` again once the engine's bound on its move since the last anchor exceeds
#: ``tau / 2``, so the widened top end stays within ``tau`` of ``lam_max(Y)``, and the series' truncation and
#: rounding grow by at most ``e^(tau/2)``, about 55 or 6 bits, relative to ``v`` (``AnchoredForm.exp_half``).
ANCHOR_TAU = 8.0

#: The player widens an anchor's interval by the engine's drift bound rounded up to a multiple of this, so that
#: a few series widths recur over an anchor's span and their coefficients are kept.  ``tau / 2`` is a whole
#: number of steps, so the anchors fall where the bound itself passes ``tau / 2``.  On the benchmark workloads a
#: step of ``tau / 4`` adds 0.4 to 0.8 products a sketch and ``tau / 2`` 1.3 to 2.3, ``tau / 32`` computes 3.3 to
#: 3.6 times as many coefficient sets, and ``tau / 16`` (1.8 times as many, 0.2 to 0.5 fewer products) timed alike.
WIDEN_STEP = ANCHOR_TAU / 8


class MatrixPlayer:
    """The matrix player of both games: a mirror projection of the live dual point ``Y = y()`` at each step.

    ``route`` is one of :data:`ROUTES`.  ``exact_mmw`` decomposes ``Y`` into
    eigenpairs at each move.  ``rank1_exact`` sums the sketch's series in
    ``Y`` over an interval that holds its spectrum: an anchor reduces ``Y``
    (:func:`~mmwsketch.linalg.anchor`), and in between the last anchor's
    interval is widened by the engine's bound on how far the matrix the
    series reads has moved from the one the anchor reduced, past which no
    eigenvalue moves (Weyl); both engines state one (``online._drift_bound``,
    ``sdp._drift_bound``), and the player rounds it up to a multiple of
    :data:`WIDEN_STEP`.  An interval too wide for the series,
    fresh or widened, takes the eigenpairs of ``Y`` instead.

    ``rank1_lanczos`` stops each sketch once its error is at most ``1/(4T)``,
    a 2x margin on a ``1/T`` trace-distance budget, or at degree or depth
    ``min(cap(t), n)``.  At dense scale, ``n <= DENSE_LIMIT``, with ``Y`` a
    dense array, it anchors and widens as ``rank1_exact`` does and sums the
    same series (:func:`~mmwsketch.linalg.exp_half_series` at tolerance
    ``1/(4T)``), whose stop is a proof given the interval; an interval too
    wide for the series takes a Lanczos run on the operator ``op`` of ``Y``
    instead.  Above the dense limit, or with ``Y`` a sparse matrix, every
    step is a Lanczos run (:func:`rank1_projection_lanczos`), stopped on
    Saad's estimate.
    :attr:`record` is the last play's ``(k_cap, matvecs, error)``: the cap,
    the products run, and the series' proved bound or Lanczos's estimate at
    the stop; zeros on the exact routes.
    Functions are looked up by their module-level names at each call, so a
    wrapper installed on a name sees every call.
    """

    def __init__(self, route, T, y, op, cap):
        self.route, self._y, self._op, self._cap = route, y, op, cap
        self._budget = 0.25 / T
        # whether moved() keeps an anchored interval; both engines run rank1_exact only on a dense Y at dense scale
        self._anchors = route != "exact_mmw" and op.n <= DENSE_LIMIT and isinstance(y(), np.ndarray)
        self._dual = None  # the exact routes' decomposition or interval of Y, made by moved()
        self._anchor = None  # the last anchored form
        self.record = (0, 0, 0.0)

    def moved(self, drift=None):
        """Note that ``Y`` moved; return its top eigenvalue if this decomposed it, else ``None``.

        ``drift()`` bounds ``|Y - Y_anchor|_2``, with ``Y_anchor`` the ``Y`` of
        the last move that returned a value, and ``Y`` read by its upper
        triangle, as the series reads it.  A route that anchors does so again
        once the bound exceeds ``ANCHOR_TAU / 2``, and at every move without it.
        """
        if self.route == "exact_mmw":
            self._dual = dense_eigh(self._y())
            return self._dual.top
        if not self._anchors:
            return None
        y = self._y()
        if drift is not None and self._anchor is not None:
            widen, last = math.ceil(drift() / WIDEN_STEP) * WIDEN_STEP, self._anchor
            if 2.0 * widen <= ANCHOR_TAU:
                self._dual = AnchoredForm(y, last.lo - widen, last.hi + widen, last.top)
                return None
        self._dual = self._anchor = anchor(y)
        return self._anchor.top

    def play(self, t, rng):
        """The action of step ``t``, from ``Y`` as last moved; the sketches draw their sphere vector from ``rng``."""
        if self.route == "exact_mmw":
            return mmw_projection(self._dual)
        u = sample_unit_sphere(self._op.n, rng)
        if self.route == "rank1_exact":
            return rank1_projection(self._dual, u)
        cap = min(self._cap(t), self._op.n)
        form = self._dual
        if self._anchors and form.fits_series:
            v, degree, bound = exp_half_series(form.matrix, form.lo, form.hi, u, self._budget, cap)
            self.record = (cap, degree, bound)
            return _direction_action(v, "exp(Y/2) u underflowed after shifting")
        self._op.matvec_count = 0
        action = rank1_projection_lanczos(self._op, u, cap, tol=self._budget)
        self.record = (cap, self._op.matvec_count, action.error_estimate)
        return action


def trace_norm_distance(x1, x2):
    """Schatten-1 distance between two spectrahedron actions.

    For a rank-1 pair the difference has eigenvalues plus/minus
    ``sqrt(1 - (x1'x2)^2)``, so the closed form ``2 sqrt(1 - (x1'x2)^2)`` is
    used; otherwise the dense eigenvalues of the difference are summed.
    """
    if x1.n != x2.n:
        raise ValueError("dimension mismatch")
    if x1.is_rank1 and x2.is_rank1:
        c = float(np.clip(x1.factor @ x2.factor, -1.0, 1.0))
        return 2.0 * np.sqrt(max(1.0 - c * c, 0.0))
    diff = x1.densify() - x2.densify()
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _sphere_batches(n, samples, rng):
    """``samples`` uniform sphere draws in R^n, in batches of at most ``_CHUNK`` rows."""
    left = samples
    while left > 0:
        size = min(left, _CHUNK)
        yield sample_unit_sphere(n, rng, size=size)
        left -= size


def _accumulate_moments(batches):
    """Entrywise mean and standard error from a stream of sample batches."""
    total = 0
    s1 = None
    s2 = None
    for batch in batches:
        total += batch.shape[0]
        b1 = batch.sum(axis=0)
        b2 = (batch * batch).sum(axis=0)
        s1 = b1 if s1 is None else s1 + b1
        s2 = b2 if s2 is None else s2 + b2
    mean = s1 / total
    var = np.maximum(s2 - total * mean * mean, 0.0) / max(total - 1, 1)
    return mean, np.sqrt(var / total), total


def estimate_avg_projection_direct(y, samples, rng):
    """Sphere-average of the rank-1 sketch: the empirical mean of ``P_u(Y)``.

    Draws i.i.d. uniform sphere vectors and averages the exact rank-1
    projections, which is unbiased for the averaged projection.  Returns the
    mean action together with entrywise standard errors.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    dec = dense_eigh(y)
    lam, q = dec.eigenvalues, dec.eigenvectors
    half = np.exp(0.5 * (lam - lam[0]))

    def batches():
        for u in _sphere_batches(len(lam), samples, rng):
            w = u * half  # rows: exp((Y - lam_max I)/2) u in the eigenbasis
            s2 = (w * w).sum(axis=1)
            outer = np.einsum("si,sj->sij", w, w) / s2[:, None, None]
            yield np.einsum("ip,spq,jq->sij", q, outer, q, optimize=True)

    mean, stderr, total = _accumulate_moments(batches())
    return MatrixEstimate(SpectrahedronAction.dense(mean), stderr, total)


def estimate_avg_projection_dirichlet(y, samples, rng):
    """Averaged projection via its eigenbasis characterization.

    In the eigenbasis of Y the averaged projection is diagonal with entries
    ``E_w grad-lse(lambda + log w)`` for Dirichlet(1/2,...,1/2) weights ``w``;
    this estimator averages those diagonals and rotates back.  Off-diagonal
    entries in the eigenbasis are exactly zero by construction, which makes
    it an independent cross-check of the direct sphere average.  ``y`` is the
    symmetric Y or its :class:`EigenDecomposition`.

    The draw is made in the eigenbasis LAPACK returns.  Within a degenerate
    eigenspace that basis depends on rounding, so at a fixed seed the sample
    can change with rounding-level changes to Y; its expectation depends only
    on the spectrum and eigenspaces of Y, not on the basis.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    dec = _eigenpairs(y)
    lam, q = dec.eigenvalues, dec.eigenvectors
    boost = np.exp(lam - lam[0])

    def batches():
        for u in _sphere_batches(len(lam), samples, rng):
            t = (u * u) * boost  # w_i exp(lambda_i - lam_max): softmax numerators
            d = t / t.sum(axis=1)[:, None]
            yield np.einsum("ip,sp,jp->sij", q, d, q, optimize=True)

    mean, stderr, total = _accumulate_moments(batches())
    return MatrixEstimate(SpectrahedronAction.dense(mean), stderr, total)


def estimate_potential(y, samples, rng):
    """Monte-Carlo estimate of the averaged potential ``E_u log(u' exp(Y) u)``.

    Each sample evaluates ``lse(lambda + log w)`` for a Dirichlet(1/2) draw
    ``w`` with max-shift stability.
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    dec = dense_eigh(y)
    lam = dec.eigenvalues
    boost = np.exp(lam - lam[0])
    vals = np.concatenate(
        [lam[0] + np.log(((u * u) * boost).sum(axis=1)) for u in _sphere_batches(len(lam), samples, rng)]
    )
    return ScalarEstimate(
        float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples)), samples
    )


def estimate_bregman(y, yp, samples, rng):
    """Bregman divergence of the averaged potential between two dual points.

    Estimates ``p(Y') - p(Y) - <Y' - Y, avg-projection(Y)>`` using common
    random numbers: one stream of sphere draws feeds all three terms, so the
    estimator is pointwise zero when ``Y' = Y`` (or differs by a multiple of
    the identity) and has far lower variance than independent streams.
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    ya = sym_array(y)
    ypa = sym_array(yp)
    if ya.shape != ypa.shape:
        raise ValueError("dimension mismatch")
    delta = ypa - ya
    dec = dense_eigh(ya)
    decp = dense_eigh(ypa)
    lam, q = dec.eigenvalues, dec.eigenvectors
    lamp, qp = decp.eigenvalues, decp.eigenvectors
    half = np.exp(0.5 * (lam - lam[0]))
    boost = half * half
    boostp = np.exp(lamp - lamp[0])
    vals = []
    for u in _sphere_batches(len(lam), samples, rng):
        a = u @ q
        ap = u @ qp
        log_quad = lam[0] + np.log(((a * a) * boost).sum(axis=1))
        log_quad_p = lamp[0] + np.log(((ap * ap) * boostp).sum(axis=1))
        v = (a * half) @ q.T  # rows: exp((Y - lam_max I)/2) u
        quad_delta = np.einsum("si,ij,sj->s", v, delta, v) / (v * v).sum(axis=1)
        vals.append(log_quad_p - log_quad - quad_delta)
    vals = np.concatenate(vals)
    return ScalarEstimate(
        float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples)), samples
    )
