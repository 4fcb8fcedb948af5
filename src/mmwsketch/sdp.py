"""Primal-dual semidefinite feasibility via simultaneous online learning.

The saddle value ``s = min_y max_X <sum_i y_i A_i, X>`` (y over the simplex,
X over the spectrahedron) is approximated by having the matrix player run
the rank-1 sketch and the vector player run multiplicative weights; averaged
iterates certify the sign of ``s`` through the duality gap
``lam_max(A* y) - min_i <A_i, X>``.  The schedule is driven by the width
``omega = max_i |A_i|_inf``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .lanczos import required_iterations
from .linalg import (
    _EPS,
    SeededRng,
    SparseSymOperator,
    gaussian_symmetric,
    operator_norm,
    require_dense,
    top_eigenvalue,
)
from .projections import MatrixPlayer, SpectrahedronAction, softmax_grad

#: Played unit factors are folded into the dense average in blocks of this
#: many rows, with one ``F' F`` product per block.
X_AVG_BLOCK = 64

#: Krylov projections keep the scaled gain sum as a dense n x n array once the
#: union pattern fills this share of it, so that array holds at most twice the
#: pattern's entries.  Below it they keep a CSR matrix.  With one BLAS thread,
#: a dense product beat the CSR one from a fill of 0.1 at n <= 300 and from
#: about 0.4 at n = 700 to 3000, and was the faster at every n from a fill of
#: 0.5.
DENSE_GAIN_FILL = 0.5


class InstanceFormatError(ValueError):
    """Malformed instance file; message carries the offending line number."""


class ConstraintStack(NamedTuple):
    """Constraint values over the union CSR pattern and over their upper triangles (see :meth:`SdpInstance.stack`)."""

    values: sp.csc_matrix
    indices: np.ndarray
    indptr: np.ndarray
    half: sp.csr_matrix


class SdpInstance:
    """Symmetric constraint matrices in upper-triplet form.

    Each constraint stores entries with ``row <= col``; the lower triangle is
    implied by symmetry.  The entries of all constraints are kept in four
    flat arrays, sorted by constraint, then row, then column: the 0-based
    ``con``, ``row`` and ``col``, and ``val``.  ``width`` is
    ``max_i |A_i|_inf`` once :meth:`compute_width` has run, and ``None``
    before.
    """

    def __init__(self, n, m, triplets):
        if n < 1:
            raise ValueError("n must be >= 1")
        if m < 1:
            raise ValueError("m must be >= 1")
        self.n = int(n)
        self.m = int(m)
        triplets = list(triplets)
        if set(map(len, triplets)) - {4}:
            raise ValueError("every triplet must be (i, row, col, value)")
        columns = tuple(zip(*triplets)) or ((),) * 4
        i, r, c = (_index_array(col) for col in columns[:3])
        v = np.asarray(columns[3], dtype=float)
        # each triplet's checks in order; the first triplet that fails one names the error
        bad_i = (i < 1) | (i > self.m)
        bad_rc = (r < 1) | (r > self.n) | (c < 1) | (c > self.n)
        lower = r > c
        order = np.lexsort((c, r, i))  # stable: of equal keys, the first in input order leads
        keys = np.stack((i, r, c))[:, order]
        duplicate = np.zeros(len(triplets), dtype=bool)
        duplicate[order[1:][np.all(keys[:, 1:] == keys[:, :-1], axis=0)]] = True
        non_finite = ~np.isfinite(v)
        failed = np.flatnonzero(bad_i | bad_rc | lower | duplicate | non_finite)
        if len(failed):
            at = failed[0]
            ti, tr, tc, tv = triplets[at]
            if bad_i[at]:
                raise ValueError(f"constraint index {ti} outside [1, {self.m}]")
            if bad_rc[at]:
                raise ValueError(f"entry index ({tr}, {tc}) outside [1, {self.n}]^2")
            if lower[at]:
                raise ValueError(f"entry ({ti}, {tr}, {tc}) must satisfy row <= col")
            if duplicate[at]:
                raise ValueError(f"duplicate entry ({ti}, {tr}, {tc})")
            raise ValueError(f"entry ({ti}, {tr}, {tc}) has the non-finite value {float(tv)!r}")
        self.con, self.row, self.col = keys - 1
        self.val = v[order]
        self.width = None
        self._stack = None

    @classmethod
    def from_dense_list(cls, mats):
        shapes = set(map(np.shape, mats))
        if not shapes:
            raise ValueError("at least one constraint matrix is required")
        if len(shapes) > 1 or len(shape := shapes.pop()) != 2 or shape[0] != shape[1]:
            raise ValueError("all constraint matrices must share one dimension")
        a = np.asarray(mats, dtype=float)
        with np.errstate(invalid="ignore"):  # non-finite entries pass here; the constructor names them
            asymmetric = np.abs(a - a.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-10 * (1.0 + np.abs(a).max(axis=(1, 2)))
        if asymmetric.any():
            raise ValueError(f"constraint {np.argmax(asymmetric) + 1} is not symmetric")
        a = 0.5 * (a + a.swapaxes(1, 2))
        con, r, c = np.nonzero(np.triu(a))  # in (constraint, row, col) order, -0.0 left out and NaN kept
        entries = (con + 1, r + 1, c + 1, a[con, r, c])
        return cls(shape[0], len(a), zip(*(column.tolist() for column in entries)))

    def triplets(self):
        """Canonical (i, row, col, value) tuples, 1-based, sorted."""
        return list(zip((self.con + 1).tolist(), (self.row + 1).tolist(), (self.col + 1).tolist(), self.val.tolist()))

    def stack(self):
        """All constraints over one sparsity pattern; built once, then cached.

        Returns a :class:`ConstraintStack` whose ``indices``/``indptr`` are the
        full symmetric CSR pattern of the union of the supports of the
        ``A_i``, and whose sparse ``values`` (``nnz_union x m``) hold in
        column ``i`` the entries of ``A_i`` on that pattern.  Any weighted
        sum ``sum_i w_i A_i`` is then the CSR matrix with data
        ``values @ w``.  Mirrored entries sit in rows of ``values`` with
        identical contents, so every such sum is bitwise symmetric.

        ``half`` (``m n x n`` CSR) holds in row ``i n + r`` row ``r`` of the
        upper triangle of ``A_i`` with its off-diagonal entries as given and
        its diagonal halved, so that ``<A_i, x x'>`` is twice entry ``i`` of
        ``(half @ x).reshape(m, n) @ x``.  Nothing is doubled, so every entry
        stays finite, and halving is exact in binary (a subnormal diagonal
        entry aside).
        """
        if self._stack is None:
            n, m = self.n, self.m
            # every stored entry, then the mirror of every off-diagonal one, grouped by constraint
            off = self.row != self.col
            con = np.concatenate((self.con, self.con[off]))
            group = np.argsort(con, kind="stable")
            keys = np.concatenate((self.row * n + self.col, self.col[off] * n + self.row[off]))[group]
            data = np.concatenate((self.val, self.val[off]))[group]
            index = np.int32 if max(n, len(keys)) < 2**31 else np.int64
            ends = np.zeros(m + 1, dtype=index)
            np.cumsum(np.bincount(con, minlength=m), out=ends[1:])
            union, slot = np.unique(keys, return_inverse=True)  # the union pattern, and each key's slot in it
            slot = slot.astype(index, copy=False)
            del keys
            indptr = np.zeros(n + 1, dtype=index)
            np.cumsum(np.bincount(union // n, minlength=n), out=indptr[1:])
            indices = (union % n).astype(index)
            del union
            # column i of ``values`` lists A_i's entries at their union slots
            values = sp.csc_matrix((data, slot, ends), shape=(len(indices), m))
            # the stored entries are in CSR order already: row i n + r of ``half`` is row r of A_i's upper triangle
            index = np.int32 if max(m * n, len(self.val)) < 2**31 else np.int64
            half_ptr = np.zeros(m * n + 1, dtype=index)
            np.cumsum(np.bincount(self.con * n + self.row, minlength=m * n), out=half_ptr[1:])
            half_data = np.where(off, self.val, 0.5 * self.val)
            half = sp.csr_matrix((half_data, self.col.astype(index), half_ptr), shape=(m * n, n))
            self._stack = ConstraintStack(values, indices, indptr, half)
        return self._stack

    def compute_width(self):
        """Width ``max_i |A_i|_inf``; cached on the instance.

        Each ``|A_i|_inf`` is :func:`operator_norm` of the sparse matrix of
        ``A_i``, built in COO form from its own slice of the stored entries
        and their mirrors: exact at dense scale, ``n <= DENSE_LIMIT``, and
        above it a Lanczos estimate whose extreme Ritz values are stable to a
        relative ``LANCZOS_RTOL``, which is not a bound.
        """
        if self.width is None:
            n = self.n
            ends = np.searchsorted(self.con, np.arange(self.m + 1)).tolist()
            norms = []
            for start, stop in zip(ends[:-1], ends[1:]):
                r, c, v = self.row[start:stop], self.col[start:stop], self.val[start:stop]
                off = r != c
                a = sp.coo_matrix(
                    (np.concatenate((v, v[off])), (np.concatenate((r, c[off])), np.concatenate((c, r[off])))),
                    shape=(n, n),
                )
                norms.append(operator_norm(a))
            self.width = max(norms)
        return self.width


def _index_array(column):
    """One index column of a triplet list as ``int64``; raises ``TypeError`` unless its entries are integers."""
    arr = np.asarray(column)
    if arr.size and arr.dtype.kind not in "biu":
        raise TypeError(f"constraint, row and column indices must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def save_instance(instance, path):
    """Write the line-oriented text format: header ``n m``, lines ``i row col value``."""
    with open(path, "w") as fh:
        fh.write(f"{instance.n} {instance.m}\n")
        for (i, r, c, v) in instance.triplets():
            fh.write(f"{i} {r} {c} {v!r}\n")


def load_instance(path):
    """Parse the text format; raises :class:`InstanceFormatError` with line numbers."""
    header = None
    triplets = []
    seen = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise InstanceFormatError(
                        f"line {lineno}: header must be 'n m', got {raw.strip()!r}"
                    )
                try:
                    header = (int(parts[0]), int(parts[1]))
                except ValueError as err:
                    raise InstanceFormatError(f"line {lineno}: {err}") from err
                if header[1] < 1:
                    raise InstanceFormatError(f"line {lineno}: m must be >= 1")
                if header[0] < 1:
                    raise InstanceFormatError(f"line {lineno}: n must be >= 1")
                continue
            if len(parts) != 4:
                raise InstanceFormatError(
                    f"line {lineno}: expected 'i row col value', got {raw.strip()!r}"
                )
            try:
                i, r, c = int(parts[0]), int(parts[1]), int(parts[2])
                v = float(parts[3])
            except ValueError as err:
                raise InstanceFormatError(f"line {lineno}: {err}") from err
            if not math.isfinite(v):
                raise InstanceFormatError(f"line {lineno}: value {parts[3]!r} is not finite")
            n, m = header
            if not 1 <= i <= m:
                raise InstanceFormatError(
                    f"line {lineno}: constraint index {i} outside [1, {m}]"
                )
            if not (1 <= r <= n and 1 <= c <= n):
                raise InstanceFormatError(
                    f"line {lineno}: entry index ({r}, {c}) outside [1, {n}]^2"
                )
            if r > c:
                raise InstanceFormatError(f"line {lineno}: entries must have row <= col")
            if (i, r, c) in seen:
                raise InstanceFormatError(
                    f"line {lineno}: duplicate entry ({i}, {r}, {c}), first at line {seen[(i, r, c)]}"
                )
            seen[(i, r, c)] = lineno
            triplets.append((i, r, c, v))
    if header is None:
        raise InstanceFormatError("line 1: empty file, header 'n m' required")
    return SdpInstance(header[0], header[1], triplets)


def _adjoint_csr(instance, weights):
    """``sum_i w_i A_i`` as one CSR matrix over the instance's union pattern."""
    stack = instance.stack()
    return sp.csr_matrix(
        (stack.values @ weights, stack.indices, stack.indptr), shape=(instance.n, instance.n)
    )


def _gain_storage(instance, use_lanczos):
    """Storage for a weighted constraint sum and the product that fills it.

    Returns ``(gain, data, values)``: after ``data[:] = values @ w``,
    ``gain`` is ``sum_i w_i A_i``.  It is a dense n x n array, with ``data``
    its flat view, for exact projections, which decompose it densely, and
    for Krylov ones once the union pattern fills :data:`DENSE_GAIN_FILL` of
    it; ``values`` is then the stack's ``values`` with each union slot moved
    to its flat position, so every entry is the same sum as in the CSR
    data.  Below that fill ``gain`` is a CSR matrix over the union pattern
    and ``data`` its data.
    """
    stack = instance.stack()
    n, nnz = instance.n, len(stack.indices)
    if use_lanczos and nnz < DENSE_GAIN_FILL * n * n:
        gain = sp.csr_matrix((np.zeros(nnz), stack.indices, stack.indptr), shape=(n, n))
        return gain, gain.data, stack.values
    flat = np.repeat(np.arange(n), np.diff(stack.indptr)) * n + stack.indices
    values = sp.csc_matrix(
        (stack.values.data, flat[stack.values.indices], stack.values.indptr), shape=(n * n, instance.m)
    )
    gain = np.zeros((n, n))
    return gain, gain.reshape(-1), values


def costs(instance, action):
    """Cost vector ``c_i = <A_i, X>`` for a spectrahedron action.

    Every constraint is read once, over its upper triangle in the stack's
    ``half`` matrix, whose diagonal is halved: ``c`` is twice the product.
    A rank-1 action ``x x'`` costs one sparse product,
    ``c = 2 (half @ x).reshape(m, n) @ x``.  A dense ``X`` is read on the
    instance's stored entries with one gather, and the products are summed
    by constraint.  Scaling by two is exact, so ``c`` rounds as if the
    off-diagonal entries had been doubled instead.
    When the instance width is known, any cost exceeding it signals a
    broken action and raises.
    """
    if action.n != instance.n:
        raise ValueError("dimension mismatch")
    n, m = instance.n, instance.m
    half = instance.stack().half
    if action.is_rank1:
        x = action.factor
        out = (half @ x).reshape(m, n) @ x
    else:
        on_pattern = action.matrix.ravel()[instance.row * n + instance.col]
        out = np.bincount(instance.con, weights=half.data * on_pattern, minlength=m)
    out = 2.0 * out  # also a float array where bincount of no entries is not
    if instance.width is not None:
        limit = instance.width + 1e-9 * max(1.0, instance.width)
        if np.abs(out).max() > limit:
            raise ValueError(
                f"cost magnitude {np.abs(out).max():.6g} exceeds the instance width"
            )
    return out


@dataclass
class GapReport:
    """Duality gap value and its uncertainty interval, of zero width at dense scale."""

    value: float
    lo: float
    hi: float


def duality_gap(instance, action, y):
    """Duality gap ``lam_max(A* y) - min_i <A_i, X>`` with an uncertainty interval.

    ``lam_max`` and the interval's half-width come from :func:`top_eigenvalue`
    of the CSR matrix ``A* y``.  At dense scale, ``n <= DENSE_LIMIT``, it is
    one ``sytrd`` reduction and one ``stebz`` bisection, the bits LAPACK
    ``syevr`` gives, and the interval has zero width.  Above
    it, Lanczos runs until its Ritz values are stable to a relative
    ``LANCZOS_RTOL``, and the interval is padded by that amount; stable Ritz
    values are an estimate, not a bound.
    """
    lam_max, uncertainty = top_eigenvalue(_adjoint_csr(instance, np.asarray(y, dtype=float)))
    min_cost = float(costs(instance, action).min())
    value = lam_max - min_cost
    return GapReport(value=value, lo=value - uncertainty, hi=value + uncertainty)


def feasibility_schedule(instance, epsilon):
    """Step size and horizon for a target expected gap of ``epsilon``.

    ``T = ceil(8 log(4mn) omega^2 / epsilon^2)`` and
    ``eta = sqrt(log(4mn) / (2 omega^2 T))``, which balances the two terms of
    the expected-gap bound ``log(4mn)/(eta T) + 2 eta omega^2`` and makes it
    at most ``epsilon``.  A zero-width (all-zero) instance returns ``T = 1``.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    omega = instance.compute_width()
    if omega == 0.0:
        return 1.0, 1
    log_term = math.log(4.0 * instance.m * instance.n)
    horizon = math.ceil(8.0 * log_term * omega * omega / (epsilon * epsilon))
    eta = math.sqrt(log_term / (2.0 * omega * omega * horizon))
    return eta, int(horizon)


@dataclass
class FeasibilityResult:
    """Averaged iterates, certified gap, and the sign interval for the saddle value.

    ``completed`` says that the solve ran all ``T`` steps, which it always does.
    """

    x_avg: SpectrahedronAction
    y_avg: np.ndarray
    T: int
    eta: float
    omega: float
    gap: GapReport
    s_lower: float
    s_upper: float
    verdict: str
    matvecs: int
    wall_ns: int
    completed: bool
    x_factor_history: np.ndarray = field(repr=False)


def _drift_bound(omega, w, w_a, n):
    """A bound on ``|Y - Y_a|_2`` for the dense gain sums ``Y = fl(A* w)`` and ``Y_a = fl(A* w_a)`` of the solver.

    ``w`` and ``w_a`` are ``eta_y_sum`` now and earlier, so ``w >= w_a >= 0``:
    each step adds ``eta y >= 0``, and rounding is monotone.  An entry of
    ``fl(A* w)`` is a dot product of at most ``m`` terms, so
    ``fl(A* w) = A* w + E`` with ``|E_kl| <= gamma_m sum_i w_i |A_i|_kl``
    (``gamma_m = m u / (1 - m u)``, ``u = eps / 2``), and ``|E|_2 <= |E|_F <=
    gamma_m sum_i w_i |A_i|_F <= gamma_m sqrt(n) omega |w|_1``.  With
    ``|A*(w - w_a)|_2 <= omega |w - w_a|_1`` and ``|w_a|_1 <= |w|_1``,
    ``|Y - Y_a|_2 <= omega (|w - w_a|_1 + 2 gamma_m sqrt(n) |w|_1)``, and
    ``2 gamma_m <= (m + 1) eps`` while ``m (m + 1) eps <= 2``.  The factor
    ``1 + (4n + 2m + 8) eps`` covers the rounding of this bound: each
    difference rounds once, the sums of ``m`` nonnegative terms come out low
    by at most ``(m + 1) u`` relative, and three more operations round.  It
    also takes ``omega``, from :func:`operator_norm`, to be low by at most
    ``4 n eps`` relative: the ``p(n)`` that :func:`~mmwsketch.linalg.anchor`
    chooses for LAPACK's error bound, a choice rather than a proof.
    """
    m = len(w)
    moved = float(np.abs(w - w_a).sum())
    rounding = (m + 1) * _EPS * math.sqrt(n) * float(w.sum())
    return (1.0 + (4 * n + 2 * m + 8) * _EPS) * omega * (moved + rounding)


def _verdict(s_lower, s_upper):
    if s_lower > 0.0:
        return "feasible"
    if s_upper < 0.0:
        return "infeasible"
    return "undetermined-at-epsilon"


def solve_feasibility(instance, epsilon, delta=0.1, rng=None, use_lanczos=False):
    """Run the primal-dual saddle-point game and certify the sign of its value.

    Per step: the :class:`MatrixPlayer` (the online ``rank1_exact`` route,
    ``rank1_lanczos`` with ``use_lanczos``) plays the rank-1 sketch of the
    running scaled gain sum, the vector player the multiplicative-weights
    vector against the accumulated costs; they exchange gain
    ``sum_i y_i A_i`` and costs ``<A_i, X>``.  Averages of both players feed
    the duality gap.  The sign interval is ``[min_i <A_i, X_avg>,
    lam_max(A* y_avg)]``; 'feasible' means the strict system ``<A_i, X> > 0``
    for all i has the witness ``X_avg``, 'infeasible' means ``y_avg``
    certifies that no such X exists.  The exact sketch reduces the gain sum
    only at anchors, and in between widens the last anchor's interval by
    :func:`_drift_bound`, about ``eta omega`` per step, rounded up to a
    multiple of ``WIDEN_STEP``.  Krylov projections stop once their error
    is at most ``1/(4 T)``, with :func:`required_iterations` as the cap.
    With the gain sum kept dense (:func:`_gain_storage`) at dense scale they
    anchor and widen as the exact sketch does and sum the same series, whose
    stop proves that error bound given the interval; with it kept in CSR
    form, or above the dense limit, they are Lanczos runs stopped on Saad's
    estimate.  ``matvecs`` counts the products of either.  Only the played
    unit factors are kept: the costs and simplex plays follow from them.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not use_lanczos:
        require_dense(instance.n, "exact projection without --lanczos (use_lanczos=False)")
    if rng is None:
        rng = SeededRng(0)
    eta, horizon = feasibility_schedule(instance, epsilon)
    omega = instance.compute_width()
    n, m = instance.n, instance.m

    start_ns = time.perf_counter_ns()
    y_avg = np.zeros(m)
    cost_sum = np.zeros(m)
    eta_y_sum = np.zeros(m)  # accumulated eta * y_i: the scaled gain sum is A* eta_y_sum
    x_factor_history = np.zeros((horizon, n))
    matvecs = 0
    # the scaled gain sum A* eta_y_sum, whose storage each step rewrites in place
    gain, gain_data, gain_values = _gain_storage(instance, use_lanczos)
    gain_op = SparseSymOperator(n, lambda v: gain @ v, nnz_hint=gain.nnz if sp.issparse(gain) else n * n)
    player = MatrixPlayer(
        "rank1_lanczos" if use_lanczos else "rank1_exact", horizon, lambda: gain, gain_op,
        lambda t: required_iterations(eta * t * omega, min(1.0 / horizon, 0.5), delta / (2.0 * horizon), n),
    )
    anchored = np.zeros(m)  # eta_y_sum when the player last reduced the gain sum

    for t in range(1, horizon + 1):
        gain_data[:] = gain_values @ eta_y_sum
        if player.moved(lambda: _drift_bound(omega, eta_y_sum, anchored, n)) is not None:
            anchored[:] = eta_y_sum
        action = player.play(t, rng)
        matvecs += player.record[1]
        yw = softmax_grad(-eta * cost_sum)

        cost = costs(instance, action)
        y_avg += yw
        x_factor_history[t - 1] = action.factor
        cost_sum += cost
        eta_y_sum += eta * yw

    x_avg = np.zeros((n, n))
    for start in range(0, horizon, X_AVG_BLOCK):
        block = x_factor_history[start : start + X_AVG_BLOCK]
        x_avg += block.T @ block
    x_avg /= horizon
    y_avg /= horizon
    x_action = SpectrahedronAction.dense(x_avg)
    gap = duality_gap(instance, x_action, y_avg)
    s_lower = float(costs(instance, x_action).min())
    # lam_max(A* y_avg) padded by the eigenvalue-estimate uncertainty (0 at dense scale)
    s_upper = gap.hi + s_lower
    return FeasibilityResult(
        x_avg=x_action,
        y_avg=y_avg,
        T=horizon,
        eta=eta,
        omega=omega,
        gap=gap,
        s_lower=s_lower,
        s_upper=float(s_upper),
        verdict=_verdict(s_lower, s_upper),
        matvecs=matvecs,
        wall_ns=time.perf_counter_ns() - start_ns,
        completed=True,
        x_factor_history=x_factor_history,
    )


def make_random_instance(n, m, rng, density=0.5):
    """Random symmetric instance with every constraint scaled to unit operator norm."""
    mats = []
    for _ in range(m):
        a, lam = gaussian_symmetric(n, rng, density)
        scale = max(abs(lam[0]), abs(lam[-1]))
        if scale == 0.0:
            a[0, 0] = 1.0
            scale = 1.0
        mats.append(a * (1.0 / scale))  # by the reciprocal, not a division: keeps rand20x10's bits
    inst = SdpInstance.from_dense_list(mats)
    inst.compute_width()
    return inst


def builtin_instance(name):
    """Bundled instances: 'sym2x2' (saddle value exactly 0) and 'rand20x10'."""
    if name == "sym2x2":
        from importlib import resources

        ref = resources.files("mmwsketch").joinpath("data/sym2x2.sdpi")
        with resources.as_file(ref) as path:
            return load_instance(path)
    if name == "rand20x10":
        return make_random_instance(20, 10, SeededRng(1795), density=0.4)
    raise ValueError(f"unknown builtin instance {name!r}")
