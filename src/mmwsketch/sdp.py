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
    SeededRng,
    SparseSymOperator,
    gaussian_symmetric,
    operator_norm,
    require_dense,
    sample_unit_sphere,
    top_eigenvalue,
)
from .projections import (
    SimplexWeights,
    SpectrahedronAction,
    rank1_projection,
    rank1_projection_lanczos,
    softmax_grad,
)

VERDICTS = ("feasible", "infeasible", "undetermined-at-epsilon")

#: Played unit factors are folded into the dense average in blocks of this
#: many rows, with one ``F' F`` product per block.
X_AVG_BLOCK = 64


class InstanceFormatError(ValueError):
    """Malformed instance file; message carries the offending line number."""


class ConstraintStack(NamedTuple):
    """Constraint values over the union CSR pattern (see :meth:`SdpInstance.stack`)."""

    values: sp.csc_matrix
    indices: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values_t: sp.csr_matrix


class SdpInstance:
    """Symmetric constraint matrices in upper-triplet form.

    Each constraint stores entries with ``row <= col``; the lower triangle is
    implied by symmetry.  ``width`` is ``max_i |A_i|_inf`` once
    :meth:`compute_width` has run, and ``None`` before.
    """

    def __init__(self, n, m, triplets):
        if n < 1:
            raise ValueError("n must be >= 1")
        if m < 1:
            raise ValueError("m must be >= 1")
        self.n = int(n)
        self.m = int(m)
        self.rows = []
        self.cols = []
        self.vals = []
        seen = set()
        by_constraint = [[] for _ in range(self.m)]
        for (i, r, c, v) in triplets:
            if not (1 <= i <= self.m):
                raise ValueError(f"constraint index {i} outside [1, {self.m}]")
            if not (1 <= r <= self.n and 1 <= c <= self.n):
                raise ValueError(f"entry index ({r}, {c}) outside [1, {self.n}]^2")
            if r > c:
                raise ValueError(f"entry ({i}, {r}, {c}) must satisfy row <= col")
            key = (i, r, c)
            if key in seen:
                raise ValueError(f"duplicate entry ({i}, {r}, {c})")
            seen.add(key)
            by_constraint[i - 1].append((r - 1, c - 1, float(v)))
        for entries in by_constraint:
            entries.sort()
            self.rows.append(np.array([e[0] for e in entries], dtype=np.int64))
            self.cols.append(np.array([e[1] for e in entries], dtype=np.int64))
            self.vals.append(np.array([e[2] for e in entries], dtype=float))
        self.width = None
        self._stack = None

    @classmethod
    def from_dense_list(cls, mats):
        mats = [np.asarray(m, dtype=float) for m in mats]
        n = mats[0].shape[0]
        triplets = []
        for i, a in enumerate(mats, start=1):
            if a.shape != (n, n):
                raise ValueError("all constraint matrices must share one dimension")
            if np.abs(a - a.T).max() > 1e-10 * (1.0 + np.abs(a).max()):
                raise ValueError(f"constraint {i} is not symmetric")
            a = 0.5 * (a + a.T)
            for r in range(n):
                for c in range(r, n):
                    if a[r, c] != 0.0:
                        triplets.append((i, r + 1, c + 1, a[r, c]))
        return cls(n, len(mats), triplets)

    def triplets(self):
        """Canonical (i, row, col, value) tuples, 1-based, sorted."""
        out = []
        for i in range(self.m):
            for r, c, v in zip(self.rows[i], self.cols[i], self.vals[i]):
                out.append((i + 1, int(r) + 1, int(c) + 1, float(v)))
        return out

    def stack(self):
        """All constraints over one sparsity pattern; built once, then cached.

        Returns a :class:`ConstraintStack` whose ``indices``/``indptr`` are the
        full symmetric CSR pattern of the union of the supports of the
        ``A_i``, and whose sparse ``values`` (``nnz_union x m``) hold in
        column ``i`` the entries of ``A_i`` on that pattern.  Any weighted
        sum ``sum_i w_i A_i`` is then the CSR matrix with data
        ``values @ w``.  Mirrored entries sit in rows of ``values`` with
        identical contents, so every such sum is bitwise symmetric.
        ``rows``/``cols`` are each pattern entry's row and column as ``intp``,
        and ``values_t`` is ``values.T`` in CSR form, for :func:`costs`.
        """
        if self._stack is None:
            n = self.n
            # every stored entry and its mirror, keyed by row * n + col, constraint by constraint
            ends = np.cumsum(
                [0] + [len(v) + np.count_nonzero(r != c) for r, c, v in zip(self.rows, self.cols, self.vals)]
            )
            keys = np.empty(ends[-1], dtype=np.int64)
            data = np.empty(ends[-1])
            for i, (r, c, v) in enumerate(zip(self.rows, self.cols, self.vals)):
                off = r != c
                upper, mirror = slice(ends[i], ends[i] + len(v)), slice(ends[i] + len(v), ends[i + 1])
                keys[upper], keys[mirror] = r * n + c, c[off] * n + r[off]
                data[upper], data[mirror] = v, v[off]
            union = np.unique(keys)
            index = np.int32 if max(n, len(keys)) < 2**31 else np.int64
            slot = np.searchsorted(union, keys).astype(index)
            del keys
            indptr = np.searchsorted(union, np.arange(n + 1) * n).astype(index)
            indices = (union % n).astype(index)
            del union
            # column i of ``values`` lists A_i's entries at their union slots
            values = sp.csc_matrix((data, slot, ends.astype(index)), shape=(len(indices), self.m))
            rows = np.repeat(np.arange(n), np.diff(indptr))
            self._stack = ConstraintStack(
                values, indices, indptr, rows, indices.astype(np.intp), values.T.tocsr()
            )
        return self._stack

    def compute_width(self):
        """Width ``max_i |A_i|_inf``; cached on the instance.

        Each ``|A_i|_inf`` is :func:`operator_norm` of the CSR matrix of
        ``A_i``: exact at dense scale, ``n <= DENSE_LIMIT``, and above it a
        Lanczos estimate whose extreme Ritz values are stable to a relative
        ``LANCZOS_RTOL``, which is not a bound.
        """
        if self.width is None:
            self.width = max(operator_norm(_adjoint_csr(self, np.eye(1, self.m, i)[0])) for i in range(self.m))
        return self.width


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


def costs(instance, action):
    """Cost vector ``c_i = <A_i, X>`` for a spectrahedron action.

    All constraints are paired with ``X`` in one sparse product over the
    union pattern; a rank-1 action ``x x'`` is read on the pattern as
    ``x[row] * x[col]``.  When the instance width is known, any cost
    exceeding it signals a broken action and raises.
    """
    if action.n != instance.n:
        raise ValueError("dimension mismatch")
    stack = instance.stack()
    if action.is_rank1:
        x = action.factor
        on_pattern = x[stack.rows] * x[stack.cols]
    else:
        on_pattern = action.matrix[stack.rows, stack.cols]
    out = stack.values_t @ on_pattern
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
    one LAPACK ``syevr`` eigenvalue and the interval has zero width.  Above
    it, Lanczos runs until its Ritz values are stable to a relative
    ``LANCZOS_RTOL``, and the interval is padded by that amount; stable Ritz
    values are an estimate, not a bound.
    """
    weights = y.weights if isinstance(y, SimplexWeights) else np.asarray(y, dtype=float)
    lam_max, uncertainty = top_eigenvalue(_adjoint_csr(instance, weights))
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
    """Averaged iterates, certified gap, and the sign interval for the saddle value."""

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
    cost_history: np.ndarray = field(repr=False)
    y_history: np.ndarray = field(repr=False)
    x_factor_history: np.ndarray = field(repr=False)


def _verdict(s_lower, s_upper):
    if s_lower > 0.0:
        return "feasible"
    if s_upper < 0.0:
        return "infeasible"
    return "undetermined-at-epsilon"


def solve_feasibility(instance, epsilon, delta=0.1, rng=None, use_lanczos=False, time_budget_s=None):
    """Run the primal-dual saddle-point game and certify the sign of its value.

    Per step: draw a sphere vector, play the rank-1 sketch of the running
    scaled gain sum, play the multiplicative-weights vector against the
    accumulated costs, then exchange gain ``sum_i y_i A_i`` and costs
    ``<A_i, X>``.  Averages of both players feed the duality gap.  The sign
    interval is ``[min_i <A_i, X_avg>, lam_max(A* y_avg)]``; 'feasible' means
    the strict system ``<A_i, X> > 0`` for all i has the witness ``X_avg``,
    'infeasible' means ``y_avg`` certifies that no such X exists.  Krylov
    projections stop once their error estimate is at most ``1/(4 T)``, with
    :func:`required_iterations` as the cap.
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
    cost_history = np.zeros((horizon, m))
    y_history = np.zeros((horizon, m))
    x_factor_history = np.zeros((horizon, n))
    matvecs = 0
    steps_done = 0
    # the scaled gain sum A* eta_y_sum, one CSR whose data each step rewrites in place
    stack_values = instance.stack().values
    gain_csr = _adjoint_csr(instance, eta_y_sum)
    gain_op = SparseSymOperator(n, lambda v: gain_csr @ v, nnz_hint=gain_csr.nnz)

    for t in range(1, horizon + 1):
        u = sample_unit_sphere(n, rng)
        gain_csr.data[:] = stack_values @ eta_y_sum
        if use_lanczos:
            gain_op.matvec_count = 0
            k = min(required_iterations(eta * t * omega, min(1.0 / horizon, 0.5), delta / (2.0 * horizon), n), n)
            action = rank1_projection_lanczos(gain_op, u, k, tol=0.25 / horizon)
            matvecs += gain_op.matvec_count
        else:
            action = rank1_projection(gain_csr.toarray(), u)
        y = softmax_grad(-eta * cost_sum)
        yw = y.weights

        cost = costs(instance, action)
        y_avg += yw
        cost_history[t - 1] = cost
        y_history[t - 1] = yw
        x_factor_history[t - 1] = action.factor
        cost_sum += cost
        eta_y_sum += eta * yw
        steps_done = t
        if time_budget_s is not None and (time.perf_counter_ns() - start_ns) > time_budget_s * 1e9:
            break

    factors = x_factor_history[:steps_done]
    x_avg = np.zeros((n, n))
    for start in range(0, steps_done, X_AVG_BLOCK):
        block = factors[start : start + X_AVG_BLOCK]
        x_avg += block.T @ block
    x_avg /= steps_done
    y_avg /= steps_done
    x_action = SpectrahedronAction.dense(x_avg)
    gap = duality_gap(instance, x_action, y_avg)
    s_lower = float(costs(instance, x_action).min())
    # lam_max(A* y_avg) padded by the eigenvalue-estimate uncertainty (0 at dense scale)
    s_upper = gap.hi + s_lower
    result = FeasibilityResult(
        x_avg=x_action,
        y_avg=y_avg,
        T=steps_done,
        eta=eta,
        omega=omega,
        gap=gap,
        s_lower=s_lower,
        s_upper=float(s_upper),
        verdict=_verdict(s_lower, s_upper),
        matvecs=matvecs,
        wall_ns=time.perf_counter_ns() - start_ns,
        completed=steps_done == horizon,
        cost_history=cost_history[:steps_done],
        y_history=y_history[:steps_done],
        x_factor_history=factors,
    )
    return result


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
