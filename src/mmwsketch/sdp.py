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
    DENSE_LIMIT,
    SeededRng,
    SparseSymOperator,
    op_norm_bounds,
    sample_unit_sphere,
)
from .projections import (
    SimplexWeights,
    SpectrahedronAction,
    rank1_projection,
    rank1_projection_lanczos,
    softmax_grad,
)

VERDICTS = ("feasible", "infeasible", "undetermined-at-epsilon")

#: Played unit factors are buffered in blocks of this many rows and folded
#: into the dense average with one ``F' F`` product per block.
X_AVG_BLOCK = 64


class InstanceFormatError(ValueError):
    """Malformed instance file; message carries the offending line number."""


class ConstraintStack(NamedTuple):
    """Constraint values over the union CSR pattern (see :meth:`SdpInstance.stack`)."""

    values: sp.csc_matrix
    indices: np.ndarray
    indptr: np.ndarray


class SdpInstance:
    """Symmetric constraint matrices in upper-triplet form.

    Each constraint stores entries with ``row <= col``; the lower triangle is
    implied by symmetry.  ``width``, when provided, must equal
    ``max_i |A_i|_inf`` (validated lazily by :meth:`check_width`).
    """

    def __init__(self, n, m, triplets, width=None):
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
        self.width = None if width is None else float(width)
        self._csr = [None] * self.m
        self._stack = None

    @classmethod
    def from_dense_list(cls, mats, width=None):
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
        return cls(n, len(mats), triplets, width=width)

    def triplets(self):
        """Canonical (i, row, col, value) tuples, 1-based, sorted."""
        out = []
        for i in range(self.m):
            for r, c, v in zip(self.rows[i], self.cols[i], self.vals[i]):
                out.append((i + 1, int(r) + 1, int(c) + 1, float(v)))
        return out

    def dense(self, i):
        """Densified symmetric constraint matrix A_i (0-based index)."""
        a = np.zeros((self.n, self.n))
        r, c, v = self.rows[i], self.cols[i], self.vals[i]
        a[r, c] = v
        a[c, r] = v
        return a

    def csr(self, i):
        if self._csr[i] is None:
            r, c, v = self.rows[i], self.cols[i], self.vals[i]
            off = r != c
            rr = np.concatenate([r, c[off]])
            cc = np.concatenate([c, r[off]])
            vv = np.concatenate([v, v[off]])
            self._csr[i] = sp.csr_matrix((vv, (rr, cc)), shape=(self.n, self.n))
        return self._csr[i]

    def stack(self):
        """All constraints over one sparsity pattern; built once, then cached.

        Returns a :class:`ConstraintStack` whose ``indices``/``indptr`` are the
        full symmetric CSR pattern of the union of the supports of the
        ``A_i``, and whose sparse ``values`` (``nnz_union x m``) hold in
        column ``i`` the entries of ``A_i`` on that pattern.  Any weighted
        sum ``sum_i w_i A_i`` is then the CSR matrix with data
        ``values @ w``.  Mirrored entries sit in rows of ``values`` with
        identical contents, so every such sum is bitwise symmetric.
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
            self._stack = ConstraintStack(values, indices, indptr)
        return self._stack

    def compute_width(self, tol=1e-8, dense_limit=DENSE_LIMIT):
        """Width ``max_i |A_i|_inf``; cached on the instance."""
        if self.width is None:
            w = 0.0
            for i in range(self.m):
                if self.n <= dense_limit:
                    lam = np.linalg.eigvalsh(self.dense(i))
                    w = max(w, abs(lam[0]), abs(lam[-1]))
                else:
                    bounds = op_norm_bounds(SparseSymOperator.from_sparse(self.csr(i)), tol)
                    w = max(w, abs(bounds.lam_min), abs(bounds.lam_max))
            self.width = w
        return self.width

    def check_width(self, tol=1e-6):
        """Validate a precomputed width against a fresh computation."""
        if self.width is None:
            return True
        declared = self.width
        self.width = None
        actual = self.compute_width()
        self.width = declared
        return abs(declared - actual) <= tol * max(1.0, actual)


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


def adjoint_apply(instance, y):
    """Operator form of ``sum_i y_i A_i`` for simplex weights ``y``."""
    weights = y.weights if isinstance(y, SimplexWeights) else np.asarray(y, dtype=float)
    if weights.shape != (instance.m,):
        raise ValueError(f"expected {instance.m} weights, got shape {weights.shape}")
    if weights.min() < -1e-12 or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must lie on the simplex")
    return _adjoint_operator(instance, weights)


def _adjoint_csr(instance, weights):
    """``sum_i w_i A_i`` as one CSR matrix over the instance's union pattern."""
    stack = instance.stack()
    return sp.csr_matrix(
        (stack.values @ weights, stack.indices, stack.indptr), shape=(instance.n, instance.n)
    )


def _adjoint_operator(instance, weights):
    a = _adjoint_csr(instance, weights)
    return SparseSymOperator(instance.n, lambda v: a @ v, nnz_hint=a.nnz)


def _adjoint_dense(instance, weights):
    return _adjoint_csr(instance, weights).toarray()


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
    row_len = np.diff(stack.indptr)
    if action.is_rank1:
        x = action.factor
        on_pattern = np.repeat(x, row_len) * x[stack.indices]
    else:
        on_pattern = action.matrix[np.repeat(np.arange(instance.n), row_len), stack.indices]
    out = stack.values.T @ on_pattern
    if instance.width is not None:
        limit = instance.width + 1e-9 * max(1.0, instance.width)
        if np.abs(out).max() > limit:
            raise ValueError(
                f"cost magnitude {np.abs(out).max():.6g} exceeds the instance width"
            )
    return out


@dataclass
class GapReport:
    """Duality gap value with a certified uncertainty interval."""

    value: float
    lo: float
    hi: float

    @property
    def half_width(self):
        return 0.5 * (self.hi - self.lo)


def duality_gap(instance, action, y, tol=1e-8, dense_limit=DENSE_LIMIT):
    """Certified duality gap ``lam_max(A* y) - min_i <A_i, X>``.

    The top eigenvalue is exact at dense scale and estimated within ``tol``
    (relative) above it; the returned interval reflects that uncertainty.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    weights = y.weights if isinstance(y, SimplexWeights) else np.asarray(y, dtype=float)
    if instance.n <= dense_limit:
        lam = np.linalg.eigvalsh(_adjoint_dense(instance, weights))
        lam_max, uncertainty = float(lam[-1]), 0.0
    else:
        bounds = op_norm_bounds(_adjoint_operator(instance, weights), tol)
        lam_max = bounds.lam_max
        uncertainty = tol * max(1.0, abs(lam_max))
    min_cost = float(costs(instance, action).min())
    value = lam_max - min_cost
    return GapReport(value=value, lo=value - uncertainty, hi=value + uncertainty)


def feasibility_schedule(instance, epsilon, dense_limit=DENSE_LIMIT):
    """Step size and horizon for a target expected gap of ``epsilon``.

    ``T = ceil(8 log(4mn) omega^2 / epsilon^2)`` and
    ``eta = sqrt(log(4mn) / (2 omega^2 T))``, which balances the two terms of
    the expected-gap bound ``log(4mn)/(eta T) + 2 eta omega^2`` and makes it
    at most ``epsilon``.  A zero-width (all-zero) instance returns ``T = 1``.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    omega = instance.compute_width(dense_limit=dense_limit)
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
    cost_history: np.ndarray = field(repr=False, default=None)
    y_history: np.ndarray = field(repr=False, default=None)
    played_gain: np.ndarray = field(repr=False, default=None)
    x_factor_history: np.ndarray = field(repr=False, default=None)


def _verdict(s_lower, s_upper):
    if s_lower > 0.0:
        return "feasible"
    if s_upper < 0.0:
        return "infeasible"
    return "undetermined-at-epsilon"


def solve_feasibility(
    instance,
    epsilon,
    delta=0.1,
    rng=None,
    use_lanczos=False,
    dense_limit=DENSE_LIMIT,
    keep_history=True,
    time_budget_s=None,
):
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
    if rng is None:
        rng = SeededRng(0)
    eta, horizon = feasibility_schedule(instance, epsilon, dense_limit=dense_limit)
    omega = instance.compute_width(dense_limit=dense_limit)
    n, m = instance.n, instance.m
    if not use_lanczos and n > dense_limit:
        raise ValueError("exact projections require n <= dense limit; pass use_lanczos=True")

    start_ns = time.perf_counter_ns()
    x_avg = np.zeros((n, n))
    x_block = np.empty((min(X_AVG_BLOCK, horizon), n))  # played factors not yet in x_avg
    in_block = 0
    y_avg = np.zeros(m)
    cost_sum = np.zeros(m)
    eta_y_sum = np.zeros(m)  # accumulated eta * y_i: the scaled gain sum is A* eta_y_sum
    cost_history = np.zeros((horizon, m)) if keep_history else None
    y_history = np.zeros((horizon, m)) if keep_history else None
    played_gain = np.zeros(horizon) if keep_history else None
    x_factor_history = np.zeros((horizon, n)) if keep_history else None
    matvecs = 0
    steps_done = 0

    for t in range(1, horizon + 1):
        u = sample_unit_sphere(n, rng)
        if use_lanczos:
            base_op = _adjoint_operator(instance, eta_y_sum)
            k = min(required_iterations(eta * t * omega, min(1.0 / horizon, 0.5), delta / (2.0 * horizon), n), n)
            action = rank1_projection_lanczos(base_op, u, k, tol=0.25 / horizon)
            matvecs += base_op.matvec_count
        else:
            action = rank1_projection(_adjoint_dense(instance, eta_y_sum), u, dense_limit=dense_limit)
        y = softmax_grad(-eta * cost_sum)
        yw = y.weights

        cost = costs(instance, action)
        x_block[in_block] = action.factor
        in_block += 1
        if in_block == len(x_block):
            x_avg += x_block.T @ x_block
            in_block = 0
        y_avg += yw
        if keep_history:
            cost_history[t - 1] = cost
            y_history[t - 1] = yw
            played_gain[t - 1] = float(yw @ cost)
            x_factor_history[t - 1] = action.factor
        cost_sum += cost
        eta_y_sum += eta * yw
        steps_done = t
        if time_budget_s is not None and (time.perf_counter_ns() - start_ns) > time_budget_s * 1e9:
            break

    x_avg += x_block[:in_block].T @ x_block[:in_block]
    x_avg /= steps_done
    y_avg /= steps_done
    x_action = SpectrahedronAction.dense(0.5 * (x_avg + x_avg.T))
    gap = duality_gap(instance, x_action, y_avg, dense_limit=dense_limit)
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
        cost_history=cost_history[:steps_done] if keep_history else None,
        y_history=y_history[:steps_done] if keep_history else None,
        played_gain=played_gain[:steps_done] if keep_history else None,
        x_factor_history=x_factor_history[:steps_done] if keep_history else None,
    )
    return result


def simplex_regret_certificate(result, eta=None):
    """Deterministic multiplicative-weights regret check on a solve trace.

    Returns ``(lhs, rhs)`` with ``lhs = sum_t c_t . y_t - min_i sum_t c_t[i]``
    and ``rhs = log(m)/eta + (eta/2) sum_t |c_t|_inf^2``; every run satisfies
    ``lhs <= rhs``.
    """
    if result.cost_history is None:
        raise ValueError("solve was run with keep_history=False")
    eta = result.eta if eta is None else eta
    lhs = float(result.played_gain.sum() - result.cost_history.sum(axis=0).min())
    sq = np.abs(result.cost_history).max(axis=1) ** 2
    rhs = math.log(result.cost_history.shape[1]) / eta + 0.5 * eta * float(sq.sum())
    return lhs, rhs


def make_random_instance(n, m, rng, density=0.5, width=1.0):
    """Random symmetric instance with every constraint scaled to the given width."""
    mats = []
    for _ in range(m):
        a = rng.standard_normal((n, n))
        mask = rng.uniform(size=(n, n)) < density
        a = a * mask
        a = 0.5 * (a + a.T)
        lam = np.linalg.eigvalsh(a)
        scale = max(abs(lam[0]), abs(lam[-1]))
        if scale == 0.0:
            a[0, 0] = 1.0
            scale = 1.0
        mats.append(a * (width / scale))
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
        return make_random_instance(20, 10, SeededRng(1795), density=0.4, width=1.0)
    raise ValueError(f"unknown builtin instance {name!r}")
