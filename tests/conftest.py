"""Shared fixtures and independent oracles for the test suite.

Oracles deliberately go through numpy/scipy directly (not through the
package's own wrappers) so that each check pits two independent routes
against each other.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from mmwsketch import SeededRng, SparseSymOperator, anchor, lanczos_decompose, sample_unit_sphere
from mmwsketch.linalg import LANCZOS_RTOL
from mmwsketch.projections import SpectrahedronAction, softmax_grad
from mmwsketch.sdp import costs


def expm_dense(a):
    """Dense matrix exponential through the eigendecomposition."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=float))
    return (v * np.exp(w)) @ v.T


def trace_norm(m):
    """Schatten-1 norm from dense eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def exact_rank1_factor(y, u):
    """The rank-1 sketch factor through all eigenpairs of ``y``, by numpy's ``eigh``."""
    lam, q = np.linalg.eigh(y)
    v = q @ (np.exp(0.5 * (lam - lam[-1])) * (q.T @ u))
    return SpectrahedronAction.rank1(v / np.linalg.norm(v)).factor


def random_symmetric(rng, n, op_norm=None):
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    if op_norm is not None:
        lam = np.linalg.eigvalsh(a)
        a *= op_norm / max(abs(lam[0]), abs(lam[-1]))
    return a


def haar_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def with_spectrum(rng, spectrum):
    """A symmetric matrix with the given eigenvalues, in a Haar-random basis."""
    q = haar_orthogonal(rng, len(spectrum))
    a = (q * spectrum) @ q.T
    return 0.5 * (a + a.T)


def certified_stop_cases(rng):
    """``(name, Y, lo, hi)``: matrices with an interval that holds their spectrum, from an anchor or exact."""
    n = 12
    named = (
        ("random", random_symmetric(rng, n, op_norm=3.0)),
        ("clustered", with_spectrum(rng, 3.0 + 1e-10 * rng.standard_normal(n))),
        ("graded", with_spectrum(rng, 20.0 * 0.5 ** np.arange(n))),
        ("zero", np.zeros((5, 5))),
        ("identity", -4.0 * np.eye(5)),
        ("large_identity", 3e3 * np.eye(5)),
        ("one_by_one", np.array([[-2.5]])),
    )
    for name, a in named:
        form = anchor(a)
        yield name, a, form.lo, form.hi
    # |Y| ~ 1e19: a permuted diagonal, whose spectrum and interval ends (multiples of 2048 = ulp(1e19), the midpoint
    # among them) are exact, so that the shift in the series and the oracle's Y - hi I are exact too
    perm = np.eye(6)[[3, 0, 5, 1, 4, 2]]
    yield "huge", perm @ np.diag(1e19 + 2048.0 * np.array([0, 1, 2, 5, 5, 8])) @ perm.T, 1e19, 1e19 + 2048.0 * 8
    yield "one_by_one_wide", np.array([[7.0]]), 5.0, 9.0


def tridiagonal(dec):
    """The tridiagonal matrix of a Lanczos decomposition, dense."""
    return np.diag(dec.alphas) + np.diag(dec.betas, 1) + np.diag(dec.betas, -1)


def symmetry_defect(op, rng, probes=8):
    """Largest normalized asymmetry ``|a'(Op b) - b'(Op a)|`` over random probes.

    The defect is normalized by ``|a| |b| |Op|``, with the operator norm
    estimated from the probe images, so a well-formed operator scores at
    roundoff level (<= 1e-8 is the library-wide contract).
    """
    worst = 0.0
    op_scale = 0.0
    for _ in range(probes):
        a = rng.standard_normal(op.n)
        b = rng.standard_normal(op.n)
        opa = op.matvec(a)
        opb = op.matvec(b)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        op_scale = max(op_scale, np.linalg.norm(opa) / na, np.linalg.norm(opb) / nb)
        worst = max(worst, abs(a @ opb - b @ opa) / (na * nb))
    return worst / max(op_scale, 1e-300)


def dense_constraint(instance, i):
    """The constraint ``A_i`` (0-based) of an ``SdpInstance``, densified from its own upper triplets."""
    a = np.zeros((instance.n, instance.n))
    mine = instance.con == i
    r, c, v = instance.row[mine], instance.col[mine], instance.val[mine]
    a[r, c] = v
    a[c, r] = v
    return a


def upper_triplets_by_loop(n, m, triplets):
    """Per-constraint sorted ``(rows, cols, vals)`` of an ``SdpInstance``, checked one triplet at a time.

    The reference for the vectorized constructor: the first triplet that
    fails a check raises, and the checks run in the constructor's order
    (constraint index, entry range, ``row <= col``, duplicate, finite value).
    """
    seen = set()
    by_constraint = [[] for _ in range(m)]
    for (i, r, c, v) in triplets:
        if not (1 <= i <= m):
            raise ValueError(f"constraint index {i} outside [1, {m}]")
        if not (1 <= r <= n and 1 <= c <= n):
            raise ValueError(f"entry index ({r}, {c}) outside [1, {n}]^2")
        if r > c:
            raise ValueError(f"entry ({i}, {r}, {c}) must satisfy row <= col")
        key = (i, r, c)
        if key in seen:
            raise ValueError(f"duplicate entry ({i}, {r}, {c})")
        if not math.isfinite(float(v)):
            raise ValueError(f"entry ({i}, {r}, {c}) has the non-finite value {float(v)!r}")
        seen.add(key)
        by_constraint[i - 1].append((r - 1, c - 1, float(v)))
    rows, cols, vals = [], [], []
    for entries in by_constraint:
        entries.sort()
        rows.append(np.array([e[0] for e in entries], dtype=np.int64))
        cols.append(np.array([e[1] for e in entries], dtype=np.int64))
        vals.append(np.array([e[2] for e in entries], dtype=float))
    return rows, cols, vals


def union_stack_by_unique(instance):
    """``(values, indices, indptr)`` of the union-pattern stack, built with ``np.unique`` and ``searchsorted``."""
    n = instance.n
    triples = [(instance.row[mine], instance.col[mine], instance.val[mine])
               for mine in (instance.con == i for i in range(instance.m))]
    ends = np.cumsum([0] + [len(v) + np.count_nonzero(r != c) for r, c, v in triples])
    keys = np.empty(ends[-1], dtype=np.int64)
    data = np.empty(ends[-1])
    for i, (r, c, v) in enumerate(triples):
        off = r != c
        upper, mirror = slice(ends[i], ends[i] + len(v)), slice(ends[i] + len(v), ends[i + 1])
        keys[upper], keys[mirror] = r * n + c, c[off] * n + r[off]
        data[upper], data[mirror] = v, v[off]
    union = np.unique(keys)
    index = np.int32 if max(n, len(keys)) < 2**31 else np.int64
    slot = np.searchsorted(union, keys).astype(index)
    indptr = np.searchsorted(union, np.arange(n + 1) * n).astype(index)
    indices = (union % n).astype(index)
    values = sp.csc_matrix((data, slot, ends.astype(index)), shape=(len(indices), instance.m))
    return values, indices, indptr


def doubled_half_costs(instance, action):
    """``<A_i, X>`` by the doubled-off-diagonal rule, the reference for ``costs``' halved-diagonal rule.

    Each upper triangle is read in CSR order with its off-diagonal entries
    doubled and its diagonal as given, and the products need no final scale:
    ``(half @ x).reshape(m, n) @ x`` for a rank-1 action, a sum by
    constraint of ``half * X[row, col]`` for a dense one.
    """
    n, m = instance.n, instance.m
    trip = instance.triplets()
    i, r, c = (np.array([t[k] - 1 for t in trip], dtype=np.int64) for k in range(3))
    v = np.array([t[3] for t in trip], dtype=float)
    half = np.where(r == c, v, 2.0 * v)
    if action.is_rank1:
        x = action.factor
        indptr = np.searchsorted(i * n + r, np.arange(m * n + 1))
        return (sp.csr_matrix((half, c, indptr), shape=(m * n, n)) @ x).reshape(m, n) @ x
    return np.bincount(i, weights=half * action.matrix[r, c], minlength=m).astype(float)


def upper_triplets_of_dense_by_loop(mats):
    """The ``(i, row, col, value)`` triplets of symmetric matrices, 1-based, one upper-triangle entry at a time.

    The reference for ``SdpInstance.from_dense_list``: each matrix is
    symmetrized as ``(a + a') / 2`` and every entry with ``row <= col`` that
    compares unequal to zero is kept (NaN is kept, ``-0.0`` is not).
    """
    triplets = []
    for i, a in enumerate(mats, start=1):
        a = np.asarray(a, dtype=float)
        a = 0.5 * (a + a.T)
        for r in range(a.shape[0]):
            for c in range(r, a.shape[0]):
                if a[r, c] != 0.0:
                    triplets.append((i, r + 1, c + 1, a[r, c]))
    return triplets


def replay_simplex(instance, result):
    """``(costs, ys)``, each ``T x m``: every step's cost vector and simplex play in a feasibility solve.

    Replayed from the played unit factors alone, as the solver computes
    them, so to the bit: ``c_t = costs(instance, x_t x_t')`` and
    ``y_t = softmax_grad(-eta sum_{s<t} c_s)``.
    """
    horizon, m = result.T, instance.m
    cost_rows, ys, cost_sum = np.zeros((horizon, m)), np.zeros((horizon, m)), np.zeros(m)
    for t, factor in enumerate(result.x_factor_history):
        ys[t] = softmax_grad(-result.eta * cost_sum)
        cost_rows[t] = costs(instance, SpectrahedronAction(factor=factor))
        cost_sum += cost_rows[t]
    return cost_rows, ys


def simplex_regret_certificate(instance, result):
    """Deterministic multiplicative-weights regret check on a feasibility solve.

    Returns ``(lhs, rhs)`` with ``lhs = sum_t c_t . y_t - min_i sum_t c_t[i]``
    and ``rhs = log(m)/eta + (eta/2) sum_t |c_t|_inf^2``; every run satisfies
    ``lhs <= rhs``.
    """
    cost_rows, ys = replay_simplex(instance, result)
    eta = result.eta
    played = float(np.einsum("ti,ti->", ys, cost_rows))
    lhs = played - float(cost_rows.sum(axis=0).min())
    rhs = math.log(cost_rows.shape[1]) / eta + 0.5 * eta * float((np.abs(cost_rows).max(axis=1) ** 2).sum())
    return lhs, rhs


def rank_one_within_by_outer(a, lo, hi):
    """``(decision, E)`` of ``linalg.rank_one_within(a, lo, hi)`` with ``b b'`` from ``np.multiply.outer``.

    The reference for the library's one-call rank-one update: the same pivot,
    2x2-minor exit, residual ``E = a - b b'`` and error bound, with numpy's
    own outer product.  ``E`` is ``None`` where the test exits before forming it.
    The lower end is tested against the bound on ``|E|_F``, the upper end also
    against the rounding of ``|b|^2``.
    """
    n = a.shape[0]
    eps = float(np.finfo(float).eps)
    diag = a.diagonal()
    i = int(diag.argmax())
    pivot = float(diag[i])
    if not 0.0 < pivot < math.inf:
        return False, None
    if n > 1:
        ajj, aij = float(diag[i - 1]), float(a[i, i - 1])
        if abs(pivot * ajj - aij * aij) > 64.0 * eps * pivot * abs(ajj):
            return False, None
    b = a[:, i] / math.sqrt(pivot)
    b_sq = float(b @ b)
    if not b_sq < math.inf:
        return False, None
    resid = a - np.multiply.outer(b, b)
    flat = resid.ravel()
    e_norm = math.sqrt(flat @ flat)
    e_bound = (1.0 + (n * n + 8) * eps) * e_norm + 2.0 * eps * b_sq + n * 2.0**-537
    err = (1.0 + (n * n + 8) * eps) * e_norm + 4.0 * (n + 2) * eps * b_sq + n * 2.0**-537
    return lo <= -e_bound and b_sq + err <= hi, resid


def lanczos_extremes_by_restart(a):
    """``linalg._lanczos_extremes(a)`` with a fresh ``lanczos_decompose`` run to every depth it checks.

    The reference for the library's single growing run: the same start
    vector, depths ``k, 2k, 4k, ...`` (capped at ``n``), Ritz values from
    ``stevd`` and stop rule.  Also returns the matvecs that all runs made.
    """
    n = a.shape[0]
    op = SparseSymOperator(n, lambda v: a @ v)
    k = min(n, max(8, 2 * int(np.ceil(np.log(max(n, 2))))))
    b = sample_unit_sphere(n, SeededRng(0x5EED_0B0B))
    prev = None
    while True:
        dec = lanczos_decompose(op, b, k)
        theta = dec.alphas
        if dec.iterations > 1:
            theta = scipy.linalg.lapack.dstevd(dec.alphas, dec.betas, compute_v=0)[0]
        est = (float(theta.min()), float(theta.max()))
        if dec.terminated_early or dec.iterations >= n:
            return est, op.matvec_count
        if prev is not None and all(abs(e - p) <= 0.5 * LANCZOS_RTOL * max(1.0, abs(e)) for e, p in zip(est, prev)):
            return est, op.matvec_count
        prev = est
        k = min(2 * k, n)


def budgeted_sketch_by_layers(apply_y, u, k, tol):
    """``(factor, error_estimate, matvecs)`` of the budgeted rank-1 Krylov sketch, written out step by step.

    The reference for ``rank1_projection_lanczos(op, u, k, tol)`` with ``op``
    computing ``apply_y(v) = Y v``: the loop the library ran before its sketch
    was made lean, with every product ``0.5 * apply_y(v)``, two Gram-Schmidt
    sweeps per iteration, a ``stevd`` check of Saad's estimate after every
    iteration, the product ``V c`` from the basis and the unit factor with
    its canonical sign.
    """
    n = len(u)
    k = min(int(k), n)
    input_norm = math.sqrt(u @ u)
    rows, alphas, betas = np.empty((k, n)), np.empty(k), np.empty(k)
    rows[0] = u / input_norm
    scale = 1.0
    for i in range(k):
        j = i + 1
        w = 0.5 * apply_y(rows[i])
        scale = max(scale, math.sqrt(w @ w))
        h = rows[:j] @ w
        w = w - h @ rows[:j]
        h2 = rows[:j] @ w
        w -= h2 @ rows[:j]
        alphas[i] = h[i] + h2[i]
        beta = math.sqrt(w @ w)
        if j == 1:
            theta, v = alphas[:1].copy(), np.ones((1, 1))
        else:
            theta, v, info = scipy.linalg.lapack.dstevd(alphas[:j], betas[:i], compute_v=1)
            assert info == 0
        s = np.exp(theta - theta[-1]) * v[0, :]
        estimate = beta * abs(float(v[-1] @ s)) / math.sqrt(s @ s)
        if estimate <= tol or beta <= 1e-12 * scale or j == k:
            break
        betas[i] = beta
        rows[j] = w / beta
    y = rows[:j].T @ (input_norm * (v @ s))
    x = y / math.sqrt(y @ y)
    x /= math.sqrt(x @ x)
    if x[np.nonzero(x)[0][0]] < 0:
        x = -x
    return x, estimate, j


@pytest.fixture
def extremes_against_restart(monkeypatch):
    """Every ``linalg._lanczos_extremes`` call, as ``(result, lanczos_extremes_by_restart's result)``.

    Each call also runs the oracle on the same matrix and still returns the
    library's result, so a run's other outputs are the library's own.
    """
    import mmwsketch.linalg as linalg

    extremes, pairs = linalg._lanczos_extremes, []

    def both(a):
        pairs.append((extremes(a), lanczos_extremes_by_restart(a)[0]))
        return pairs[-1][0]

    monkeypatch.setattr(linalg, "_lanczos_extremes", both)
    return pairs


@pytest.fixture
def rng():
    return SeededRng(20260809)
