"""Shared fixtures and independent oracles for the test suite.

Oracles deliberately go through numpy/scipy directly (not through the
package's own wrappers) so that each check pits two independent routes
against each other.
"""

import math

import numpy as np
import pytest

from mmwsketch import SeededRng


def expm_dense(a):
    """Dense matrix exponential through the eigendecomposition."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=float))
    return (v * np.exp(w)) @ v.T


def trace_norm(m):
    """Schatten-1 norm from dense eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


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


def simplex_regret_certificate(result):
    """Deterministic multiplicative-weights regret check on a feasibility solve.

    Returns ``(lhs, rhs)`` with ``lhs = sum_t c_t . y_t - min_i sum_t c_t[i]``
    and ``rhs = log(m)/eta + (eta/2) sum_t |c_t|_inf^2``; every run satisfies
    ``lhs <= rhs``.
    """
    costs, eta = result.cost_history, result.eta
    played = float(np.einsum("ti,ti->", result.y_history, costs))
    lhs = played - float(costs.sum(axis=0).min())
    rhs = math.log(costs.shape[1]) / eta + 0.5 * eta * float((np.abs(costs).max(axis=1) ** 2).sum())
    return lhs, rhs


@pytest.fixture
def rng():
    return SeededRng(20260809)
