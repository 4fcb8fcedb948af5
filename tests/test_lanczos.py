import math

import numpy as np
import pytest
import scipy.linalg

from mmwsketch import (
    ConvergenceError,
    SeededRng,
    SparseSymOperator,
    expm_multiply,
    lanczos_decompose,
    required_iterations,
)
from mmwsketch import lanczos
from conftest import expm_dense, random_symmetric


class TestDecomposition:
    def test_zero_operator_breaks_immediately(self, rng):
        b = rng.standard_normal(4)
        dec = lanczos_decompose(np.zeros((4, 4)), b, 3)
        assert dec.iterations == 1
        assert dec.terminated_early
        assert dec.alphas[0] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(dec.basis[:, 0], b / np.linalg.norm(b), atol=1e-14)

    def test_eigenvector_input_breaks_at_one(self):
        dec = lanczos_decompose(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 2)
        assert dec.iterations == 1
        assert dec.terminated_early
        assert dec.alphas[0] == pytest.approx(1.0, abs=1e-14)

    def test_full_run_recovers_spectrum(self, rng):
        a = random_symmetric(rng, 8)
        b = rng.standard_normal(8)
        dec = lanczos_decompose(a, b, 8, reorthogonalize=True)
        assert dec.iterations == 8
        ritz = np.linalg.eigvalsh(dec.tridiagonal())
        assert np.abs(np.sort(ritz) - np.sort(np.linalg.eigvalsh(a))).max() <= 1e-8

    def test_invariants_on_random_instances(self):
        rng = SeededRng(23)
        for _ in range(20):
            n = int(rng.integers(3, 14))
            k = int(rng.integers(2, n + 1))
            a = random_symmetric(rng, n)
            b = rng.standard_normal(n)
            dec = lanczos_decompose(a, b, k)
            q = dec.basis
            j = dec.iterations
            # orthonormal basis and normalized first column
            assert np.abs(q.T @ q - np.eye(j)).max() <= 1e-8
            assert np.abs(q[:, 0] - b / np.linalg.norm(b)).max() <= 1e-12
            # three-term recurrence: all residual columns except the last vanish
            resid = a @ q - q @ dec.tridiagonal()
            scale = 1.0 + np.abs(np.linalg.eigvalsh(a)).max()
            if j > 1:
                assert np.abs(resid[:, : j - 1]).max() <= 1e-8 * scale
            # the trailing residual column lies outside the basis span
            assert np.abs(q.T @ resid[:, j - 1]).max() <= 1e-8 * scale

    def test_zero_start_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            lanczos_decompose(np.eye(3), np.zeros(3), 2)

    def test_nonfinite_named_iteration(self, rng):
        op = SparseSymOperator(3, lambda v: v * np.nan)
        with pytest.raises(ConvergenceError, match="iteration 1"):
            lanczos_decompose(op, rng.standard_normal(3), 2)

        a = random_symmetric(rng, 6)
        with pytest.raises(ConvergenceError, match="iteration 3"):
            lanczos_decompose(_poisoned_on_call(a, 3, np.nan), rng.standard_normal(6), 5)
        # the last requested iteration skips the beta check; the matvec check must still fire
        with pytest.raises(ConvergenceError, match="iteration 5"):
            lanczos_decompose(_poisoned_on_call(a, 5, np.inf), rng.standard_normal(6), 5)

    def test_overflowing_finite_matvec_is_not_nonfinite(self):
        # entries near 1e300 are finite, but their squared norm overflows
        op = SparseSymOperator(2, lambda v: 1e300 * v)
        with np.errstate(over="ignore"):
            dec = lanczos_decompose(op, np.array([1.0, 0.0]), 2)
        assert dec.alphas[0] == pytest.approx(1e300, rel=1e-12)

    def test_oversized_k_clamped(self, rng):
        dec = lanczos_decompose(random_symmetric(rng, 5), rng.standard_normal(5), 50)
        assert dec.iterations <= 5


class TestExpmMultiply:
    def test_zero_matrix_is_identity(self, rng):
        b = rng.standard_normal(6)
        y = expm_multiply(np.zeros((6, 6)), b, 3)
        assert np.abs(y - b).max() <= 1e-12

    def test_eigenvector_exact_at_one_step(self):
        y = expm_multiply(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 1)
        assert np.allclose(y, [math.e, 0.0], atol=1e-12)

    def test_random_8x8_full_depth(self, rng):
        a = random_symmetric(rng, 8, op_norm=5.0)
        b = rng.standard_normal(8)
        approx = expm_multiply(a, b, 8)
        exact = expm_dense(a) @ b
        assert np.linalg.norm(approx - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_exactness_battery_full_dimension(self):
        rng = SeededRng(67)
        for trial in range(100):
            n = 2 + trial % 15
            a = random_symmetric(rng, n, op_norm=float(rng.uniform(0.5, 6.0)))
            b = rng.standard_normal(n)
            approx = expm_multiply(a, b, n, reorthogonalize=True)
            exact = expm_dense(a) @ b
            assert np.linalg.norm(approx - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_shift_equivariance(self):
        rng = SeededRng(5)
        a = random_symmetric(rng, 10, op_norm=3.0)
        b = rng.standard_normal(10)
        for c in (-20.0, -1.0, 0.5, 20.0):
            k = 6
            base = expm_multiply(a, b, k)
            shifted = expm_multiply(a + c * np.eye(10), b, k)
            assert np.linalg.norm(shifted - math.exp(c) * base) <= 1e-10 * np.linalg.norm(
                shifted
            )

    def test_monotone_improvement_in_depth(self):
        rng = SeededRng(9)
        errs = {k: [] for k in (2, 4, 8, 16)}
        for _ in range(15):
            a = random_symmetric(rng, 16, op_norm=4.0)
            b = rng.standard_normal(16)
            exact = expm_dense(a) @ b
            scale = np.linalg.norm(exact)
            for k in errs:
                err = np.linalg.norm(expm_multiply(a, b, k) - exact) / scale
                errs[k].append(err)
        medians = [np.median(errs[k]) for k in sorted(errs)]
        for lo, hi in zip(medians[1:], medians[:-1]):
            assert lo <= hi + 1e-12

    def test_normalized_mode_drops_scalar(self, rng):
        a = random_symmetric(rng, 6, op_norm=2.0)
        b = rng.standard_normal(6)
        full = expm_multiply(a, b, 6)
        bare = expm_multiply(a, b, 6, normalized=True)
        ratio = np.linalg.norm(full) / np.linalg.norm(bare)
        direction_gap = np.abs(full / np.linalg.norm(full) - bare / np.linalg.norm(bare))
        assert direction_gap.max() <= 1e-12
        assert ratio > 0

    def test_huge_spectrum_no_overflow_in_normalized_mode(self, rng):
        a = np.diag(np.linspace(0.0, 900.0, 12))
        b = rng.standard_normal(12)
        y = expm_multiply(a, b, 12, normalized=True)
        assert np.all(np.isfinite(y))
        # the dominant eigendirection wins by an astronomical margin
        assert abs(y[-1]) / np.linalg.norm(y) >= 1.0 - 1e-12


def _poisoned_on_call(a, bad_call, value):
    """Operator ``a`` whose ``bad_call``-th matvec has one entry replaced by ``value``."""
    calls = []

    def apply(v):
        calls.append(None)
        out = a @ v
        if len(calls) == bad_call:
            out[2] = value
        return out

    return SparseSymOperator(a.shape[0], apply)


def _count_eigensolves(monkeypatch):
    """Record the size of every tridiagonal eigenproblem solved."""
    sizes = []
    eigh = lanczos._tridiagonal_eigh
    monkeypatch.setattr(lanczos, "_tridiagonal_eigh", lambda al, be: sizes.append(len(al)) or eigh(al, be))
    return sizes


class TestErrorBudget:
    def test_tridiagonal_solver_matches_scipy(self, rng):
        for j in (1, 2, 5, 17, 60):
            alphas, betas = rng.standard_normal(j), np.abs(rng.standard_normal(j - 1)) + 0.1
            theta, v = lanczos._tridiagonal_eigh(alphas, betas)
            ref_theta, ref_v = scipy.linalg.eigh_tridiagonal(alphas, betas) if j > 1 else (alphas, np.ones((1, 1)))
            assert np.abs(theta - ref_theta).max() <= 1e-12
            assert np.abs(np.abs(v) - np.abs(ref_v)).max() <= 1e-10

    def test_no_budget_is_fixed_depth(self, rng):
        a = random_symmetric(rng, 12, op_norm=6.0)
        b = rng.standard_normal(12)
        dec = lanczos_decompose(a, b, 7, tol=None)
        assert dec.iterations == 7
        assert dec.error_estimate is None and dec.ritz is None
        # the product is the textbook formula on the k-step tridiagonal
        theta, v = scipy.linalg.eigh_tridiagonal(dec.alphas, dec.betas)
        coeff = v @ (np.exp(theta - theta.max()) * v[0, :])
        expected = dec.basis @ (dec.input_norm * coeff)
        for y in (expm_multiply(a, b, 7, normalized=True), expm_multiply(a, b, 7, normalized=True, tol=None)):
            assert np.linalg.norm(y - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_stop_reuses_the_last_check(self, rng, monkeypatch):
        a = random_symmetric(rng, 40, op_norm=1.0)
        b = rng.standard_normal(40)
        sizes = _count_eigensolves(monkeypatch)
        dec = lanczos_decompose(a, b, 40, tol=1e-6)
        y = dec.expm()
        j = dec.iterations
        assert j < 40
        # one check after every iteration, and no second eigensolve after the stop
        assert sizes == list(range(1, j + 1))
        assert dec.error_estimate <= 1e-6
        fixed = expm_multiply(a, b, j)
        assert np.linalg.norm(y - fixed) <= 1e-13 * np.linalg.norm(fixed)
        exact = expm_dense(a) @ b
        assert np.linalg.norm(y - exact) <= 10 * 1e-6 * np.linalg.norm(exact)

    def test_estimate_that_never_fires_stops_at_cap(self, monkeypatch):
        # a wide spectrum keeps the estimate far above the budget for 6 iterations
        a = np.diag(np.linspace(-60.0, 60.0, 50))
        b = np.ones(50)
        op = SparseSymOperator.from_dense(a)
        sizes = _count_eigensolves(monkeypatch)
        dec = lanczos_decompose(op, b, 6, tol=1e-10)
        assert dec.iterations == 6 and op.matvec_count == 6
        assert not dec.terminated_early
        assert dec.error_estimate > 1e-10
        assert sizes == [1, 2, 3, 4, 5, 6]
        # the recurrence itself is the fixed-depth one, bit for bit
        fixed = lanczos_decompose(a, b, 6)
        assert np.array_equal(dec.alphas, fixed.alphas)
        assert np.array_equal(dec.betas, fixed.betas)
        assert np.array_equal(dec.basis, fixed.basis)
        fixed_y = expm_multiply(a, b, 6)
        assert np.linalg.norm(dec.expm() - fixed_y) <= 1e-13 * np.linalg.norm(fixed_y)

    def test_breakdown_still_flagged(self, rng):
        dec = lanczos_decompose(np.zeros((4, 4)), rng.standard_normal(4), 3, tol=1e-3)
        assert dec.iterations == 1 and dec.terminated_early
        dec = lanczos_decompose(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 2, tol=1e-12)
        assert dec.iterations == 1 and dec.terminated_early
        assert dec.error_estimate == 0.0
        # reaching the cap on an exhausted space is not an early termination
        dec = lanczos_decompose(random_symmetric(rng, 5), rng.standard_normal(5), 5, tol=0.0)
        assert dec.iterations == 5 and not dec.terminated_early

    def test_nonfinite_checks_fire_with_budget(self, rng):
        a = random_symmetric(rng, 6)
        with pytest.raises(ConvergenceError, match="iteration 1"):
            lanczos_decompose(SparseSymOperator(3, lambda v: v * np.nan), rng.standard_normal(3), 2, tol=0.1)
        with pytest.raises(ConvergenceError, match="iteration 3"):
            lanczos_decompose(_poisoned_on_call(a, 3, np.nan), rng.standard_normal(6), 5, tol=1e-300)
        with pytest.raises(ConvergenceError, match="iteration 5"):
            lanczos_decompose(_poisoned_on_call(a, 5, np.inf), rng.standard_normal(6), 5, tol=1e-300)


class TestRequiredIterations:
    def test_frozen_small_example(self):
        # M = max(0, log(8), 1) = log 8; k = ceil(4 sqrt(M log(2M/0.25)))
        assert required_iterations(0.0, 0.5, 0.5, 2) == 10

    def test_monotone_in_norm_bound(self):
        base = required_iterations(10.0, 1e-2, 1e-1, 100)
        doubled = required_iterations(20.0, 1e-2, 1e-1, 100)
        assert base <= doubled <= math.ceil(base * math.sqrt(2.0) * 1.1)

    def test_grows_as_epsilon_shrinks(self):
        k3 = required_iterations(10.0, 1e-3, 0.1, 100)
        k6 = required_iterations(10.0, 1e-6, 0.1, 100)
        assert k6 > k3

    def test_depth_suffices_empirically(self):
        # calibration spot check: realized error far below target at the rule's k
        rng = SeededRng(41)
        a = random_symmetric(rng, 100, op_norm=10.0)
        b = rng.standard_normal(100)
        exact = expm_dense(a) @ b
        for eps in (1e-3, 1e-6):
            k = required_iterations(10.0, eps, 0.1, 100)
            err = np.linalg.norm(expm_multiply(a, b, k) - exact)
            assert err <= eps * math.exp(np.linalg.eigvalsh(a)[-1]) * 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            required_iterations(1.0, 0.0, 0.5, 4)
        with pytest.raises(ValueError):
            required_iterations(1.0, 0.5, 1.5, 4)
        with pytest.raises(ValueError):
            required_iterations(-1.0, 0.5, 0.5, 4)
        assert required_iterations(0.0, 0.9, 0.9, 1) >= 1
