import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwsketch import (
    Schedule,
    SeededRng,
    SparseSymOperator,
    builtin_adversaries,
    default_eta,
    estimate_avg_projection_direct,
    estimate_avg_projection_dirichlet,
    estimate_bregman,
    estimate_potential,
    kt_schedule,
    mmw_projection,
    rank1_projection,
    rank1_projection_lanczos,
    run_online,
    sample_unit_sphere,
    softmax_grad,
    solve_feasibility,
    trace_norm_distance,
)
from mmwsketch import linalg
from mmwsketch.linalg import AnchoredForm, ConvergenceError, anchor, dense_eigh
from mmwsketch.online import REFINED_ETA_MAX
from mmwsketch.projections import SpectrahedronAction
from mmwsketch.lanczos import required_iterations
from mmwsketch.sdp import _adjoint_csr, _gain_storage, builtin_instance, make_random_instance
from conftest import (
    budgeted_sketch_by_layers,
    expm_dense,
    haar_orthogonal,
    random_symmetric,
    replay_simplex,
    trace_norm,
)


class TestSoftmaxGrad:
    def test_uniform(self):
        assert np.allclose(softmax_grad(np.zeros(4)), 0.25, atol=1e-15)

    def test_log_three(self):
        w = softmax_grad(np.array([math.log(3.0), 0.0]))
        assert np.allclose(w, [0.75, 0.25], atol=1e-14)

    def test_shift_invariance(self, rng):
        c = rng.standard_normal(6)
        w1 = softmax_grad(c)
        w2 = softmax_grad(c + 7.0)
        assert np.abs(w1 - w2).max() <= 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax_grad(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("c", [np.zeros(0), np.zeros((2, 2)), np.float64(1.0)])
    def test_rejects_all_but_a_nonempty_vector(self, c):
        with pytest.raises(ValueError, match="nonempty vector"):
            softmax_grad(c)

    def test_simplex_membership(self, rng):
        w = softmax_grad(rng.standard_normal(9) * 50)
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) <= 1e-12


class TestSpectrahedronAction:
    def test_rank1_canonical_sign(self):
        x = np.array([-0.6, 0.8])
        act = SpectrahedronAction.rank1(x)
        assert act.factor[0] > 0
        assert np.allclose(act.densify(), np.outer(x, x), atol=1e-15)

    def test_rank1_requires_unit_norm(self):
        with pytest.raises(ValueError):
            SpectrahedronAction.rank1(np.array([1.0, 1.0]))

    def test_inner_agreement(self, rng):
        x = sample_unit_sphere(5, rng)
        g = random_symmetric(rng, 5)
        act = SpectrahedronAction.rank1(x)
        dense = SpectrahedronAction.dense(act.densify())
        assert abs(act.inner(g) - dense.inner(g)) <= 1e-10

    def test_validate_dense(self):
        SpectrahedronAction.dense(np.eye(3) / 3.0).validate()
        with pytest.raises(ValueError):
            SpectrahedronAction.dense(np.diag([1.5, -0.5])).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_validate_rejects_non_finite_factor(self, value):
        act = SpectrahedronAction.rank1(np.array([0.6, 0.8]))
        act.validate()
        act.factor[1] = value
        with pytest.raises(ValueError, match="^rank-1 factor must be a unit vector$"):
            act.validate()


class TestMmwProjection:
    def test_zero_gives_uniform(self):
        x = mmw_projection(np.zeros((3, 3)))
        assert np.allclose(x.matrix, np.eye(3) / 3.0, atol=1e-14)

    def test_diagonal_example(self):
        x = mmw_projection(np.diag([math.log(3.0), 0.0]))
        assert np.allclose(x.matrix, np.diag([0.75, 0.25]), atol=1e-14)

    def test_random_matches_oracle(self, rng):
        y = random_symmetric(rng, 6)
        x = mmw_projection(y)
        e = expm_dense(y)
        assert np.abs(x.matrix - e / np.trace(e)).max() <= 1e-10
        x.validate()

    def test_shift_invariance(self, rng):
        y = random_symmetric(rng, 5)
        base = mmw_projection(y)
        for c in (-50.0, 50.0):
            assert np.abs(mmw_projection(y + c * np.eye(5)).matrix - base.matrix).max() <= 1e-10

    def test_rotation_equivariance(self, rng):
        y = random_symmetric(rng, 6)
        r = haar_orthogonal(rng, 6)
        lhs = mmw_projection(r @ y @ r.T).matrix
        rhs = r @ mmw_projection(y).matrix @ r.T
        assert np.abs(lhs - rhs).max() <= 1e-9

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.floats(0.0, 30.0))
    def test_unit_trace_and_psd_property(self, n, seed, op_norm):
        x = mmw_projection(random_symmetric(SeededRng(seed), n, op_norm=op_norm if op_norm > 0.0 else None))
        assert abs(np.trace(x.matrix) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(x.matrix)[0] >= -1e-12

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
    def test_shift_invariance_property(self, n, seed, c):
        y = random_symmetric(SeededRng(seed), n)
        shifted = mmw_projection(y + c * np.eye(n)).matrix
        assert np.abs(shifted - mmw_projection(y).matrix).max() <= 1e-10

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_rotation_equivariance_property(self, n, seed):
        rng = SeededRng(seed)
        y = random_symmetric(rng, n)
        r = haar_orthogonal(rng, n)
        lhs = mmw_projection(r @ y @ r.T).matrix
        assert np.abs(lhs - r @ mmw_projection(y).matrix @ r.T).max() <= 1e-9


class TestRank1Projection:
    def test_zero_matrix(self, rng):
        u = sample_unit_sphere(4, rng)
        act = rank1_projection(np.zeros((4, 4)), u)
        assert np.abs(act.densify() - np.outer(u, u)).max() <= 1e-12

    def test_identity_multiple(self, rng):
        u = sample_unit_sphere(3, rng)
        for c in (-11.0, 4.0):
            act = rank1_projection(c * np.eye(3), u)
            assert np.abs(act.densify() - np.outer(u, u)).max() <= 1e-12

    def test_hand_computed_example(self):
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        act = rank1_projection(np.diag([math.log(4.0), 0.0]), u)
        expected = np.array([[4.0, 2.0], [2.0, 1.0]]) / 5.0
        assert np.abs(act.densify() - expected).max() <= 1e-12

    def test_shift_invariance_battery(self):
        rng = SeededRng(51)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            y = random_symmetric(rng, n)
            u = sample_unit_sphere(n, rng)
            base = rank1_projection(y, u)
            c = float(rng.uniform(-50.0, 50.0))
            shifted = rank1_projection(y + c * np.eye(n), u)
            assert np.abs(base.factor - shifted.factor).max() <= 1e-10

    def test_rotation_equivariance_battery(self):
        rng = SeededRng(52)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            y = random_symmetric(rng, n)
            u = sample_unit_sphere(n, rng)
            r = haar_orthogonal(rng, n)
            lhs = rank1_projection(r @ y @ r.T, r @ u).densify()
            rhs = r @ rank1_projection(y, u).densify() @ r.T
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_requires_unit_vector(self, rng):
        with pytest.raises(ValueError):
            rank1_projection(np.zeros((3, 3)), np.ones(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "project",
        [
            pytest.param(rank1_projection, id="exact"),
            pytest.param(lambda y, u: rank1_projection_lanczos(y, u, 3), id="krylov"),
        ],
    )
    def test_non_finite_u_rejected(self, project, value):
        u = np.full(4, 0.5)
        u[1] = value
        with pytest.raises(ValueError, match="^u must be a unit vector$"):
            project(np.eye(4), u)

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
    def test_shift_invariance_property(self, n, seed, c):
        rng = SeededRng(seed)
        y = random_symmetric(rng, n)
        u = sample_unit_sphere(n, rng)
        form = anchor(y + c * np.eye(n))
        assert np.abs(rank1_projection(form, u).factor - rank1_projection(y, u).factor).max() <= 1e-10

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_rotation_equivariance_property(self, n, seed):
        rng = SeededRng(seed)
        y = random_symmetric(rng, n)
        u = sample_unit_sphere(n, rng)
        r = haar_orthogonal(rng, n)
        lhs = rank1_projection(anchor(r @ y @ r.T), r @ u).densify()
        rhs = r @ rank1_projection(y, u).densify() @ r.T
        assert np.abs(lhs - rhs).max() <= 1e-9


class TestEigenDecompositionInput:
    """Each dense projection takes its decomposition of ``y`` in place of ``y`` and returns the same bits."""

    @pytest.mark.parametrize(
        "decompose,project",
        [
            pytest.param(dense_eigh, lambda y: mmw_projection(y).matrix, id="mmw"),
            pytest.param(
                anchor, lambda y: rank1_projection(y, np.full(6, 1.0 / math.sqrt(6.0))).factor, id="rank1"
            ),
            pytest.param(
                dense_eigh,
                lambda y: estimate_avg_projection_dirichlet(y, 300, SeededRng(4)).action.matrix,
                id="dirichlet",
            ),
        ],
    )
    def test_same_bits_as_matrix(self, rng, decompose, project):
        y = random_symmetric(rng, 6, op_norm=3.0)
        assert np.array_equal(project(decompose(y)), project(y))

    @staticmethod
    def _assert_checks_run(monkeypatch, form, n):
        with pytest.raises(ValueError, match="unit vector"):
            rank1_projection(form, np.ones(n))
        # exp(Y/2) u cannot vanish for a symmetric Y, so a zero or NaN v signals a shifting bug: the
        # form's own route runs, and its v is then zeroed or spoiled
        exp_half = AnchoredForm.exp_half
        for spoil in (0.0, math.nan):
            with monkeypatch.context() as patched:
                patched.setattr(AnchoredForm, "exp_half", lambda form, x: spoil * exp_half(form, x))
                with pytest.raises(ArithmeticError, match="underflowed"):
                    rank1_projection(form, np.eye(n)[0])

    def test_checks_still_run(self, monkeypatch, rng):
        solves = _count_dense_eigh(monkeypatch)
        form = anchor(random_symmetric(rng, 4, op_norm=1.0))
        rank1_projection(form, sample_unit_sphere(4, rng))
        assert solves == [4]  # 83 r > n^2 at n = 4: the eigenpairs of Y
        self._assert_checks_run(monkeypatch, form, 4)

    def test_checks_still_run_on_the_series_route(self, monkeypatch, rng):
        n = 48
        solves = _count_dense_eigh(monkeypatch)
        form = anchor(random_symmetric(rng, n, op_norm=1.0))
        rank1_projection(form, sample_unit_sphere(n, rng))
        assert solves == []  # a narrow Y at n = 48 takes the series, not the eigenpairs of Y
        self._assert_checks_run(monkeypatch, form, n)


def _count_dense_eigh(monkeypatch):
    """The sizes of the ``linalg.dense_eigh`` calls made from here on, as a list that grows with each call."""
    eigh, solves = linalg.dense_eigh, []
    monkeypatch.setattr(linalg, "dense_eigh", lambda a: solves.append(len(a)) or eigh(a))
    return solves


def _eigenbasis_rank1(y, u):
    """The rank-1 sketch through all eigenpairs of ``y``: ``q exp((lam - lam_max)/2) q' u``."""
    dec = dense_eigh(y)
    lam, q = dec.eigenvalues, dec.eigenvectors
    v = q @ (np.exp(0.5 * (lam - lam[0])) * (q.T @ u))
    return SpectrahedronAction.rank1(v / np.linalg.norm(v)).factor


def _streaming_pca_sum(rng, n, t, eta):
    """``eta`` times a sum of ``t < n`` rank-1 unit gains: ``n - t`` eigenvalues are exactly repeated zeros."""
    a = sample_unit_sphere(n, rng, size=t)
    return eta * (a.T @ a)


class TestTridiagonalRoute:
    """``rank1_projection`` through the anchored form (series in Y, or eigenpairs) against the eigenbasis formula."""

    @pytest.mark.parametrize("n", [1, 2, 4, 32, 200])
    def test_matches_eigenbasis_formula(self, rng, n):
        top_cluster = np.concatenate([3.0 + 1e-12 * rng.standard_normal(n - n // 2), np.linspace(-3.0, 2.0, n // 2)])
        cases = [
            random_symmetric(rng, n),
            random_symmetric(rng, n, op_norm=30.0),
            random_symmetric(rng, n, op_norm=700.0),  # exp((lam - lam_max)/2) spans 1 to 1e-304
            random_symmetric(rng, n, op_norm=1e5),  # too wide for the series at every n: the eigenpairs of Y
            np.zeros((n, n)),
            -7.5 * np.eye(n),
            _streaming_pca_sum(rng, n, max(1, n // 4), 0.3),
            _streaming_pca_sum(rng, n, max(1, n - 1), 2.0),
        ]
        q = haar_orthogonal(rng, n)
        clusters = np.repeat([4.0, 1.0, -2.0], -(-n // 3))[:n] + 1e-10 * rng.standard_normal(n)
        cases.append((q * clusters) @ q.T)
        cases.append((q * top_cluster) @ q.T)
        for i, y in enumerate(cases):
            y = 0.5 * (y + y.T)
            u = sample_unit_sphere(n, rng)
            assert np.abs(rank1_projection(y, u).factor - _eigenbasis_rank1(y, u)).max() <= 1e-12, i

    @pytest.mark.parametrize("n", [4, 32])
    def test_width_rule_takes_both_routes(self, monkeypatch, rng, n):
        # the series runs while 83 r <= n^2, with r a quarter of the anchored interval; a wider Y takes dense_eigh
        solves = _count_dense_eigh(monkeypatch)
        for op_norm, expected in ((0.05, []), (4.0 * n, [n])):
            solves.clear()
            y = random_symmetric(rng, n, op_norm=op_norm)
            u = sample_unit_sphere(n, rng)
            assert np.abs(rank1_projection(y, u).factor - _eigenbasis_rank1(y, u)).max() <= 1e-12
            assert solves == expected, op_norm

    @pytest.mark.parametrize("n", [1, 4, 32])
    def test_a_widened_form_takes_the_eigenpairs_of_y(self, monkeypatch, rng, n):
        # between SDP anchors a widened form takes the eigenpairs of its own Y, as a fresh anchor does
        solves = _count_dense_eigh(monkeypatch)
        y = random_symmetric(rng, n, op_norm=4.0 * n)
        fresh = anchor(y)
        widened = AnchoredForm(y, fresh.lo - 1.0, fresh.hi + 1.0, fresh.top)  # 83 r > n^2 at each n here
        u = sample_unit_sphere(n, rng)
        assert np.abs(rank1_projection(widened, u).factor - _eigenbasis_rank1(y, u)).max() <= 1e-12
        assert solves == [n]

    @pytest.mark.parametrize("n,scale", [(8, 1e18), (32, 1e18), (32, 1e80)])
    def test_a_huge_scale_keeps_the_top_exponential(self, rng, n, scale):
        # two eigensolvers' tops differ by ulps of |Y|, thousands here, so the eigenpairs must be shifted
        # by their own largest eigenvalue: by another solver's top, every exponential can underflow
        a = np.random.default_rng(n).standard_normal((n, n))
        y = scale * (a + a.T)
        u = sample_unit_sphere(n, rng)
        assert np.abs(rank1_projection(y, u).factor - _eigenbasis_rank1(y, u)).max() <= 1e-12

    @pytest.mark.parametrize("offset", [1e8, -1e8])
    @pytest.mark.parametrize("n", [32, 200])
    def test_an_identity_part_far_beyond_the_spread_keeps_the_precision(self, rng, n, offset):
        # the series shifts the diagonal once; shifting each product instead lost about eps |Y| / r per degree
        y = offset * np.eye(n) + random_symmetric(rng, n, op_norm=0.5)
        u = sample_unit_sphere(n, rng)
        # y - offset I recovers the stored y's own spread exactly, so the formula reads the same matrix
        assert np.abs(rank1_projection(y, u).factor - _eigenbasis_rank1(y - offset * np.eye(n), u)).max() <= 1e-12

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 4, 48, 200])
    def test_non_finite_entry_raises(self, rng, n, value):
        y = random_symmetric(rng, n)
        y[n // 2, 0] = y[0, n // 2] = value
        with pytest.raises(ConvergenceError, match=f"tridiagonal reduction failed for n={n}: T is not finite"):
            rank1_projection(y, sample_unit_sphere(n, rng))


class TestRank1ProjectionLanczos:
    def test_zero_operator(self, rng):
        u = sample_unit_sphere(5, rng)
        op = SparseSymOperator(5, lambda v: np.zeros_like(v), nnz_hint=0)
        act = rank1_projection_lanczos(op, u, 1)
        assert np.abs(act.densify() - np.outer(u, u)).max() <= 1e-12

    def test_diagonal_full_depth_matches_exact(self, rng):
        y = np.diag(np.concatenate([[10.0], np.zeros(15)]))
        u = sample_unit_sphere(16, rng)
        approx = rank1_projection_lanczos(y, u, 16)
        exact = rank1_projection(y, u)
        assert trace_norm_distance(approx, exact) <= 1e-8

    def test_large_shift_stays_finite(self, rng):
        y = np.diag(np.linspace(0.0, 300.0, 10))
        u = sample_unit_sphere(10, rng)
        act = rank1_projection_lanczos(y, u, 10)
        assert np.all(np.isfinite(act.factor))
        assert abs(np.linalg.norm(act.factor) - 1.0) <= 1e-12

    def test_counts_matvecs_on_base_operator(self, rng):
        base = SparseSymOperator.from_dense(random_symmetric(rng, 8))
        u = sample_unit_sphere(8, rng)
        rank1_projection_lanczos(base.scaled(0.5), u, 6)
        assert base.matvec_count == 6

    def test_reports_estimate(self, rng):
        y = SparseSymOperator.from_dense(random_symmetric(rng, 20, op_norm=3.0))
        u = sample_unit_sphere(20, rng)
        assert rank1_projection_lanczos(y, u, 9).error_estimate is None
        assert y.matvec_count == 9
        budgeted = rank1_projection_lanczos(y, u, 20, tol=1e-4)
        depth = y.matvec_count - 9
        assert depth < 20 and budgeted.error_estimate <= 1e-4
        # stopping early changes only where the loop ends, not what it computes
        same = rank1_projection_lanczos(y, u, depth)
        assert np.abs(budgeted.factor - same.factor).max() <= 1e-12


#: (adversary, n, T) of the budgeted-sketch check; eta and the depth cap follow the CLI defaults.
BUDGET_GAMES = [
    ("streaming_pca", 128, 600),
    ("random_rotation", 64, 2000),
    ("psd_random", 64, 1000),
    ("fixed_matrix", 64, 1000),
]


class TestBudgetedKrylovSketch:
    """At a budget of 1/(4T) the Krylov sketch stays within 1/T of the exact sketch."""

    @pytest.mark.parametrize("kind,n,horizon", BUDGET_GAMES)
    def test_gain_sums_of_builtin_adversaries(self, kind, n, horizon):
        adv_rng, u_rng = SeededRng(5).spawn(2)
        adversary = builtin_adversaries(kind, n, adv_rng)
        eta = default_eta(n, horizon)
        if adversary.gain_class == "psd_unit":
            eta = min(eta, REFINED_ETA_MAX)
        rule = kt_schedule(n, horizon, eta, 0.1)
        sampled = set(np.linspace(1, horizon, 12).round().astype(int).tolist())
        gain_sum = np.zeros((n, n))
        worst = 0.0
        for t in range(1, horizon + 1):
            if t in sampled:
                y = eta * gain_sum
                op = SparseSymOperator.from_dense(y)
                cap = min(rule(t), n)
                for _ in range(4):
                    u = sample_unit_sphere(n, u_rng)
                    before = op.matvec_count
                    approx = rank1_projection_lanczos(op, u, cap, tol=0.25 / horizon)
                    assert op.matvec_count - before <= cap
                    worst = max(worst, trace_norm_distance(approx, rank1_projection(y, u)))
            gain_sum += adversary.next_gain(())
        assert worst <= 1.0 / horizon

    def test_sdp_solve_plays_within_budget(self):
        instance = make_random_instance(60, 8, SeededRng(31), density=0.1)
        result = solve_feasibility(instance, 0.5, rng=SeededRng(4), use_lanczos=True)
        horizon, eta = result.T, result.eta
        # replay the solver's sphere draws and dual points, and sketch each step exactly
        rng = SeededRng(4)
        eta_y_sum = np.zeros(instance.m)
        ys = replay_simplex(instance, result)[1]
        worst = 0.0
        for t in range(1, horizon + 1):
            u = sample_unit_sphere(instance.n, rng)
            if t % 5 == 1:
                exact = rank1_projection(_adjoint_csr(instance, eta_y_sum).toarray(), u)
                played = SpectrahedronAction.rank1(result.x_factor_history[t - 1])
                worst = max(worst, trace_norm_distance(played, exact))
            eta_y_sum += eta * ys[t - 1]
        assert worst <= 1.0 / horizon
        assert result.matvecs < 20 * horizon


class TestLeanKrylovSketch:
    """The budgeted sketch computes what the step-by-step loop of ``conftest`` computes, to the bit."""

    @staticmethod
    def _same_as_layers(apply_y, u, cap, tol):
        op = SparseSymOperator(len(u), apply_y)
        action = rank1_projection_lanczos(op, u, cap, tol=tol)
        factor, estimate, matvecs = budgeted_sketch_by_layers(apply_y, u, cap, tol)
        assert action.factor.tobytes() == factor.tobytes()
        assert action.error_estimate == estimate
        assert op.matvec_count == matvecs
        return factor, matvecs

    @pytest.mark.parametrize("kind,n,horizon", BUDGET_GAMES)
    def test_gain_sums_of_builtin_adversaries(self, kind, n, horizon):
        adv_rng, u_rng = SeededRng(8).spawn(2)
        adversary = builtin_adversaries(kind, n, adv_rng)
        eta = default_eta(n, horizon)
        if adversary.gain_class == "psd_unit":
            eta = min(eta, REFINED_ETA_MAX)
        rule = kt_schedule(n, horizon, eta, 0.1)
        sampled = set(np.linspace(1, horizon, 12).round().astype(int).tolist())
        gain_sum = np.zeros((n, n))
        for t in range(1, horizon + 1):
            if t in sampled:
                for _ in range(4):
                    u = sample_unit_sphere(n, u_rng)
                    self._same_as_layers(lambda v: eta * (gain_sum @ v), u, min(rule(t), n), 0.25 / horizon)
            gain_sum += adversary.next_gain(())

    def test_every_step_of_a_krylov_solve(self):
        instance = builtin_instance("rand20x10")
        result = solve_feasibility(instance, 0.5, rng=SeededRng(6), use_lanczos=True)
        horizon, eta, n = result.T, result.eta, instance.n
        gain, gain_data, gain_values = _gain_storage(instance, use_lanczos=True)
        rng, eta_y_sum, matvecs = SeededRng(6), np.zeros(instance.m), 0
        ys = replay_simplex(instance, result)[1]
        for t in range(1, horizon + 1):
            u = sample_unit_sphere(n, rng)
            gain_data[:] = gain_values @ eta_y_sum
            cap = min(required_iterations(eta * t * result.omega, min(1.0 / horizon, 0.5), 0.1 / (2.0 * horizon), n), n)
            factor, count = self._same_as_layers(lambda v: gain @ v, u, cap, 0.25 / horizon)
            assert factor.tobytes() == result.x_factor_history[t - 1].tobytes(), t
            matvecs += count
            eta_y_sum += eta * ys[t - 1]
        assert matvecs == result.matvecs


class TestMatrixPlayer:
    def test_one_krylov_call_per_step_in_both_games(self, monkeypatch):
        # one call per step, with the cap third and positional (perfbench's tracer notes args[2] as the depth)
        import mmwsketch.projections as projections

        calls, projection = [], projections.rank1_projection_lanczos

        def spy(*args, **kwargs):
            before = args[0].matvec_count
            action = projection(*args, **kwargs)
            calls.append((len(args), args[2], kwargs, args[0].matvec_count - before))
            return action

        monkeypatch.setattr(projections, "rank1_projection_lanczos", spy)
        n, horizon = 12, 30
        adv_rng, play_rng = SeededRng(4).spawn(2)
        adversary = builtin_adversaries("random_rotation", n, adv_rng)
        trace = run_online(adversary, "rank1_lanczos", Schedule(eta=0.2, T=horizon), play_rng)
        assert [c[:3] for c in calls] == [(3, cap, {"tol": 0.25 / horizon}) for cap in trace.k_cap.tolist()]
        assert trace.k_used.tolist() == trace.matvecs.tolist() == [c[3] for c in calls]

        calls.clear()
        instance = builtin_instance("rand20x10")
        result = solve_feasibility(instance, 0.5, rng=SeededRng(6), use_lanczos=True)
        horizon, n = result.T, instance.n
        caps = [
            min(required_iterations(result.eta * t * result.omega, min(1.0 / horizon, 0.5), 0.1 / (2.0 * horizon), n), n)
            for t in range(1, horizon + 1)
        ]
        assert [c[:3] for c in calls] == [(3, cap, {"tol": 0.25 / horizon}) for cap in caps]
        assert sum(c[3] for c in calls) == result.matvecs


class TestTraceNormDistance:
    def test_identical_actions(self, rng):
        u = sample_unit_sphere(4, rng)
        act = SpectrahedronAction.rank1(u)
        assert trace_norm_distance(act, act) == 0.0

    def test_orthogonal_factors(self):
        e1 = SpectrahedronAction.rank1(np.array([1.0, 0.0]))
        e2 = SpectrahedronAction.rank1(np.array([0.0, 1.0]))
        assert trace_norm_distance(e1, e2) == pytest.approx(2.0, abs=1e-14)

    def test_closed_form_matches_dense(self):
        rng = SeededRng(77)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            x1 = SpectrahedronAction.rank1(sample_unit_sphere(n, rng))
            x2 = SpectrahedronAction.rank1(sample_unit_sphere(n, rng))
            closed = trace_norm_distance(x1, x2)
            dense = trace_norm(x1.densify() - x2.densify())
            assert abs(closed - dense) <= 1e-10

    def test_mixed_forms(self, rng):
        x1 = SpectrahedronAction.rank1(sample_unit_sphere(3, rng))
        x2 = SpectrahedronAction.dense(np.eye(3) / 3.0)
        d = trace_norm_distance(x1, x2)
        assert d == pytest.approx(trace_norm(x1.densify() - x2.densify()), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            trace_norm_distance(
                SpectrahedronAction.rank1(sample_unit_sphere(3, rng)),
                SpectrahedronAction.rank1(sample_unit_sphere(4, rng)),
            )


class TestAvgProjectionEstimators:
    def test_direct_zero_matrix_gives_identity_over_n(self):
        est = estimate_avg_projection_direct(np.zeros((4, 4)), 40_000, SeededRng(3))
        assert np.abs(est.action.matrix - np.eye(4) / 4.0).max() <= 4.0 / math.sqrt(40_000)
        est.action.validate(psd_tol=1e-6, trace_tol=1e-9)

    def test_direct_shift_invariant_distribution(self):
        est0 = estimate_avg_projection_direct(np.zeros((4, 4)), 20_000, SeededRng(5))
        estc = estimate_avg_projection_direct(7.0 * np.eye(4), 20_000, SeededRng(5))
        assert np.abs(est0.action.matrix - estc.action.matrix).max() <= 1e-12

    def test_dirichlet_zero_matrix(self):
        est = estimate_avg_projection_dirichlet(np.zeros((5, 5)), 40_000, SeededRng(7))
        assert np.abs(est.action.matrix - np.eye(5) / 5.0).max() <= 5.0 / math.sqrt(40_000)

    def test_dirichlet_diagonal_input_stays_diagonal(self, rng):
        y = np.diag([1.0, -0.5, 0.25])
        est = estimate_avg_projection_dirichlet(y, 500, rng)
        off = est.action.matrix - np.diag(np.diag(est.action.matrix))
        assert np.abs(off).max() <= 1e-14

    def test_cross_oracle_agreement(self):
        # the sphere-average and the eigenbasis Dirichlet characterization
        # estimate the same matrix; agreement within combined standard errors
        rng = SeededRng(13)
        for trial in range(5):
            y = random_symmetric(rng, 4, op_norm=float(rng.uniform(0.5, 3.0)))
            direct = estimate_avg_projection_direct(y, 30_000, rng)
            spectral = estimate_avg_projection_dirichlet(y, 30_000, rng)
            gap = np.abs(direct.action.matrix - spectral.action.matrix)
            slack = 3.0 * np.sqrt(direct.stderr**2 + spectral.stderr**2)
            assert np.all(gap <= slack + 1e-12), f"trial {trial}: {gap.max()} vs {slack.max()}"

    def test_sample_count_validated(self, rng):
        with pytest.raises(ValueError):
            estimate_avg_projection_direct(np.zeros((2, 2)), 0, rng)


class TestPotentialEstimator:
    def test_zero_matrix_is_exactly_zero(self):
        est = estimate_potential(np.zeros((4, 4)), 5_000, SeededRng(9))
        assert abs(est.value) <= 1e-12

    def test_identity_multiple_shifts_by_c(self):
        est = estimate_potential(3.5 * np.eye(4), 5_000, SeededRng(9))
        assert abs(est.value - 3.5) <= 1e-12

    def test_lower_bound_by_top_eigenvalue(self):
        rng = SeededRng(15)
        for _ in range(5):
            y = random_symmetric(rng, 5, op_norm=2.0)
            est = estimate_potential(y, 20_000, rng)
            lam_max = float(np.linalg.eigvalsh(y)[-1])
            assert est.value >= lam_max - math.log(4.0 * 5) - 3.0 * est.stderr


class TestBregmanEstimator:
    def test_same_point_is_pointwise_zero(self, rng):
        y = random_symmetric(rng, 4)
        est = estimate_bregman(y, y, 1_000, rng)
        assert abs(est.value) <= 1e-13
        assert est.stderr <= 1e-13

    def test_identity_shift_is_zero(self, rng):
        y = random_symmetric(rng, 4)
        est = estimate_bregman(y, y + 2.5 * np.eye(4), 1_000, rng)
        assert abs(est.value) <= 1e-10

    def test_smoothness_example(self):
        rng = SeededRng(21)
        y = random_symmetric(rng, 5, op_norm=1.5)
        delta = random_symmetric(rng, 5, op_norm=0.3)
        est = estimate_bregman(y, y + delta, 50_000, rng)
        assert est.value <= 1.5 * 0.3**2 + 3.0 * est.stderr

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            estimate_bregman(np.zeros((2, 2)), np.zeros((3, 3)), 100, rng)


def _scalar_inner_avg_projection(y, delta, samples, rng):
    """Per-sample <delta, P_u(y)> mean and stderr (common random numbers)."""
    w, q = np.linalg.eigh(y)
    half = np.exp(0.5 * (w - w[-1]))
    u = sample_unit_sphere(len(w), rng, size=samples)
    v = ((u @ q) * half) @ q.T
    vals = np.einsum("si,ij,sj->s", v, delta, v) / (v * v).sum(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


class TestCurvatureProperties:
    """Sampling checks of the smoothness/diameter geometry at module scale."""

    def test_smoothness(self):
        rng = SeededRng(31)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            y = random_symmetric(rng, n, op_norm=float(rng.uniform(0.5, 2.0)))
            delta = random_symmetric(rng, n, op_norm=float(rng.uniform(0.05, 0.5)))
            norm = np.abs(np.linalg.eigvalsh(delta)).max()
            est = estimate_bregman(y, y + delta, 20_000, rng)
            assert est.value <= 1.5 * norm**2 + 3.0 * est.stderr

    def test_refined_smoothness_positive_shifts(self):
        rng = SeededRng(33)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            y = random_symmetric(rng, n, op_norm=float(rng.uniform(0.5, 2.0)))
            base = random_symmetric(rng, n)
            delta = base @ base.T  # PSD
            norm = np.abs(np.linalg.eigvalsh(delta)).max()
            delta *= float(rng.uniform(0.3, 1.0)) / (6.0 * norm)
            norm = np.abs(np.linalg.eigvalsh(delta)).max()
            breg = estimate_bregman(y, y + delta, 20_000, rng)
            inner, inner_se = _scalar_inner_avg_projection(y, delta, 20_000, rng)
            rhs = 3.0 * norm * inner
            combined_se = 3.0 * math.sqrt(breg.stderr**2 + (3.0 * norm * inner_se) ** 2)
            assert breg.value <= rhs + combined_se

    def test_diameter_bound(self):
        rng = SeededRng(35)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            y = random_symmetric(rng, n, op_norm=2.0)
            yp = random_symmetric(rng, n, op_norm=2.0)
            to_zero = estimate_bregman(y, np.zeros((n, n)), 20_000, rng)
            to_yp = estimate_bregman(y, yp, 20_000, rng)
            se = math.sqrt(to_zero.stderr**2 + to_yp.stderr**2)
            assert to_zero.value - to_yp.value <= math.log(4.0 * n) + 3.0 * se
