import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwsketch import (
    SdpInstance,
    SeededRng,
    adjoint_apply,
    builtin_instance,
    costs,
    duality_gap,
    feasibility_schedule,
    load_instance,
    sample_unit_sphere,
    save_instance,
    softmax_grad,
    solve_feasibility,
)
from mmwsketch.projections import SpectrahedronAction
from mmwsketch.sdp import (
    InstanceFormatError,
    _adjoint_dense,
    make_random_instance,
    simplex_regret_certificate,
)
from conftest import random_symmetric


def _simple_instance():
    return SdpInstance.from_dense_list([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])


class TestSdpInstance:
    def test_triplet_validation(self):
        with pytest.raises(ValueError, match="outside"):
            SdpInstance(2, 1, [(2, 1, 1, 1.0)])
        with pytest.raises(ValueError, match="outside"):
            SdpInstance(2, 1, [(1, 3, 3, 1.0)])
        with pytest.raises(ValueError, match="row <= col"):
            SdpInstance(2, 1, [(1, 2, 1, 1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            SdpInstance(2, 1, [(1, 1, 2, 1.0), (1, 1, 2, 2.0)])
        with pytest.raises(ValueError, match="m must be"):
            SdpInstance(2, 0, [])

    def test_dense_and_csr_mirror(self):
        inst = SdpInstance(3, 1, [(1, 1, 2, 2.0), (1, 3, 3, -1.0)])
        expected = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        assert np.array_equal(inst.dense(0), expected)
        assert np.array_equal(inst.csr(0).toarray(), expected)

    def test_from_dense_list_round_trip(self, rng):
        mats = [random_symmetric(rng, 4) for _ in range(3)]
        inst = SdpInstance.from_dense_list(mats)
        for i, m in enumerate(mats):
            assert np.abs(inst.dense(i) - m).max() <= 1e-15

    def test_width_of_symmetric_fixture(self):
        assert _simple_instance().compute_width() == pytest.approx(1.0, abs=1e-12)

    def test_declared_width_checked(self):
        inst = SdpInstance(2, 1, [(1, 1, 1, 1.0)], width=1.0)
        assert inst.check_width()
        bad = SdpInstance(2, 1, [(1, 1, 1, 1.0)], width=5.0)
        assert not bad.check_width()


class TestInstanceIo:
    def test_save_load_round_trip(self, rng, tmp_path):
        inst = make_random_instance(5, 3, rng, density=0.6)
        path = tmp_path / "inst.sdpi"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.n == inst.n and back.m == inst.m
        assert back.triplets() == inst.triplets()

    def test_empty_constraint_count_rejected(self, tmp_path):
        path = tmp_path / "bad.sdpi"
        path.write_text("3 0\n")
        with pytest.raises(InstanceFormatError, match="m must be >= 1"):
            load_instance(path)

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "sym.sdpi"
        path.write_text(
            "# two opposing diagonal constraints\n"
            "2 2\n"
            "1 1 1 1.0\n"
            "1 2 2 -1.0\n"
            "2 1 1 -1.0\n"
            "2 2 2 1.0\n"
        )
        inst = load_instance(path)
        assert np.array_equal(inst.dense(0), np.diag([1.0, -1.0]))
        assert np.array_equal(inst.dense(1), np.diag([-1.0, 1.0]))

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("2 2\n1 1 1 x\n", "line 2"),
            ("2 2\n1 1\n", "line 2"),
            ("2 2\n1 2 1 1.0\n", "line 2"),
            ("2 2\n1 1 1 1.0\n1 1 1 2.0\n", "line 3"),
            ("2 2\n3 1 1 1.0\n", "line 2"),
            ("", "line 1"),
        ]
        for body, fragment in cases:
            path = tmp_path / "case.sdpi"
            path.write_text(body)
            with pytest.raises(InstanceFormatError, match=fragment):
                load_instance(path)

    def test_builtin_instances(self):
        sym = builtin_instance("sym2x2")
        assert (sym.n, sym.m) == (2, 2)
        rand = builtin_instance("rand20x10")
        assert (rand.n, rand.m) == (20, 10)
        assert rand.compute_width() <= 1.0 + 1e-9
        with pytest.raises(ValueError):
            builtin_instance("nope")


class TestAdjointApply:
    def test_single_constraint(self, rng):
        a = random_symmetric(rng, 4)
        inst = SdpInstance.from_dense_list([a])
        op = adjoint_apply(inst, np.array([1.0]))
        v = rng.standard_normal(4)
        assert np.allclose(op.matvec(v), a @ v, atol=1e-12)

    def test_simplex_vertex_selects_constraint(self, rng):
        mats = [random_symmetric(rng, 4) for _ in range(3)]
        inst = SdpInstance.from_dense_list(mats)
        op = adjoint_apply(inst, np.array([0.0, 0.0, 1.0]))
        v = rng.standard_normal(4)
        assert np.allclose(op.matvec(v), mats[2] @ v, atol=1e-12)

    def test_random_weights_match_dense_sum(self, rng):
        mats = [random_symmetric(rng, 10) for _ in range(4)]
        inst = SdpInstance.from_dense_list(mats)
        y = softmax_grad(rng.standard_normal(4))
        op = adjoint_apply(inst, y)
        dense = sum(w * m for w, m in zip(y.weights, mats))
        for _ in range(3):
            v = rng.standard_normal(10)
            assert np.allclose(op.matvec(v), dense @ v, atol=1e-12)

    def test_rejects_non_simplex(self, rng):
        inst = _simple_instance()
        with pytest.raises(ValueError, match="simplex"):
            adjoint_apply(inst, np.array([0.5, 0.2]))

    def test_operator_is_symmetric(self, rng):
        from mmwsketch import symmetry_defect

        mats = [random_symmetric(rng, 8) for _ in range(3)]
        inst = SdpInstance.from_dense_list(mats)
        op = adjoint_apply(inst, softmax_grad(rng.standard_normal(3)))
        assert symmetry_defect(op, rng) <= 1e-8


def _sym(n, entries):
    a = np.zeros((n, n))
    for (r, c), v in entries.items():
        a[r, c] = a[c, r] = v
    return a


@st.composite
def stacked_cases(draw):
    """Constraint lists mixing empty, diagonal, random and repeated patterns, plus a seed."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    upper = [(r, c) for r in range(n) for c in range(r, n)]
    value = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda v: v != 0.0)
    mats = []
    for _ in range(m):
        kind = draw(st.sampled_from(["empty", "diagonal", "random", "same_pattern"]))
        if kind == "empty":
            pattern = []
        elif kind == "diagonal":
            pattern = [(r, r) for r in range(n)]
        elif kind == "same_pattern" and mats:
            pattern = [tuple(p) for p in zip(*np.nonzero(np.triu(mats[-1])))]
        else:
            pattern = draw(st.lists(st.sampled_from(upper), unique=True))
        mats.append(_sym(n, {p: draw(value) for p in pattern}))
    return mats, draw(st.integers(0, 2**32 - 1))


def _example(*mats):
    return example(([np.asarray(a, dtype=float) for a in mats], 7))


class TestConstraintStack:
    """The stacked constraints against ``sum_i w_i A_i`` built from ``dense(i)``."""

    @settings(deadline=None)
    @given(stacked_cases())
    @_example(np.zeros((3, 3)), np.zeros((3, 3)))  # the all-zero instance
    @_example([[0.5, -1.0], [-1.0, 0.0]])  # m = 1
    @_example(np.zeros((3, 3)), np.diag([1.0, -2.0, 0.5]))  # empty and diagonal-only
    @_example(_sym(4, {(0, 1): 1.0, (1, 1): 0.5}), _sym(4, {(2, 3): -1.0, (3, 3): 2.0}))  # disjoint
    @_example(_sym(3, {(0, 2): 1.0, (1, 1): 0.5}), _sym(3, {(0, 2): -0.3, (1, 1): 0.9}))  # identical
    def test_matches_dense_oracle(self, case):
        mats, seed = case
        inst = SdpInstance.from_dense_list(mats)
        n, m = inst.n, inst.m
        gen = np.random.default_rng(seed)
        w = gen.dirichlet(np.ones(m))
        oracle = sum(w_i * inst.dense(i) for i, w_i in enumerate(w))

        dense = _adjoint_dense(inst, w)
        assert np.allclose(dense, oracle, rtol=0.0, atol=1e-12)
        assert np.array_equal(dense, dense.T)
        op = adjoint_apply(inst, w)
        v = gen.standard_normal(n)
        assert np.allclose(op.matvec(v), oracle @ v, rtol=0.0, atol=1e-12)

        x = sample_unit_sphere(n, SeededRng(seed))
        g = gen.standard_normal((n, n))
        xm = g @ g.T / np.trace(g @ g.T)
        for action, xd in (
            (SpectrahedronAction.rank1(x), np.outer(x, x)),
            (SpectrahedronAction.dense(xm), xm),
        ):
            expected = np.array([np.vdot(inst.dense(i), xd) for i in range(m)])
            assert np.allclose(costs(inst, action), expected, rtol=0.0, atol=1e-12)

    def test_operators_do_not_alias(self, rng):
        inst = make_random_instance(6, 3, rng, density=0.6)
        v = rng.standard_normal(6)
        first = adjoint_apply(inst, np.array([1.0, 0.0, 0.0]))
        before = first.matvec(v)
        adjoint_apply(inst, np.array([0.0, 0.5, 0.5])).matvec(v)
        _adjoint_dense(inst, np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(first.matvec(v), before)
        assert np.allclose(before, inst.dense(0) @ v, rtol=0.0, atol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(stacked_cases())
    def test_operator_gap_matches_dense_gap(self, case):
        mats, seed = case
        inst = SdpInstance.from_dense_list(mats)
        gen = np.random.default_rng(seed)
        y = gen.dirichlet(np.ones(inst.m))
        x = SpectrahedronAction.rank1(sample_unit_sphere(inst.n, SeededRng(seed)))
        exact = duality_gap(inst, x, y)
        assert exact.lo == exact.hi == exact.value
        estimated = duality_gap(inst, x, y, dense_limit=inst.n - 1)
        assert estimated.lo <= exact.value <= estimated.hi


class TestCosts:
    def test_identity_constraint_gives_one(self, rng):
        inst = SdpInstance.from_dense_list([np.eye(3)])
        rank1 = SpectrahedronAction.rank1(sample_unit_sphere(3, rng))
        dense = SpectrahedronAction.dense(np.eye(3) / 3.0)
        assert costs(inst, rank1)[0] == pytest.approx(1.0, abs=1e-12)
        assert costs(inst, dense)[0] == pytest.approx(1.0, abs=1e-12)

    def test_basis_vector_example(self):
        inst = SdpInstance.from_dense_list([np.diag([1.0, -1.0])])
        act = SpectrahedronAction.rank1(np.array([1.0, 0.0]))
        assert costs(inst, act)[0] == pytest.approx(1.0, abs=1e-15)

    def test_random_rank1_matches_densified(self, rng):
        mats = [random_symmetric(rng, 6) for _ in range(4)]
        inst = SdpInstance.from_dense_list(mats)
        x = sample_unit_sphere(6, rng)
        act = SpectrahedronAction.rank1(x)
        expected = np.array([float(x @ (m @ x)) for m in mats])
        assert np.allclose(costs(inst, act), expected, atol=1e-12)

    def test_width_certifies_cost_range(self):
        inst = SdpInstance.from_dense_list([np.diag([1.0, -1.0])])
        inst.width = 0.25  # deliberately wrong: every unit-trace action violates it
        act = SpectrahedronAction.rank1(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="width"):
            costs(inst, act)


class TestDualityGap:
    def test_identity_single_constraint(self, rng):
        inst = SdpInstance.from_dense_list([np.eye(4)])
        x = SpectrahedronAction.dense(np.eye(4) / 4.0)
        report = duality_gap(inst, x, np.array([1.0]))
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_instance_at_saddle(self):
        inst = _simple_instance()
        x = SpectrahedronAction.dense(np.eye(2) / 2.0)
        report = duality_gap(inst, x, np.array([0.5, 0.5]))
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_and_nonnegative(self, rng):
        for _ in range(5):
            mats = [random_symmetric(rng, 5) for _ in range(3)]
            inst = SdpInstance.from_dense_list(mats)
            x = SpectrahedronAction.dense(np.eye(5) / 5.0)
            y = softmax_grad(rng.standard_normal(3)).weights
            report = duality_gap(inst, x, y)
            adjoint = sum(w * m for w, m in zip(y, mats))
            brute = float(np.linalg.eigvalsh(adjoint)[-1]) - min(
                float(np.vdot(m, x.matrix)) for m in mats
            )
            assert report.value == pytest.approx(brute, abs=1e-10)
            assert report.value >= -(report.hi - report.lo)


class TestFeasibilitySchedule:
    def test_frozen_small_example(self):
        inst = SdpInstance.from_dense_list([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        eta, horizon = feasibility_schedule(inst, 1.0)
        assert horizon == 23
        assert eta == pytest.approx(math.sqrt(math.log(16.0) / (2.0 * 23)), rel=1e-12)

    def test_halving_epsilon_quadruples_horizon(self):
        inst = builtin_instance("rand20x10")
        _, t1 = feasibility_schedule(inst, 0.5)
        _, t2 = feasibility_schedule(inst, 0.25)
        assert t2 / t1 == pytest.approx(4.0, rel=0.05)

    def test_substitution_gives_target(self):
        for eps in (1.0, 0.5, 0.25):
            inst = builtin_instance("rand20x10")
            eta, horizon = feasibility_schedule(inst, eps)
            omega = inst.compute_width()
            bound = math.log(4.0 * inst.m * inst.n) / (eta * horizon) + 2.0 * eta * omega**2
            assert bound <= eps + 1e-12

    def test_zero_width_instance(self):
        inst = SdpInstance(3, 1, [])
        eta, horizon = feasibility_schedule(inst, 0.5)
        assert horizon == 1

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            feasibility_schedule(_simple_instance(), 0.0)


class TestSolveFeasibility:
    def test_all_zero_instance(self):
        inst = SdpInstance(3, 2, [])
        result = solve_feasibility(inst, 0.5, rng=SeededRng(0))
        assert result.T == 1
        assert result.gap.value == pytest.approx(0.0, abs=1e-12)
        assert result.s_lower == pytest.approx(0.0, abs=1e-12)
        assert result.s_upper == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_fixture_interval_contains_zero(self):
        result = solve_feasibility(builtin_instance("sym2x2"), 0.25, rng=SeededRng(4))
        assert result.s_lower <= 0.0 <= result.s_upper
        assert result.s_upper - result.s_lower <= 0.25
        assert result.verdict == "undetermined-at-epsilon"

    def test_feasible_and_infeasible_verdicts(self):
        # every unit-trace action scores +1 against the identity
        feasible = SdpInstance.from_dense_list([np.eye(3), np.eye(3)])
        res = solve_feasibility(feasible, 0.5, rng=SeededRng(1))
        assert res.verdict == "feasible"
        infeasible = SdpInstance.from_dense_list([-np.eye(3)])
        res = solve_feasibility(infeasible, 0.5, rng=SeededRng(1))
        assert res.verdict == "infeasible"

    def test_averaging_correctness(self):
        inst = builtin_instance("sym2x2")
        result = solve_feasibility(inst, 0.5, rng=SeededRng(11))
        replay = np.einsum("ti,tj->ij", result.x_factor_history, result.x_factor_history)
        replay /= result.T
        assert np.abs(replay - result.x_avg.matrix).max() <= 1e-10
        assert np.allclose(result.y_history.mean(axis=0), result.y_avg, atol=1e-12)

    def test_averaged_iterates_satisfy_membership(self):
        result = solve_feasibility(builtin_instance("rand20x10"), 0.5, rng=SeededRng(21))
        result.x_avg.validate()
        assert result.y_avg.min() >= 0.0
        assert abs(result.y_avg.sum() - 1.0) <= 1e-12

    def test_simplex_player_regret_certificate(self):
        for seed in range(3):
            result = solve_feasibility(builtin_instance("rand20x10"), 0.5, rng=SeededRng(seed))
            lhs, rhs = simplex_regret_certificate(result)
            assert lhs <= rhs + 1e-9

    def test_monotone_epsilon(self):
        gaps = []
        for eps in (1.0, 0.5, 0.25):
            result = solve_feasibility(builtin_instance("rand20x10"), eps, rng=SeededRng(2))
            gaps.append(result.gap.value)
        assert gaps[0] >= gaps[1] - 1e-12
        assert gaps[1] >= gaps[2] - 1e-12

    def test_lanczos_path_agrees_with_exact_contract(self):
        inst = builtin_instance("sym2x2")
        result = solve_feasibility(inst, 0.5, rng=SeededRng(8), use_lanczos=True)
        assert result.matvecs > 0
        assert result.gap.value <= 0.5
        assert result.s_lower <= 0.0 <= result.s_upper

    @pytest.mark.parametrize("use_lanczos", [False, True])
    def test_delta_validated(self, use_lanczos):
        for delta in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
                solve_feasibility(_simple_instance(), 0.5, delta=delta, use_lanczos=use_lanczos)

    def test_time_budget_flags_partial_result(self):
        inst = builtin_instance("rand20x10")
        result = solve_feasibility(inst, 0.25, rng=SeededRng(3), time_budget_s=1e-9)
        assert not result.completed
        assert result.T < 856
        # the average covers exactly the steps played, including a partly filled block
        replay = result.x_factor_history.T @ result.x_factor_history / result.T
        assert np.abs(replay - result.x_avg.matrix).max() <= 1e-12

    def test_determinism(self):
        r1 = solve_feasibility(builtin_instance("sym2x2"), 0.5, rng=SeededRng(6))
        r2 = solve_feasibility(builtin_instance("sym2x2"), 0.5, rng=SeededRng(6))
        assert r1.gap.value == r2.gap.value
        assert np.array_equal(r1.x_avg.matrix, r2.x_avg.matrix)
