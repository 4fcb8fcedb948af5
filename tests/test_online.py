import math

import numpy as np
import pytest

from mmwsketch import (
    Schedule,
    SeededRng,
    builtin_adversaries,
    default_eta,
    kt_schedule,
    run_online,
)
from mmwsketch.online import (
    Adversary,
    GainValidationError,
    expected_regret_bound,
    high_probability_regret_bound,
    refined_regret_bound,
)
from conftest import random_symmetric


class TestDefaultEta:
    def test_frozen_values(self):
        assert default_eta(1, 1) == pytest.approx(0.9613512577339219, rel=1e-12)
        assert default_eta(32, 5000) == pytest.approx(0.025434963505431174, rel=1e-12)

    def test_quadrupling_horizon_halves(self):
        assert default_eta(16, 4000) == pytest.approx(default_eta(16, 1000) / 2.0, rel=1e-12)

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            default_eta(4, 0)


class TestKtSchedule:
    def test_first_step_formula(self):
        n, horizon, eta, delta, k0 = 16, 200, 0.05, 0.1, 4.0
        rule = kt_schedule(n, horizon, eta, delta, k0)
        expected = math.ceil(k0 * math.sqrt(1.0 + eta) * math.log(n * horizon / delta))
        assert rule(1) == expected

    def test_zero_eta_constant(self):
        rule = kt_schedule(8, 100, 0.0, 0.1, 4.0)
        expected = math.ceil(4.0 * math.log(8 * 100 / 0.1))
        assert {rule(t) for t in range(1, 101)} == {expected}

    def test_nondecreasing(self):
        rule = kt_schedule(32, 500, 0.03, 0.1)
        vals = [rule(t) for t in range(1, 501)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_endpoint_ratio(self):
        n, horizon, eta = 64, 2000, 0.04
        rule = kt_schedule(n, horizon, eta, 0.1)
        expected = math.sqrt((1.0 + eta * horizon) / (1.0 + eta))
        assert rule(horizon) / rule(1) == pytest.approx(expected, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            kt_schedule(8, 100, -0.1, 0.1)
        with pytest.raises(ValueError):
            kt_schedule(8, 100, 0.1, 1.0)


class TestBuiltinAdversaries:
    def test_fixed_matrix_repeats(self, rng):
        g = random_symmetric(rng, 4, op_norm=0.5)
        adv = builtin_adversaries("fixed_matrix", 4, rng, matrix=g)
        assert np.array_equal(adv.next_gain(()), adv.next_gain(()))
        assert np.allclose(adv.next_gain(()), g)

    def test_streaming_pca_rank_one_unit_trace(self, rng):
        adv = builtin_adversaries("streaming_pca", 6, rng)
        g = adv.next_gain(())
        lam = np.linalg.eigvalsh(g)
        assert np.trace(g) == pytest.approx(1.0, abs=1e-12)
        assert lam[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(lam[:-1]).max() <= 1e-12

    def test_psd_random_spectrum_in_unit_box(self, rng):
        adv = builtin_adversaries("psd_random", 8, rng)
        for _ in range(5):
            lam = np.linalg.eigvalsh(adv.next_gain(()))
            assert lam[0] >= -1e-9
            assert lam[-1] <= 1.0 + 1e-9

    def test_random_rotation_unit_norm(self, rng):
        adv = builtin_adversaries("random_rotation", 8, rng)
        for _ in range(5):
            lam = np.linalg.eigvalsh(adv.next_gain(()))
            assert max(abs(lam[0]), abs(lam[-1])) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError, match="unknown adversary"):
            builtin_adversaries("nope", 4, rng)


class _AsymmetricAdversary(Adversary):
    gain_class = "bounded_inf_norm_1"

    def __init__(self, n):
        self.n = n

    def next_gain(self, history):
        g = np.zeros((self.n, self.n))
        g[0, 1] = 1.0
        return g


class _TooBigAdversary(Adversary):
    gain_class = "bounded_inf_norm_1"

    def __init__(self, n):
        self.n = n

    def next_gain(self, history):
        return 2.0 * np.eye(self.n)


class _OrderSpyAdversary(Adversary):
    """Asserts the engine never exposes the current step's action."""

    gain_class = "bounded_inf_norm_1"

    def __init__(self, n, log):
        self.n = n
        self.log = log
        self.calls = 0

    def next_gain(self, history):
        self.calls += 1
        assert len(history) == self.calls - 1, "engine leaked the current action"
        self.log.append(("gain", self.calls))
        return np.zeros((self.n, self.n))


class _SpyRng(SeededRng):
    def __init__(self, seed, log):
        super().__init__(seed)
        self.log = log

    def standard_normal(self, size=None):
        self.log.append(("draw", None))
        return super().standard_normal(size)


class TestRunOnline:
    def test_single_step_exact_mmw(self, rng):
        g = random_symmetric(rng, 5, op_norm=1.0)
        adv = builtin_adversaries("fixed_matrix", 5, rng, matrix=g)
        trace = run_online(adv, "exact_mmw", Schedule(eta=0.5, T=1), rng)
        lam_max = float(np.linalg.eigvalsh(g)[-1])
        assert trace.total_regret == pytest.approx(lam_max - np.trace(g) / 5.0, abs=1e-9)

    @pytest.mark.parametrize("strategy", ["exact_mmw", "rank1_exact", "rank1_lanczos"])
    def test_bitwise_deterministic(self, strategy):
        def one_run():
            master = SeededRng(12)
            adv_rng, play_rng = master.spawn(2)
            adv = builtin_adversaries("random_rotation", 6, adv_rng)
            return run_online(adv, strategy, Schedule(eta=0.2, T=25), play_rng)

        t1, t2 = one_run(), one_run()
        for name in (
            "step_gain", "cum_gain", "lam_max_running", "k_used", "k_cap", "matvecs", "krylov_err_est",
        ):
            assert np.array_equal(getattr(t1, name), getattr(t2, name)), name
        assert t1.total_regret == t2.total_regret

    def test_gain_before_sphere_draw(self):
        log = []
        adv = _OrderSpyAdversary(4, log)
        run_online(adv, "rank1_exact", Schedule(eta=0.1, T=5), _SpyRng(0, log))
        kinds = [kind for kind, _ in log]
        # strict alternation: every draw is preceded by that step's gain
        assert kinds == ["gain", "draw"] * 5

    def test_asymmetric_gain_rejected_naming_step(self, rng):
        with pytest.raises(GainValidationError, match="step 1"):
            run_online(_AsymmetricAdversary(4), "rank1_exact", Schedule(eta=0.1, T=3), rng)

    def test_out_of_class_gain_rejected(self, rng):
        with pytest.raises(GainValidationError, match="exceeds 1"):
            run_online(_TooBigAdversary(4), "rank1_exact", Schedule(eta=0.1, T=3), rng)

    def test_zero_gains_are_legal(self, rng):
        adv = builtin_adversaries("fixed_matrix", 4, rng, matrix=np.zeros((4, 4)))
        trace = run_online(adv, "rank1_exact", Schedule(eta=0.1, T=4), rng)
        assert trace.total_regret == pytest.approx(0.0, abs=1e-12)

    def test_trace_self_consistency(self, rng):
        adv = builtin_adversaries("random_rotation", 6, rng)
        trace = run_online(adv, "rank1_exact", Schedule(eta=0.2, T=40), rng)
        trace.validate()

    @pytest.mark.parametrize("dense_limit", [2048, 8])
    def test_krylov_depth_records(self, dense_limit):
        n, horizon = 24, 60
        adv_rng, play_rng = SeededRng(17).spawn(2)
        adv = builtin_adversaries("random_rotation", n, adv_rng)
        eta = default_eta(n, horizon)
        trace = run_online(adv, "rank1_lanczos", Schedule(eta=eta, T=horizon), play_rng, dense_limit=dense_limit)
        rule = kt_schedule(n, horizon, eta, 0.1)
        assert np.array_equal(trace.matvecs, trace.k_used)
        assert np.array_equal(trace.k_cap, [min(rule(t), n) for t in range(1, horizon + 1)])
        assert np.all((trace.k_used >= 1) & (trace.k_used <= trace.k_cap))
        # every run that stopped below its cap met the 1/(4T) budget
        below = trace.k_used < trace.k_cap
        assert below.any()
        assert np.all(trace.krylov_err_est[below] <= 0.25 / horizon)
        assert np.all(trace.krylov_err_est >= 0.0)

    def test_dense_strategy_records_no_depth(self, rng):
        adv = builtin_adversaries("random_rotation", 6, rng)
        trace = run_online(adv, "rank1_exact", Schedule(eta=0.2, T=10), rng)
        for name in ("k_used", "k_cap", "matvecs", "krylov_err_est"):
            assert not getattr(trace, name).any(), name

    def test_dense_strategy_needs_dense_scale(self, rng):
        adv = builtin_adversaries("random_rotation", 12, rng)
        with pytest.raises(ValueError, match="dense limit"):
            run_online(adv, "exact_mmw", Schedule(eta=0.1, T=2), rng, dense_limit=8)

    def test_unknown_strategy(self, rng):
        adv = builtin_adversaries("random_rotation", 4, rng)
        with pytest.raises(ValueError, match="strategy"):
            run_online(adv, "nope", Schedule(eta=0.1, T=2), rng)

    def test_operator_mode_smoke(self):
        # force the operator accumulation path with an artificially low limit
        master = SeededRng(3)
        adv_rng, play_rng = master.spawn(2)
        adv = builtin_adversaries("random_rotation", 12, adv_rng)
        trace = run_online(
            adv, "rank1_lanczos", Schedule(eta=0.15, T=20), play_rng, dense_limit=8
        )
        trace.validate()
        assert trace.lam_max_tol > 0.0
        assert trace.matvecs.sum() > 0
        # certified top eigenvalue close to the dense recomputation
        master = SeededRng(3)
        adv_rng, _ = master.spawn(2)
        adv2 = builtin_adversaries("random_rotation", 12, adv_rng)
        total = np.zeros((12, 12))
        for _ in range(20):
            total += adv2.next_gain(())
        lam = float(np.linalg.eigvalsh(total)[-1])
        assert abs(trace.lam_max_final - lam) <= 1e-5 * max(1.0, abs(lam))


class TestUnbiasedSketch:
    def test_sketch_matches_averaged_play(self):
        """Mean regret of the rank-1 sketch equals the averaged-projection play.

        Fixed oblivious gain sequence; the sketch is an unbiased sample of the
        averaged projection, so mean cumulative gains agree within combined
        Monte-Carlo standard errors.
        """
        n, horizon, adversary_seed = 8, 500, 404
        eta = default_eta(n, horizon)
        sched = Schedule(eta=eta, T=horizon)

        sketch_totals = []
        for seed in range(200):
            adv = builtin_adversaries("random_rotation", n, SeededRng(adversary_seed))
            trace = run_online(adv, "rank1_exact", sched, SeededRng(1000 + seed))
            sketch_totals.append(trace.cum_gain[-1])
        sketch_totals = np.array(sketch_totals)

        avg_totals = []
        for seed in range(3):
            adv = builtin_adversaries("random_rotation", n, SeededRng(adversary_seed))
            trace = run_online(
                adv, "averaged_mc", sched, SeededRng(5000 + seed), mc_samples=4000
            )
            avg_totals.append(trace.cum_gain[-1])
        avg_totals = np.array(avg_totals)

        se_sketch = sketch_totals.std(ddof=1) / math.sqrt(len(sketch_totals))
        se_avg = avg_totals.std(ddof=1) / math.sqrt(len(avg_totals))
        gap = abs(sketch_totals.mean() - avg_totals.mean())
        assert gap <= 3.0 * math.sqrt(se_sketch**2 + se_avg**2)


class TestLanczosPlayMatchesExact:
    def test_depth_schedule_loses_at_most_one(self):
        n, horizon, seeds = 16, 200, 20
        eta = default_eta(n, horizon)
        ok = 0
        for seed in range(seeds):
            sched = Schedule(eta=eta, T=horizon, delta=0.1)

            def runs(strategy):
                master = SeededRng(seed)
                adv_rng, play_rng = master.spawn(2)
                adv = builtin_adversaries("random_rotation", n, adv_rng)
                return run_online(adv, strategy, sched, play_rng)

            exact = runs("rank1_exact")
            approx = runs("rank1_lanczos")
            if approx.cum_gain[-1] >= exact.cum_gain[-1] - 1.0:
                ok += 1
            total_planned = approx.k_used.sum()
            assert abs(int(approx.matvecs.sum()) - int(total_planned)) <= 0.05 * total_planned
        assert ok >= 0.9 * seeds


class TestBoundHelpers:
    def test_expected_bound_balances_at_default_eta(self):
        n, horizon = 32, 5000
        eta = default_eta(n, horizon)
        bound = expected_regret_bound(n, eta, horizon)
        assert bound == pytest.approx(2.0 * math.sqrt(1.5 * math.log(4 * n) * horizon), rel=1e-12)

    def test_high_probability_addend(self):
        n, horizon = 32, 5000
        eta = default_eta(n, horizon)
        hp = high_probability_regret_bound(n, eta, horizon, 0.05)
        assert hp - expected_regret_bound(n, eta, horizon) == pytest.approx(
            math.sqrt(2.0 * horizon * math.log(20.0)), rel=1e-12
        )

    def test_refined_bound_formula(self):
        assert refined_regret_bound(16, 1.0 / 6.0, 1000.0) == pytest.approx(
            6.0 * math.log(64.0) + 500.0, rel=1e-12
        )
