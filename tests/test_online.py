import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg

from mmwsketch import (
    Schedule,
    SeededRng,
    builtin_adversaries,
    default_eta,
    kt_schedule,
    run_online,
    sample_unit_sphere,
)
from mmwsketch import online
from mmwsketch.linalg import DENSE_LIMIT, AnchoredForm, ConvergenceError, anchor, top_eigenvalue
from mmwsketch.online import (
    Adversary,
    FixedMatrixAdversary,
    GainValidationError,
    _haar_orthogonal,
    _validate_gain,
    expected_regret_bound,
    high_probability_regret_bound,
    refined_regret_bound,
)
from mmwsketch.projections import ANCHOR_TAU, estimate_avg_projection_dirichlet, mmw_projection, rank1_projection
from conftest import exact_rank1_factor, random_symmetric, symmetry_defect


class TestDefaultEta:
    def test_frozen_values(self):
        assert default_eta(1, 1) == pytest.approx(0.9613512577339219, rel=1e-12)
        assert default_eta(32, 5000) == pytest.approx(0.025434963505431174, rel=1e-12)

    def test_quadrupling_horizon_halves(self):
        assert default_eta(16, 4000) == pytest.approx(default_eta(16, 1000) / 2.0, rel=1e-12)

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            default_eta(4, 0)

    def test_dimension_validated(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            default_eta(0, 10)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["eta", "k0"])
    def test_non_finite_input_named_before_any_step(self, name, value):
        # unchecked, these passed here and failed at the rule's first call
        args = {"eta": 0.1, "k0": 4.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            kt_schedule(8, 100, args["eta"], 0.1, args["k0"])


class TestSchedule:
    @pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -1.0])
    def test_eta_validated(self, eta):
        # unchecked, a NaN or inf step size reached the first decomposition of the gain sum
        with pytest.raises(ValueError, match="^eta must be positive and finite$"):
            Schedule(eta=eta, T=10)

    @pytest.mark.parametrize("horizon", [math.nan, 2.5, 3.0, True, 0, -2])
    def test_horizon_validated(self, horizon):
        # unchecked, a NaN or fractional horizon failed in run_online's np.zeros(T) with a TypeError naming no parameter
        with pytest.raises(ValueError, match=r"^horizon T must be an integer >= 1, got "):
            Schedule(eta=0.1, T=horizon)

    def test_numpy_integer_horizon_accepted(self):
        assert Schedule(eta=0.1, T=np.int64(7)).T == 7


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

    @pytest.mark.parametrize("n", [1, 2, 128, 257])
    def test_streaming_pca_gain_is_numpy_outer_bitwise(self, n):
        adv = builtin_adversaries("streaming_pca", n, SeededRng(17))
        twin = SeededRng(17)
        for _ in range(3):
            g = adv.next_gain(())
            a = sample_unit_sphere(n, twin)
            assert g.tobytes() == np.outer(a, a).tobytes()
            assert g.flags.c_contiguous
            assert g.tobytes() == np.ascontiguousarray(g.T).tobytes()

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


def _reference_haar(n, rng):
    """The sign-corrected ``np.linalg.qr`` of a Gaussian matrix, the sampler's reference."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestHaarOrthogonal:
    """numpy's ``geqrf``/``orgqr`` gufuncs called without the wrapper give ``np.linalg.qr``'s draws bit for bit."""

    # around the QR block size of 32, and past the 257 from which a threaded BLAS rounds differently
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 128, 200, 257])
    def test_bits_of_the_numpy_qr(self, n):
        q = _haar_orthogonal(n, SeededRng(n))
        ref = _reference_haar(n, SeededRng(n))
        assert q.flags.c_contiguous
        assert q.tobytes() == ref.tobytes()
        spectrum = SeededRng(n + 1).uniform(-1.0, 1.0, n)
        assert ((q * spectrum) @ q.T).tobytes() == ((ref * spectrum) @ ref.T).tobytes()

    @pytest.mark.parametrize("kind", ["random_rotation", "psd_random"])
    def test_gains_of_the_numpy_qr(self, monkeypatch, kind):
        import mmwsketch.online as online

        adv = builtin_adversaries(kind, 12, SeededRng(31))
        gains = [adv.next_gain(()) for _ in range(50)]
        monkeypatch.setattr(online, "_haar_orthogonal", _reference_haar)
        ref = builtin_adversaries(kind, 12, SeededRng(31))
        for t, gain in enumerate(gains):
            assert gain.tobytes() == ref.next_gain(()).tobytes(), t

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bits_at_each_blas_thread_count(self, threads):
        import mmwsketch.online as online

        # numpy's QR rounds differently with one and two BLAS threads from n = 257 up
        code = (
            "import numpy as np\n"
            "from mmwsketch import SeededRng\n"
            "from mmwsketch.online import _haar_orthogonal\n"
            "for n in (257, 300):\n"
            "    q, r = np.linalg.qr(SeededRng(n).standard_normal((n, n)))\n"
            "    ref = q * np.sign(np.diag(r))\n"
            "    assert _haar_orthogonal(n, SeededRng(n)).tobytes() == ref.tobytes(), n\n"
        )
        src = os.path.dirname(os.path.dirname(online.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_lapack_failure_names_n(self, monkeypatch):
        import mmwsketch.online as online

        def failing(a, signature):
            # numpy's QR gufuncs report a LAPACK failure as an invalid-value flag
            return np.zeros(len(a)) / np.zeros(len(a))

        monkeypatch.setattr(online, "_umath_linalg", types.SimpleNamespace(qr_r_raw=failing))
        with pytest.raises(ConvergenceError, match="n=5"):
            _haar_orthogonal(5, SeededRng(0))


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


class _NearlySymmetricAdversary(Adversary):
    """Unit-norm gains whose two triangles differ at the 1e-13 level."""

    gain_class = "bounded_inf_norm_1"

    def __init__(self, n, rng):
        self.n = n
        self._inner = builtin_adversaries("random_rotation", n, rng)
        self._rng = rng

    def next_gain(self, history):
        g = 0.999 * self._inner.next_gain(history)
        noise = np.triu(self._rng.standard_normal((self.n, self.n)), 1)
        return g + 1e-13 * noise


def _unexpected(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran on a gain the rank-one proof accepts")

    return fail


class _OrderSpyAdversary(Adversary):
    """Asserts the engine exposes no action: it keeps no play history."""

    gain_class = "bounded_inf_norm_1"

    def __init__(self, n, log):
        self.n = n
        self.log = log
        self.calls = 0

    def next_gain(self, history):
        self.calls += 1
        assert history == (), "engine handed over a play history"
        self.log.append(("gain", self.calls))
        return np.zeros((self.n, self.n))


class _RecordingAdversary(Adversary):
    """Forwards another adversary and keeps a copy of every gain it hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.gain_class = inner.gain_class
        self.gains = []

    def next_gain(self, history):
        gain = np.asarray(self.inner.next_gain(history), dtype=float)
        self.gains.append(gain.copy())
        return gain


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
            # rank1_lanczos leaves NaN between its lam_max checkpoints: NaN must match NaN
            assert np.array_equal(getattr(t1, name), getattr(t2, name), equal_nan=True), name
        assert t1.total_regret == t2.total_regret

    def test_gain_before_sphere_draw(self):
        log = []
        adv = _OrderSpyAdversary(4, log)
        run_online(adv, "rank1_exact", Schedule(eta=0.1, T=5), _SpyRng(0, log))
        kinds = [kind for kind, _ in log]
        # strict alternation: every draw is preceded by that step's gain
        assert kinds == ["gain", "draw"] * 5

    def test_no_play_history_is_kept(self):
        # an exact_mmw play is a dense n x n matrix: a kept history would add one per step to the peak
        peaks = {}
        for strategy in ("exact_mmw", "rank1_exact"):
            adv_rng, play_rng = SeededRng(5).spawn(2)
            adversary = builtin_adversaries("random_rotation", 64, adv_rng)
            tracemalloc.start()
            try:
                run_online(adversary, strategy, Schedule(eta=0.1, T=100), play_rng)
                peaks[strategy] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["exact_mmw"] <= 2 * peaks["rank1_exact"], peaks

    def test_asymmetric_gain_rejected_naming_step(self, rng):
        with pytest.raises(GainValidationError, match="step 1"):
            run_online(_AsymmetricAdversary(4), "rank1_exact", Schedule(eta=0.1, T=3), rng)

    def test_out_of_class_gain_rejected(self, rng):
        with pytest.raises(GainValidationError, match="exceeds 1"):
            run_online(_TooBigAdversary(4), "rank1_exact", Schedule(eta=0.1, T=3), rng)

    @pytest.mark.parametrize(
        "matrix,gain_class,message",
        [
            (2.0 * np.eye(3), "bounded_inf_norm_1", "step 1: gain operator norm 2 exceeds 1"),
            (np.diag([0.5, -(1.0 + 1e-6)]), "bounded_inf_norm_1", "step 1: gain operator norm 1 exceeds 1"),
            (np.diag([0.5, -1e-6]), "psd_unit", "step 1: gain spectrum [-1e-06, 0.5] outside [0, 1]"),
            (np.diag([1.25, 0.5]), "psd_unit", "step 1: gain spectrum [0.5, 1.25] outside [0, 1]"),
            (np.eye(2), "unit_trace", "step 1: unknown gain class 'unit_trace'"),
        ],
    )
    def test_rejection_message(self, rng, matrix, gain_class, message):
        with pytest.raises(GainValidationError) as info:
            run_online(FixedMatrixAdversary(matrix, gain_class), "rank1_exact", Schedule(eta=0.1, T=2), rng)
        assert str(info.value) == message

    @pytest.mark.parametrize("strategy", ["exact_mmw", "rank1_exact", "rank1_lanczos"])
    def test_no_eigvalsh_per_step_at_dense_scale(self, monkeypatch, strategy):
        import mmwsketch.online as online
        import mmwsketch.projections as projections

        # at n = 24 every rank1_exact interval, widened by up to ANCHOR_TAU, stays narrow enough for the series
        horizon = 30
        adv_rng, play_rng = SeededRng(5).spawn(2)
        adversaries = [builtin_adversaries(kind, 24, adv_rng) for kind in ("random_rotation", "streaming_pca")]
        calls = {"eigvalsh": 0, "eigh": 0, "top_eigenvalue": 0, "anchor": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(np.linalg, "eigvalsh")
        counted(np.linalg, "eigh")
        counted(online, "top_eigenvalue")
        counted(projections, "anchor")
        for adv in adversaries:
            trace = run_online(adv, strategy, Schedule(eta=0.2, T=horizon), play_rng)
            trace.validate()
        games = len(adversaries)
        # exact_mmw decomposes once per step, plus once for the empty sum per game; rank1_exact anchors the
        # empty sum and then only at t = 20, where 0.2 (t - t_a) first exceeds ANCHOR_TAU / 2; the strategies
        # that do not decompose at a checkpoint, t = 1, 2, 4, 8, 16 and 30, compute lam_max there
        expected = {"eigvalsh": 0, "eigh": 0, "top_eigenvalue": 0, "anchor": 0}
        if strategy == "rank1_lanczos":
            expected["top_eigenvalue"] = games * 6
        elif strategy == "rank1_exact":
            expected["anchor"] = games * 2
            expected["top_eigenvalue"] = games * 6
        else:
            expected["eigh"] = games * (horizon + 1)
        assert calls == expected

    # streaming_pca sums are rank-deficient for t < n: their degenerate eigenspaces leave
    # the eigenbasis, and so the last bits of the play, to the decomposed matrix
    @pytest.mark.parametrize("kind", ["random_rotation", "streaming_pca"])
    @pytest.mark.parametrize("strategy", ["exact_mmw", "rank1_exact"])
    def test_dense_plays_replay_through_the_matrix_route(self, monkeypatch, strategy, kind):
        import mmwsketch.projections as projections

        n, horizon, eta = 8, 40, 0.3
        adv = _RecordingAdversary(builtin_adversaries(kind, n, SeededRng(21)))
        play_rng, draws = SeededRng(22), []
        sample = projections.sample_unit_sphere

        def recorded(n, rng, size=None):
            u = sample(n, rng, size)
            assert rng is play_rng  # the player's draws; streaming_pca draws its gains in online
            draws.append(u)
            return u

        monkeypatch.setattr(projections, "sample_unit_sphere", recorded)
        trace = run_online(adv, strategy, Schedule(eta=eta, T=horizon), play_rng)
        # rank1_exact's schedule: an anchor, or the last anchor's interval widened by the drift bound
        gain_sum, anchored = np.zeros((n, n)), 0
        form = last = anchor(eta * gain_sum)
        for t, gain in enumerate(adv.gains, start=1):
            if strategy == "exact_mmw":
                action = mmw_projection(eta * gain_sum)
            else:
                action = rank1_projection(form, draws[t - 1])
            # the engine projects the same scaled sum over the same interval, so the play is the same to the bit
            assert action.inner(gain) == trace.step_gain[t - 1], t
            gain_sum += gain
            y, bound = eta * gain_sum, online._drift_bound(eta, t, anchored, n, adv.gain_class)
            if 2.0 * bound <= ANCHOR_TAU:
                form = AnchoredForm(y, last.lo - bound, last.hi + bound, last.top)
            else:
                form = last = anchor(y)
                anchored = t
            if strategy == "exact_mmw" or not np.isnan(trace.lam_max_running[t - 1]):
                lam = top_eigenvalue(gain_sum)[0]
                assert abs(trace.lam_max_running[t - 1] - lam) <= 1e-12 * abs(lam), t
        if strategy == "rank1_exact":
            assert anchored == 28  # anchors at t = 14 and 28: the replay took both branches

    @pytest.mark.parametrize("kind", ["random_rotation", "fixed_matrix", "psd_random", "streaming_pca"])
    def test_rank1_lam_max_is_the_top_eigenvalue_of_y_over_eta_bitwise(self, kind):
        # rank1_exact anchors Y = eta G, by the reduction top_eigenvalue runs, once the drift bound since its
        # last anchor exceeds ANCHOR_TAU / 2, and reports its top over eta there; every other checkpoint
        # reduces G itself, and every other step records NaN
        n, horizon, eta = 17, 40, 0.3
        adv = _RecordingAdversary(builtin_adversaries(kind, n, SeededRng(41)))
        trace = run_online(adv, "rank1_exact", Schedule(eta=eta, T=horizon), SeededRng(42))
        gain_sum, anchored, anchors = np.zeros((n, n)), 0, []
        for t, gain in enumerate(adv.gains, start=1):
            gain_sum += gain
            lam = trace.lam_max_running[t - 1]
            if 2.0 * online._drift_bound(eta, t, anchored, n, adv.gain_class) > ANCHOR_TAU:
                anchored = t
                anchors.append(t)
                assert lam == top_eigenvalue(eta * gain_sum)[0] / eta, t
            elif t & (t - 1) == 0 or t == horizon:
                assert lam == top_eigenvalue(gain_sum)[0], t
            else:
                assert np.isnan(lam), t
        assert anchors == [14, 28]  # where 0.3 (t - t_a) first exceeds ANCHOR_TAU / 2

    def test_headline_game_sums_the_series_at_every_step(self, monkeypatch):
        # README's headline game (online-eig --n 32 --T 5000 --strategy rank1 on random_rotation) keeps
        # 83 r <= n^2 at every step, so no step takes the eigenpairs of Y; each anchor covers about
        # (ANCHOR_TAU / 2) / eta steps of drift, so the game reduces Y once per 157 steps, not at every step
        import mmwsketch.linalg as linalg
        import mmwsketch.projections as projections

        n, horizon = 32, 5000
        eigh, solves = linalg.dense_eigh, []
        original, anchors = projections.anchor, []
        monkeypatch.setattr(linalg, "dense_eigh", lambda a: solves.append(len(a)) or eigh(a))
        monkeypatch.setattr(projections, "anchor", lambda a: anchors.append(len(a)) or original(a))
        eta = default_eta(n, horizon)
        for seed in (5, 31001):
            anchors.clear()
            adv_rng, play_rng = SeededRng(seed).spawn(2)
            adv = builtin_adversaries("random_rotation", n, adv_rng)
            run_online(adv, "rank1_exact", Schedule(eta=eta, T=horizon), play_rng)
            assert solves == []
            assert len(anchors) <= math.ceil(horizon * eta * (1.0 + 1e-9) / (ANCHOR_TAU / 2.0)) + 1 == 33

    @pytest.mark.parametrize("kind,proofs,cholesky", [("streaming_pca", 1, 0), ("random_rotation", 0, 1)])
    def test_rank_one_gains_skip_the_cholesky_pair(self, monkeypatch, kind, proofs, cholesky):
        import mmwsketch.online as online

        calls = {"rank_one_within": 0, "proved": 0, "spectrum_within": 0}
        rank_one, within = online.rank_one_within, online.spectrum_within

        def counted_rank_one(*args):
            calls["rank_one_within"] += 1
            proved = rank_one(*args)
            calls["proved"] += proved
            return proved

        def counted_within(*args):
            calls["spectrum_within"] += 1
            return within(*args)

        monkeypatch.setattr(online, "rank_one_within", counted_rank_one)
        monkeypatch.setattr(online, "spectrum_within", counted_within)
        horizon = 40
        adv_rng, play_rng = SeededRng(6).spawn(2)
        run_online(builtin_adversaries(kind, 16, adv_rng), "rank1_exact", Schedule(eta=0.1, T=horizon), play_rng)
        assert calls == {
            "rank_one_within": horizon,
            "proved": proofs * horizon,
            "spectrum_within": cholesky * horizon,
        }

    def test_gains_try_the_rank_one_proof_before_the_symmetry_scan(self, monkeypatch, rng):
        import mmwsketch.online as online

        proofs = []
        rank_one = online.rank_one_within
        monkeypatch.setattr(online, "rank_one_within", lambda *args: proofs.append(rank_one(*args)) or proofs[-1])
        a = sample_unit_sphere(6, rng)
        exact = np.outer(a, a)
        nearly = exact.copy()
        nearly[0, 4] += 1e-13
        with monkeypatch.context() as m:
            # the proof alone accepts: neither the transposed scan nor a factorization runs
            for name in ("array_equal", "abs"):
                m.setattr(np, name, _unexpected(name))
            m.setattr(online, "spectrum_within", _unexpected("spectrum_within"))
            for gain in (exact, nearly):
                _validate_gain(gain, "psd_unit", 1, 6)
        assert proofs == [True, True]
        # at 1e-10 a proof over the class interval alone would accept: the narrowed one must not
        for skew in (1e-10, 1e-6):
            skewed = exact.copy()
            skewed[0, 4] += skew
            with pytest.raises(GainValidationError, match="^step 1: gain matrix is not symmetric$"):
                _validate_gain(skewed, "psd_unit", 1, 6)
        for value in (np.nan, np.inf):
            poisoned = 0.5 * exact
            poisoned[2, 2] = value
            with pytest.raises(GainValidationError, match="^step 1: gain has non-finite entries$"):
                _validate_gain(poisoned, "psd_unit", 1, 6)
        assert proofs == [True, True, False, False, False, False]

    def test_inf_gains_end_as_before(self, rng):
        a = sample_unit_sphere(6, rng)
        g = 0.5 * np.outer(a, a)
        i = int(np.argmax(g.diagonal()))
        g[i, i] = np.inf
        with pytest.raises(GainValidationError, match="^step 1: gain has non-finite entries$"):
            _validate_gain(g, "psd_unit", 1, 6)

    @pytest.mark.parametrize("gain_class", ["bounded_inf_norm_1", "psd_unit"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entries", [[(0, 1), (1, 0)], [(1, 1)]], ids=["off_diagonal", "diagonal"])
    def test_non_finite_gains_rejected_naming_step(self, gain_class, value, entries):
        g = 0.5 * np.eye(3)
        for ij in entries:
            g[ij] = value
        with pytest.raises(GainValidationError, match="^step 4: gain has non-finite entries$"):
            _validate_gain(g, gain_class, 4, 3)

    def test_nearly_symmetric_gains_keep_operator_symmetric(self, monkeypatch):
        import mmwsketch.projections as projections

        operators = []
        projection = projections.rank1_projection_lanczos

        def spy(op, *args, **kwargs):
            operators.append(op)
            return projection(op, *args, **kwargs)

        monkeypatch.setattr(projections, "rank1_projection_lanczos", spy)
        n, horizon = 10, 40
        adv_rng, play_rng = SeededRng(9).spawn(2)
        adv = _NearlySymmetricAdversary(n, adv_rng)
        trace = run_online(adv, "rank1_lanczos", Schedule(eta=0.2, T=horizon), play_rng)
        trace.validate()
        assert len(operators) == horizon
        # the step-T operator reads the live sum of all T gains
        assert symmetry_defect(operators[-1], SeededRng(1)) <= 1e-8

    def test_zero_gains_are_legal(self, rng):
        adv = builtin_adversaries("fixed_matrix", 4, rng, matrix=np.zeros((4, 4)))
        trace = run_online(adv, "rank1_exact", Schedule(eta=0.1, T=4), rng)
        assert trace.total_regret == pytest.approx(0.0, abs=1e-12)

    def test_trace_self_consistency(self, rng):
        adv = builtin_adversaries("random_rotation", 6, rng)
        trace = run_online(adv, "rank1_exact", Schedule(eta=0.2, T=40), rng)
        trace.validate()

    def test_krylov_depth_records(self):
        n, horizon = 24, 60
        adv_rng, play_rng = SeededRng(17).spawn(2)
        adv = builtin_adversaries("random_rotation", n, adv_rng)
        eta = default_eta(n, horizon)
        trace = run_online(adv, "rank1_lanczos", Schedule(eta=eta, T=horizon), play_rng)
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
        adv = _OrderSpyAdversary(DENSE_LIMIT + 1, [])
        for strategy in ("exact_mmw", "rank1_exact"):
            with pytest.raises(ValueError, match="dense limit"):
                run_online(adv, strategy, Schedule(eta=0.1, T=2), rng)
        assert adv.calls == 0  # refused before the first gain

    def test_unknown_strategy(self, rng):
        adv = builtin_adversaries("random_rotation", 4, rng)
        with pytest.raises(ValueError, match="strategy"):
            run_online(adv, "nope", Schedule(eta=0.1, T=2), rng)

    def test_lanczos_lam_max_only_at_checkpoints(self, monkeypatch):
        import mmwsketch.online as online

        n, horizon = 9, 37
        checkpoints = {1, 2, 4, 8, 16, 32, 37}
        adv = _RecordingAdversary(builtin_adversaries("random_rotation", n, SeededRng(31)))
        calls = []

        def counted(a):
            calls.append(1)
            return top_eigenvalue(a)

        monkeypatch.setattr(online, "top_eigenvalue", counted)
        trace = run_online(adv, "rank1_lanczos", Schedule(eta=0.2, T=horizon), SeededRng(32))
        trace.validate()
        assert len(calls) == len(checkpoints)
        gain_sum = np.zeros((n, n))
        for t, gain in enumerate(adv.gains, start=1):
            gain_sum += gain
            if t in checkpoints:
                # the same sum, summed in the same order: the same bits
                assert trace.lam_max_running[t - 1] == top_eigenvalue(gain_sum)[0], t
            else:
                assert np.isnan(trace.lam_max_running[t - 1]), t
        assert trace.lam_max_final == trace.lam_max_running[-1]
        assert trace.total_regret == trace.lam_max_final - trace.cum_gain[-1]

    def test_operator_mode_lam_max_only_at_checkpoints(self, monkeypatch):
        import mmwsketch.linalg as linalg

        n, horizon = DENSE_LIMIT + 1, 5
        adv = _RecordingAdversary(builtin_adversaries("streaming_pca", n, SeededRng(3)))
        extremes, steps = linalg._lanczos_extremes, []

        def counted(a):
            steps.append(len(adv.gains))  # the step whose gain was requested last
            return extremes(a)

        monkeypatch.setattr(linalg, "_lanczos_extremes", counted)
        trace = run_online(adv, "rank1_lanczos", Schedule(eta=default_eta(n, horizon), T=horizon), SeededRng(4))
        trace.validate()
        assert steps == [1, 2, 4, 5]
        assert np.isnan(trace.lam_max_running[2])
        assert np.isfinite(np.delete(trace.lam_max_running, 2)).all()
        assert trace.lam_max_tol > 0.0

    def test_checkpoints_equal_a_restarted_lanczos_bitwise(self, extremes_against_restart):
        n, horizon = DENSE_LIMIT + 1, 40
        adv_rng, play_rng = SeededRng(7).spawn(2)
        adv = builtin_adversaries("streaming_pca", n, adv_rng)
        trace = run_online(adv, "rank1_lanczos", Schedule(eta=default_eta(n, horizon), T=horizon), play_rng)
        assert len(extremes_against_restart) == 7  # t = 1, 2, 4, 8, 16, 32, 40
        for got, restarted in extremes_against_restart:
            assert np.array(got).tobytes() == np.array(restarted).tobytes()
        assert trace.lam_max_final == extremes_against_restart[-1][0][1]

    def test_operator_mode_smoke(self):
        # one dimension above the limit: the engine's own operator route, no lowered limit
        n, horizon = DENSE_LIMIT + 1, 3
        adv = _RecordingAdversary(builtin_adversaries("streaming_pca", n, SeededRng(3)))
        eta = default_eta(n, horizon)
        trace = run_online(adv, "rank1_lanczos", Schedule(eta=eta, T=horizon), SeededRng(4))
        trace.validate()
        assert trace.lam_max_tol > 0.0
        assert np.array_equal(trace.k_used, trace.matvecs)
        assert np.all((trace.k_used >= 1) & (trace.k_used <= trace.k_cap))
        gain_sum = np.zeros((n, n))
        for t, gain in enumerate(adv.gains):
            gain_sum += gain
            lam = scipy.linalg.eigvalsh(gain_sum, subset_by_index=[n - 1, n - 1])[0]  # LAPACK syevr, exact
            assert abs(trace.lam_max_running[t] - lam) <= trace.lam_max_tol, t


class _SkewedAdversary(Adversary):
    """One fixed gain handed out as given, its upper triangle off its lower one by ``skew`` where ``mask`` is set."""

    def __init__(self, symmetric, skew, mask, gain_class):
        self.n, self.gain_class = len(symmetric), gain_class
        self.gain = symmetric + skew * np.triu(mask, 1)

    def next_gain(self, history):
        return self.gain


def _projected_forms(monkeypatch, adversary, eta, horizon, seed):
    """Run ``rank1_exact`` and return, per play, its interval, the spectrum the series reads and the factor's error.

    The series reads the upper triangle of the form's matrix; the factor is compared with the sketch through all
    eigenpairs of the symmetric part of that matrix.
    """
    import mmwsketch.projections as projections

    seen, projection = [], projections.rank1_projection

    def spy(form, u):
        action = projection(form, u)
        lam = np.linalg.eigvalsh(form.matrix, UPLO="U")
        y = 0.5 * (form.matrix + form.matrix.T)
        seen.append((form.lo, form.hi, lam[0], lam[-1], np.abs(action.factor - exact_rank1_factor(y, u)).max()))
        return action

    monkeypatch.setattr(projections, "rank1_projection", spy)
    run_online(adversary, "rank1_exact", Schedule(eta=eta, T=horizon), SeededRng(seed))
    assert len(seen) == horizon
    return np.array(seen).T


class TestAnchoredOnlineRoute:
    """``rank1_exact`` reduces ``Y`` only at anchors, and widens the last anchor's interval by ``_drift_bound``."""

    @pytest.mark.parametrize("kind", ["random_rotation", "fixed_matrix", "psd_random", "streaming_pca"])
    def test_every_projected_y_lies_in_the_players_interval(self, monkeypatch, kind):
        import mmwsketch.projections as projections

        n, horizon, eta = 32, 64, 0.25
        original, anchors = projections.anchor, []
        monkeypatch.setattr(projections, "anchor", lambda a: anchors.append(len(a)) or original(a))
        adv = builtin_adversaries(kind, n, SeededRng(51))
        lo, hi, lam_min, lam_max, factor_err = _projected_forms(monkeypatch, adv, eta, horizon, 52)
        # anchors at t = 0, 16, 32, 48 and 64, where 0.25 (t - t_a) first exceeds ANCHOR_TAU / 2
        assert len(anchors) == 5
        assert (lo <= lam_min).all() and (lam_max <= hi).all()
        # a re-anchor keeps the top end within tau of lam_max, so the series keeps its precision
        assert (hi - lam_max).max() <= ANCHOR_TAU
        assert factor_err.max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drift_bound_covers_the_rounding_of_the_gain_sum(self, seed):
        # a fixed_matrix game about t = 2^36 steps in: its sums round at the scale of t, so over a few steps
        # Y moves more than the gains, each of operator norm at most 1 + 1e-9, can move it
        n, eta, steps = 8, 0.3, 3
        gain = builtin_adversaries("fixed_matrix", n, SeededRng(seed)).next_gain(())
        _, hi = online.GAIN_SPECTRUM["bounded_inf_norm_1"]
        moves = []
        for t in range(2**36, 2**36 + 20):
            gain_sum = (t - steps) * gain  # the sum of t - steps gains, up to rounding
            y_a = eta * gain_sum
            for _ in range(steps):
                gain_sum += gain
            moved = np.abs(np.linalg.eigvalsh(eta * gain_sum - y_a)).max()
            assert moved <= online._drift_bound(eta, t, t - steps, n, "bounded_inf_norm_1"), t
            moves.append(moved)
        assert max(moves) > eta * steps * hi

    @pytest.mark.parametrize("path", ["rank_one", "cholesky"])
    def test_skewed_gains_keep_the_series_matrix_in_the_interval(self, monkeypatch, path):
        # the series reads Y's upper triangle, and the checks of a gain hold its lower one (Cholesky) or its
        # symmetric part (rank-one proof) in the class interval: the bound covers the validated skew
        n, horizon, eta = 32, 160, 0.2
        ones = np.full((n, n), 1.0 / n)
        mask = np.ones((n, n))
        if path == "rank_one":
            # a rank-one gain whose pivot column and 2x2 minor are exact, skewed by 4.5e-13 relative elsewhere
            mask[0, n - 1] = 0.0
            adv = _SkewedAdversary(ones, 2.0**-46, mask, "psd_unit")
        else:
            # a rank-two projection, skewed by 6e-13 relative to the symmetry check's scale, near its 1e-12
            w = np.zeros(n)
            w[:2] = [math.sqrt(0.5), -math.sqrt(0.5)]
            adv = _SkewedAdversary(ones + np.outer(w, w), 2.0**-40, mask, "psd_unit")
        calls, within = [], online.spectrum_within
        monkeypatch.setattr(online, "spectrum_within", lambda *args: calls.append(1) or within(*args))
        lo, hi, lam_min, lam_max, _ = _projected_forms(monkeypatch, adv, eta, horizon, 53)
        assert len(calls) == (horizon if path == "cholesky" else 0)
        assert (lo <= lam_min).all() and (lam_max <= hi).all()


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

        # the averaged play: the Monte-Carlo averaged projection of the same scaled gain sums
        avg_totals = []
        for seed in range(3):
            adv = builtin_adversaries("random_rotation", n, SeededRng(adversary_seed))
            rng, gain_sum, total = SeededRng(5000 + seed), np.zeros((n, n)), 0.0
            for _ in range(horizon):
                gain = adv.next_gain([])
                total += estimate_avg_projection_dirichlet(eta * gain_sum, 4000, rng).action.inner(gain)
                gain_sum += gain
            avg_totals.append(total)
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
