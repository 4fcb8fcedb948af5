"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The expensive game sweeps are shared through
module-scoped fixtures.
"""

import functools
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import digamma

from mmwsketch import (
    SeededRng,
    SparseSymOperator,
    Schedule,
    builtin_adversaries,
    builtin_instance,
    cli,
    default_eta,
    estimate_avg_projection_direct,
    estimate_avg_projection_dirichlet,
    estimate_bregman,
    expm_multiply,
    mmw_projection,
    rank1_projection,
    rank1_projection_lanczos,
    required_iterations,
    run_online,
    sample_dirichlet_half,
    sample_unit_sphere,
    solve_feasibility,
    trace_norm_distance,
)
from mmwsketch.online import (
    Adversary,
    expected_regret_bound,
    high_probability_regret_bound,
    refined_regret_bound,
)
from conftest import expm_dense, haar_orthogonal, random_symmetric


def report(num, title, ok, detail, elapsed=None, budget=None):
    stamp = "" if elapsed is None else f" [{elapsed:.1f}s]"
    print(f"\n[acceptance] criterion {num:02d} {title}: {'PASS' if ok else 'FAIL'} ({detail}){stamp}")
    assert ok, f"criterion {num} {title}: {detail}"
    if budget is not None:
        within = elapsed <= budget
        print(f"[acceptance] criterion {num:02d} runtime: {elapsed:.1f}s <= {budget}s "
              f"{'PASS' if within else 'FAIL'}")
        assert within, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s > {budget}s"


def map_seeds(func, seeds):
    """``[func(s) for s in seeds]``, computed in up to four worker processes started afresh."""
    workers = min(4, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(func, seeds))


def _unit_norm_run(n, horizon, seed):
    adv_rng, play_rng = SeededRng(seed).spawn(2)
    adv = builtin_adversaries("random_rotation", n, adv_rng)
    return run_online(adv, "rank1_exact", Schedule(eta=default_eta(n, horizon), T=horizon), play_rng)


@pytest.fixture(scope="module")
def unit_norm_sweep():
    """50-seed sweep: n=32, T=5000, default eta, unit-norm oblivious gains."""
    n, horizon = 32, 5000
    eta = default_eta(n, horizon)
    t0 = time.perf_counter()
    runs = map_seeds(functools.partial(_unit_norm_run, n, horizon), range(50))
    return {"runs": runs, "eta": eta, "n": n, "T": horizon, "elapsed": time.perf_counter() - t0}


def test_criterion_01_avg_projection_cross_oracle():
    t0 = time.perf_counter()
    rng = SeededRng(303)
    worst_ratio = 0.0
    ok = True
    for _ in range(20):
        y = random_symmetric(rng, 4, op_norm=float(rng.uniform(0.3, 3.0)))
        direct = estimate_avg_projection_direct(y, 100_000, rng)
        spectral = estimate_avg_projection_dirichlet(y, 100_000, rng)
        gap = np.abs(direct.action.matrix - spectral.action.matrix)
        slack = 3.0 * np.sqrt(direct.stderr**2 + spectral.stderr**2)
        ratio = float((gap / np.maximum(slack, 1e-300)).max())
        worst_ratio = max(worst_ratio, ratio)
        ok &= bool(np.all(gap <= slack + 1e-12))
    elapsed = time.perf_counter() - t0
    report(1, "averaged-projection cross-oracle", ok,
           f"20 instances at 1e5 samples, worst gap/3se ratio {worst_ratio:.3f}",
           elapsed, budget=60.0)


def test_criterion_02_rank1_projection_exactness():
    t0 = time.perf_counter()
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    hand = rank1_projection(np.diag([math.log(4.0), 0.0]), u).densify()
    expected = np.array([[4.0, 2.0], [2.0, 1.0]]) / 5.0
    hand_ok = np.abs(hand - expected).max() <= 1e-12

    rng = SeededRng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        y = random_symmetric(rng, n)
        v = sample_unit_sphere(n, rng)
        base = rank1_projection(y, v)
        c = float(rng.uniform(-50.0, 50.0))
        shifted = rank1_projection(y + c * np.eye(n), v)
        worst = max(worst, float(np.abs(base.factor - shifted.factor).max()))
        r = haar_orthogonal(rng, n)
        lhs = rank1_projection(r @ y @ r.T, r @ v).densify()
        rhs = r @ base.densify() @ r.T
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.perf_counter() - t0
    ok = hand_ok and worst <= 1e-9
    report(2, "rank-1 projection exactness", ok,
           f"hand example max err {np.abs(hand - expected).max():.2e}, "
           f"worst shift/rotation deviation {worst:.2e}",
           elapsed, budget=5.0)


def test_criterion_03_lanczos_accuracy():
    t0 = time.perf_counter()
    rng = SeededRng(103)
    n = 64
    raw = sp.random(n, n, density=0.15, random_state=7)
    y = (raw + raw.T).toarray()
    lam = np.linalg.eigvalsh(y)
    y *= 8.0 / max(abs(lam[0]), abs(lam[-1]))
    csr = sp.csr_matrix(y)
    op = SparseSymOperator(n, lambda v: csr @ v, nnz_hint=csr.nnz)

    k = required_iterations(8.0, 0.01, 0.1, n)
    assert k == 49  # frozen from the depth formula at these parameters
    hits = 0
    worst = 0.0
    for _ in range(200):
        u = sample_unit_sphere(n, rng)
        exact = rank1_projection(y, u)
        approx = rank1_projection_lanczos(op, u, k)
        dist = trace_norm_distance(exact, approx)
        worst = max(worst, dist)
        hits += dist <= 0.01
    sketch_ok = hits >= 180

    rel_errs = []
    for _ in range(5):
        b = rng.standard_normal(n)
        exact_exp = expm_dense(0.5 * y) @ b
        approx_exp = expm_multiply(op.scaled(0.5), b, n)
        rel_errs.append(np.linalg.norm(approx_exp - exact_exp) / np.linalg.norm(exact_exp))
    full_ok = max(rel_errs) <= 1e-8
    elapsed = time.perf_counter() - t0
    report(3, "Krylov projection accuracy", sketch_ok and full_ok,
           f"k={k}: {hits}/200 draws within 0.01 (worst {worst:.2e}); "
           f"full-depth rel err {max(rel_errs):.2e}",
           elapsed, budget=120.0)


def test_criterion_04_expected_regret_bound(unit_norm_sweep):
    runs = unit_norm_sweep["runs"]
    n, horizon, eta = unit_norm_sweep["n"], unit_norm_sweep["T"], unit_norm_sweep["eta"]
    mean_regret = float(np.mean([r.total_regret for r in runs]))
    mean_avg = float(np.mean([r.avg_regret for r in runs]))
    bound = expected_regret_bound(n, eta, horizon)
    avg_target = math.sqrt(6.0 * math.log(4.0 * n) / horizon)
    assert bound == pytest.approx(381.5244525814676, rel=1e-12)
    assert avg_target == pytest.approx(0.07630489051629352, rel=1e-12)
    ok = mean_regret <= bound and mean_avg <= avg_target
    report(4, "expected regret bound", ok,
           f"mean regret {mean_regret:.1f} <= {bound:.1f}; "
           f"mean avg regret {mean_avg:.5f} <= {avg_target:.5f}",
           unit_norm_sweep["elapsed"], budget=300.0)


def test_criterion_05_high_probability_bound(unit_norm_sweep):
    runs = unit_norm_sweep["runs"]
    n, horizon, eta = unit_norm_sweep["n"], unit_norm_sweep["T"], unit_norm_sweep["eta"]
    hp_bound = high_probability_regret_bound(n, eta, horizon, 0.05)
    frac = float(np.mean([r.total_regret <= hp_bound for r in runs]))
    ok = frac >= 19.0 / 20.0
    report(5, "high-probability regret bound", ok,
           f"{frac:.0%} of 50 seeds within {hp_bound:.1f} (need >= 95%)")


def test_criterion_06_refined_psd_bound():
    t0 = time.perf_counter()
    n, horizon, eta = 16, 2000, 1.0 / 6.0
    regrets, bounds = [], []
    for seed in range(50):
        master = SeededRng(600 + seed)
        adv_rng, play_rng = master.spawn(2)
        adv = builtin_adversaries("psd_random", n, adv_rng)
        trace = run_online(adv, "rank1_exact", Schedule(eta=eta, T=horizon), play_rng)
        regrets.append(trace.total_regret)
        bounds.append(refined_regret_bound(n, eta, trace.lam_max_final))
    mean_regret, mean_bound = float(np.mean(regrets)), float(np.mean(bounds))
    elapsed = time.perf_counter() - t0
    ok = mean_regret <= mean_bound
    report(6, "refined PSD regret bound", ok,
           f"mean regret {mean_regret:.1f} <= mean per-run bound {mean_bound:.1f}",
           elapsed, budget=180.0)


def test_criterion_07_curvature_sampling_suite():
    t0 = time.perf_counter()
    rng = SeededRng(107)
    samples = 100_000
    smooth_ok = refined_ok = diameter_ok = True

    for _ in range(50):
        n = int(rng.integers(3, 7))
        y = random_symmetric(rng, n, op_norm=float(rng.uniform(0.5, 2.0)))
        delta = random_symmetric(rng, n, op_norm=float(rng.uniform(0.05, 0.5)))
        norm = float(np.abs(np.linalg.eigvalsh(delta)).max())
        est = estimate_bregman(y, y + delta, samples, rng)
        smooth_ok &= est.value <= 1.5 * norm**2 + 3.0 * est.stderr

    for _ in range(50):
        n = int(rng.integers(3, 7))
        y = random_symmetric(rng, n, op_norm=float(rng.uniform(0.5, 2.0)))
        base = random_symmetric(rng, n)
        delta = base @ base.T
        norm = float(np.abs(np.linalg.eigvalsh(delta)).max())
        delta *= float(rng.uniform(0.3, 1.0)) / (6.0 * norm)
        norm = float(np.abs(np.linalg.eigvalsh(delta)).max())
        breg = estimate_bregman(y, y + delta, samples, rng)
        w, q = np.linalg.eigh(y)
        half = np.exp(0.5 * (w - w[-1]))
        u = sample_unit_sphere(n, rng, size=samples)
        v = ((u @ q) * half) @ q.T
        inner_vals = np.einsum("si,ij,sj->s", v, delta, v) / (v * v).sum(axis=1)
        inner = float(inner_vals.mean())
        inner_se = float(inner_vals.std(ddof=1) / math.sqrt(samples))
        slack = 3.0 * math.sqrt(breg.stderr**2 + (3.0 * norm * inner_se) ** 2)
        refined_ok &= breg.value <= 3.0 * norm * inner + slack

    for _ in range(50):
        n = int(rng.integers(3, 7))
        y = random_symmetric(rng, n, op_norm=2.0)
        yp = random_symmetric(rng, n, op_norm=2.0)
        to_zero = estimate_bregman(y, np.zeros((n, n)), samples, rng)
        to_yp = estimate_bregman(y, yp, samples, rng)
        se = math.sqrt(to_zero.stderr**2 + to_yp.stderr**2)
        diameter_ok &= to_zero.value - to_yp.value <= math.log(4.0 * n) + 3.0 * se

    elapsed = time.perf_counter() - t0
    ok = smooth_ok and refined_ok and diameter_ok
    report(7, "curvature sampling suite", ok,
           f"smoothness {smooth_ok}, refined {refined_ok}, diameter {diameter_ok} "
           f"(50 instances each at 1e5 samples)",
           elapsed, budget=300.0)


class _ReplayAdversary(Adversary):
    """Hands the engine a recorded gain sequence of another adversary, one gain a step."""

    def __init__(self, source, gains):
        self.n, self.gain_class = source.n, source.gain_class
        self._gains = iter(gains)

    def next_gain(self, history):
        return next(self._gains)


def _criterion_08_game(seed, strategy, sched, gains=None):
    """One game of criterion 08: seed ``seed``'s adversary draws its gains, or replays ``gains`` drawn before."""
    adv_rng, play_rng = SeededRng(seed).spawn(2)
    adv = builtin_adversaries("random_rotation", 64, adv_rng)
    if gains is not None:
        adv = _ReplayAdversary(adv, gains)
    return run_online(adv, strategy, sched, play_rng)


def _criterion_08_gains(seed, horizon):
    """The gains of seed ``seed``'s oblivious adversary: its stream does not depend on the plays."""
    adv = builtin_adversaries("random_rotation", 64, SeededRng(seed).spawn(2)[0])
    return [adv.next_gain([]) for _ in range(horizon)]


def _criterion_08_seed(seed, horizon=2000):
    """Seed ``seed``'s criterion-08 outcome: whether the Krylov game is within one unit, and its matvec check."""
    sched = Schedule(eta=default_eta(64, horizon), T=horizon, delta=0.1)
    # both games see the same gains: draw them once
    gains = _criterion_08_gains(seed, horizon)
    exact = _criterion_08_game(seed, "rank1_exact", sched, gains)
    approx = _criterion_08_game(seed, "rank1_lanczos", sched, gains)
    hit = bool(approx.cum_gain[-1] >= exact.cum_gain[-1] - 1.0)
    # every step runs at least one matvec and never more than its depth cap
    return hit, bool(np.all((1 <= approx.matvecs) & (approx.matvecs <= approx.k_cap)))


def test_criterion_08_lanczos_play_matches_exact():
    t0 = time.perf_counter()
    outcomes = map_seeds(_criterion_08_seed, [800 + seed for seed in range(50)])
    hits = sum(hit for hit, _ in outcomes)
    matvec_ok = all(ok for _, ok in outcomes)
    elapsed = time.perf_counter() - t0
    ok = hits >= 45 and matvec_ok
    report(8, "depth-scheduled play loses at most one unit", ok,
           f"{hits}/50 seeds within -1; 1 <= matvecs <= k_cap at every step: {matvec_ok}",
           elapsed)


def test_criterion_08_replayed_gains_give_the_regenerated_games():
    horizon = 2000
    sched = Schedule(eta=default_eta(64, horizon), T=horizon, delta=0.1)
    gains = _criterion_08_gains(800, horizon)
    for strategy in ("rank1_exact", "rank1_lanczos"):
        replayed = _criterion_08_game(800, strategy, sched, gains)
        regenerated = _criterion_08_game(800, strategy, sched)
        for name in ("step_gain", "cum_gain", "lam_max_running", "k_used", "k_cap", "matvecs", "krylov_err_est"):
            assert getattr(replayed, name).tobytes() == getattr(regenerated, name).tobytes(), (strategy, name)
        for name in ("lam_max_final", "lam_max_tol", "total_regret", "avg_regret"):
            assert getattr(replayed, name) == getattr(regenerated, name), (strategy, name)


def test_criterion_09_sdp_solver():
    t0 = time.perf_counter()
    instance = builtin_instance("rand20x10")
    assert instance.compute_width() <= 1.0 + 1e-9
    gaps = []
    for seed in range(20):
        result = solve_feasibility(instance, 0.25, rng=SeededRng(900 + seed))
        assert result.T == 856  # frozen from the schedule formula
        gaps.append(result.gap.value)
    mean_gap = float(np.mean(gaps))

    sym = solve_feasibility(builtin_instance("sym2x2"), 0.25, rng=SeededRng(909))
    sym_ok = sym.s_lower <= 0.0 <= sym.s_upper and (sym.s_upper - sym.s_lower) <= 0.25
    elapsed = time.perf_counter() - t0
    ok = mean_gap <= 0.25 and sym_ok
    report(9, "saddle-point feasibility solver", ok,
           f"mean gap {mean_gap:.4f} <= 0.25 over 20 seeds; "
           f"symmetric fixture interval [{sym.s_lower:.4f}, {sym.s_upper:.4f}]",
           elapsed, budget=180.0)


def test_criterion_10_dirichlet_digamma_oracle():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (2, 8, 32):
        w = sample_dirichlet_half(n, SeededRng(1000 + n), size=1_000_000)
        vals = -np.log(w[:, 0])
        target = float(digamma(n / 2.0) - digamma(0.5))
        se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
        ok &= abs(vals.mean() - target) <= 3.0 * se
        ok &= vals.mean() <= math.log(4.0 * n) + 3.0 * se
        details.append(f"n={n}: {vals.mean():.4f} vs {target:.4f} (3se {3 * se:.4f})")
    # the two-dimensional case pins the classic constant
    assert abs(2.0 * math.log(2.0) - (digamma(1.0) - digamma(0.5))) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(10, "Dirichlet(1/2) digamma oracle", ok, "; ".join(details), elapsed)


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "det"

    def volatile_stripped(payload):
        drop = {"timestamp", "wall_ns"}
        if isinstance(payload, dict):
            return {k: volatile_stripped(v) for k, v in payload.items() if k not in drop}
        if isinstance(payload, list):
            return [volatile_stripped(v) for v in payload]
        return payload

    def snapshot():
        meta, header, rows = cli.read_csv(out / "online-eig-trace-seed7.csv")
        drop = header.index("wall_ns")
        trimmed = [r[:drop] + r[drop + 1 :] for r in rows]
        summary = volatile_stripped(
            json.loads((out / "online-eig-summary.json").read_text())
        )
        sdp_payload = volatile_stripped(
            json.loads((out / "sdp-feas-summary.json").read_text())
        )
        return meta["config"], trimmed, summary, sdp_payload

    online_args = ["online-eig", "--n", "8", "--T", "40", "--seed", "7", "--out", str(out)]
    sdp_args = [
        "sdp-feas", "--instance", "builtin:sym2x2", "--epsilon", "0.5",
        "--seed", "7", "--out", str(out),
    ]
    assert cli.main(online_args) == 0
    assert cli.main(sdp_args) == 0
    first = snapshot()
    assert cli.main(online_args) == 0
    assert cli.main(sdp_args) == 0
    second = snapshot()
    elapsed = time.perf_counter() - t0
    report(11, "deterministic artifacts", first == second,
           "CSV and JSON payloads identical across reruns (timestamps excluded)", elapsed)
