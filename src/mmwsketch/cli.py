"""Command-line front end: experiment orchestration and machine-readable output.

Subcommands ``online-eig``, ``sdp-feas``, ``bench-lanczos``, and ``selftest``
write CSV traces (per-step data) and JSON summaries (aggregates with a full
config echo).  Reruns with identical config and seed are bitwise identical
apart from timestamps and wall-clock fields.  Exit codes: 0 success, 1 usage
or config validation, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .lanczos import DEFAULT_K0, expm_multiply
from .linalg import (
    DENSE_LIMIT,
    ConvergenceError,
    SeededRng,
    sample_dirichlet_half,
    sample_unit_sphere,
)
from .online import (
    ADVERSARY_KINDS,
    GainValidationError,
    REFINED_ETA_MAX,
    Schedule,
    builtin_adversaries,
    default_eta,
    expected_regret_bound,
    high_probability_regret_bound,
    kt_schedule,
    refined_regret_bound,
    run_online,
)
from .projections import (
    estimate_avg_projection_direct,
    estimate_avg_projection_dirichlet,
    mmw_projection,
    rank1_projection,
)
from .sdp import (
    InstanceFormatError,
    builtin_instance,
    load_instance,
    solve_feasibility,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

ENV_OUTPUT_DIR = "MMWSKETCH_OUTPUT_DIR"

TRACE_SCHEMA = "online-eig-trace-v2"
BENCH_SCHEMA = "bench-lanczos-v1"
ONLINE_SUMMARY_SCHEMA = "online-eig-summary-v1"
SDP_SUMMARY_SCHEMA = "sdp-feas-v1"
#: v1 traces (no ``k_cap``/``krylov_err_est``, ``k_used`` the scheduled depth) stay readable.
KNOWN_CSV_SCHEMAS = frozenset({"online-eig-trace-v1", TRACE_SCHEMA, BENCH_SCHEMA})

STRATEGY_TOKENS = {
    "exact-mmw": "exact_mmw",
    "rank1": "rank1_exact",
    "rank1-lanczos": "rank1_lanczos",
    "averaged-mc": "averaged_mc",
}

DEFAULTS = {
    "n": 32,
    "m": 10,
    "T": 1000,
    "epsilon": 0.25,
    "delta": 0.1,
    "eta": None,
    "k0": DEFAULT_K0,
    "strategy": "rank1",
    "adversary": "random_rotation",
    "seeds": 1,
    "seed": None,
    "seed_list": None,
    "out": None,
    "dense_limit": DENSE_LIMIT,
    "mc_samples": 2000,
    "hp_delta": 0.05,
    "instance": "builtin:rand20x10",
    "lanczos": False,
    "workers": 1,
    "sizes": "8,16",
    "ks": "1,2,4,8,16",
    "spectra": "diag,gauss,sparse",
    "op_norm": 4.0,
    "bench_seeds": 3,
}


class UsageError(ValueError):
    """Invalid flags or configuration; maps to exit code 1."""


def _resolve_seeds(cfg):
    if cfg.get("seed_list"):
        try:
            return [int(s) for s in str(cfg["seed_list"]).split(",") if s.strip() != ""]
        except ValueError as err:
            raise UsageError(f"bad --seed-list: {err}") from err
    if cfg.get("seed") is not None:
        return [int(cfg["seed"])]
    count = int(cfg.get("seeds", 1))
    if count < 1:
        raise UsageError("--seeds must be >= 1")
    return list(range(count))


def _output_dir(cfg):
    out = cfg.get("out") or os.environ.get(ENV_OUTPUT_DIR) or "mmwsketch-out"
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(cfg, seeds):
    echo = {k: v for k, v in sorted(cfg.items()) if k not in ("config", "func")}
    echo["resolved_seeds"] = seeds
    echo["version"] = __version__
    return echo


def write_csv(path, schema, config, header, rows):
    lines = [
        f"# schema={schema}",
        f"# version={__version__}",
        f"# config={json.dumps(config, sort_keys=True)}",
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path, known_schemas=KNOWN_CSV_SCHEMAS):
    """Read an emitted CSV artifact; rejects unknown schema versions."""
    meta = {}
    header = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
                continue
            if not line:
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    schema = meta.get("schema")
    if schema not in known_schemas:
        raise UsageError(f"unknown CSV schema {schema!r}; known: {sorted(known_schemas)}")
    return meta, header, rows


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _online_run_for_seed(args):
    cfg, seed = args
    n = cfg["n"]
    master = SeededRng(seed)
    adv_rng, play_rng = master.spawn(2)
    adversary = builtin_adversaries(cfg["adversary"], n, adv_rng)
    schedule = Schedule(
        eta=cfg["resolved_eta"],
        T=cfg["T"],
        delta=cfg["delta"],
        kt_rule=kt_schedule(n, cfg["T"], cfg["resolved_eta"], cfg["delta"], cfg["k0"])
        if STRATEGY_TOKENS[cfg["strategy"]] == "rank1_lanczos"
        else None,
    )
    trace = run_online(
        adversary,
        STRATEGY_TOKENS[cfg["strategy"]],
        schedule,
        play_rng,
        dense_limit=cfg["dense_limit"],
        mc_samples=cfg["mc_samples"],
    )
    return seed, trace


def cmd_online_eig(cfg):
    n, horizon = int(cfg["n"]), int(cfg["T"])
    if n < 1 or horizon < 1:
        raise UsageError("n and T must be >= 1")
    if cfg["strategy"] not in STRATEGY_TOKENS:
        raise UsageError(f"unknown strategy {cfg['strategy']!r}")
    if cfg["adversary"] not in ADVERSARY_KINDS:
        raise UsageError(f"unknown adversary {cfg['adversary']!r}")
    if not 0.0 < cfg["delta"] < 1.0:
        raise UsageError("delta must lie in (0, 1)")
    if not 0.0 < cfg["hp_delta"] < 1.0:
        raise UsageError("hp-delta must lie in (0, 1)")
    if cfg["eta"] is not None and not (math.isfinite(cfg["eta"]) and cfg["eta"] > 0.0):
        raise UsageError("eta must be a positive finite number")
    if not (math.isfinite(cfg["k0"]) and cfg["k0"] > 0.0):
        raise UsageError("k0 must be a positive finite number")
    if cfg["mc_samples"] < 1:
        raise UsageError("mc-samples must be >= 1")
    strategy = STRATEGY_TOKENS[cfg["strategy"]]
    if strategy in ("exact_mmw", "rank1_exact", "averaged_mc") and n > cfg["dense_limit"]:
        raise UsageError(
            f"strategy {cfg['strategy']} requires n <= dense limit {cfg['dense_limit']}"
        )
    eta = cfg["eta"] if cfg["eta"] is not None else default_eta(n, horizon)
    refined = cfg["adversary"] in ("psd_random", "streaming_pca")
    if refined and eta > REFINED_ETA_MAX:
        print(
            f"warning: clamping eta from {eta:.6g} to {REFINED_ETA_MAX:.6g} "
            "(refined PSD bound requires eta <= 1/6)",
            file=sys.stderr,
        )
        eta = REFINED_ETA_MAX
    cfg["resolved_eta"] = eta
    seeds = _resolve_seeds(cfg)
    out_dir = _output_dir(cfg)
    echo = _echo_config(cfg, seeds)

    jobs = [(cfg, seed) for seed in seeds]
    if cfg["workers"] > 1:
        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            results = list(pool.map(_online_run_for_seed, jobs))
    else:
        results = [_online_run_for_seed(job) for job in jobs]
    results.sort(key=lambda item: item[0])

    per_seed = []
    for seed, trace in results:
        trace.validate()
        csv_path = os.path.join(out_dir, f"online-eig-trace-seed{seed}.csv")
        write_csv(
            csv_path,
            TRACE_SCHEMA,
            echo | {"seed": seed},
            trace.columns(),
            trace.rows(),
        )
        if refined:
            bound = refined_regret_bound(n, eta, trace.lam_max_final)
            hp_bound = bound + math.sqrt(2.0 * horizon * math.log(1.0 / cfg["hp_delta"]))
        else:
            bound = expected_regret_bound(n, eta, horizon)
            hp_bound = high_probability_regret_bound(n, eta, horizon, cfg["hp_delta"])
        per_seed.append(
            {
                "seed": seed,
                "total_regret": trace.total_regret,
                "avg_regret": trace.avg_regret,
                "lam_max": trace.lam_max_final,
                "lam_max_tol": trace.lam_max_tol,
                "matvecs": int(trace.matvecs.sum()),
                "expected_bound": bound,
                "high_prob_bound": hp_bound,
                "within_expected_bound": bool(trace.total_regret <= bound),
                "within_high_prob_bound": bool(trace.total_regret <= hp_bound),
                "trace_csv": os.path.basename(csv_path),
            }
        )

    mean_regret = float(np.mean([r["total_regret"] for r in per_seed]))
    mean_bound = float(np.mean([r["expected_bound"] for r in per_seed]))
    summary = {
        "schema": ONLINE_SUMMARY_SCHEMA,
        "version": __version__,
        "timestamp": _timestamp(),
        "config": echo,
        "eta": eta,
        "bound_kind": "psd_refined" if refined else "unit_norm",
        "per_seed": per_seed,
        "aggregate": {
            "mean_total_regret": mean_regret,
            "mean_avg_regret": mean_regret / horizon,
            "mean_expected_bound": mean_bound,
            "avg_regret_target": math.sqrt(6.0 * math.log(4.0 * n) / horizon),
            "mean_within_expected": bool(mean_regret <= mean_bound),
            "frac_within_high_prob": float(
                np.mean([r["within_high_prob_bound"] for r in per_seed])
            ),
        },
    }
    write_json(os.path.join(out_dir, "online-eig-summary.json"), summary)
    print(f"online-eig: {len(seeds)} run(s) -> {out_dir}")
    print(
        f"  mean regret {mean_regret:.4f} vs expected bound {mean_bound:.4f} "
        f"({'PASS' if summary['aggregate']['mean_within_expected'] else 'FAIL'})"
    )
    return EXIT_OK


def _load_cli_instance(token):
    if token.startswith("builtin:"):
        try:
            return builtin_instance(token.split(":", 1)[1])
        except ValueError as err:
            raise UsageError(str(err)) from err
    if not os.path.exists(token):
        raise UsageError(f"instance file not found: {token}")
    return load_instance(token)


def cmd_sdp_feas(cfg):
    if not 0.0 < cfg["epsilon"] <= 1.0:
        raise UsageError("epsilon must lie in (0, 1]")
    if not 0.0 < cfg["delta"] < 1.0:
        raise UsageError("delta must lie in (0, 1)")
    instance = _load_cli_instance(cfg["instance"])
    seeds = _resolve_seeds(cfg)
    out_dir = _output_dir(cfg)
    echo = _echo_config(cfg, seeds)
    runs = []
    for seed in seeds:
        result = solve_feasibility(
            instance,
            cfg["epsilon"],
            delta=cfg["delta"],
            rng=SeededRng(seed),
            use_lanczos=bool(cfg["lanczos"]),
            dense_limit=cfg["dense_limit"],
        )
        runs.append(
            {
                "seed": seed,
                "T": result.T,
                "eta": result.eta,
                "omega": result.omega,
                "gap": result.gap.value,
                "gap_interval": [result.gap.lo, result.gap.hi],
                "s_lower": result.s_lower,
                "s_upper": result.s_upper,
                "verdict": result.verdict,
                "completed": result.completed,
                "wall_ns": result.wall_ns,
                "matvecs": result.matvecs,
            }
        )
    mean_gap = float(np.mean([r["gap"] for r in runs]))
    summary = {
        "schema": SDP_SUMMARY_SCHEMA,
        "version": __version__,
        "timestamp": _timestamp(),
        "config": echo,
        "n": instance.n,
        "m": instance.m,
        "omega": instance.width,
        "runs": runs,
        "aggregate": {
            "mean_gap": mean_gap,
            "within_epsilon": bool(mean_gap <= cfg["epsilon"]),
        },
    }
    write_json(os.path.join(out_dir, "sdp-feas-summary.json"), summary)
    print(
        f"sdp-feas: {len(seeds)} run(s), mean gap {mean_gap:.4f} "
        f"(target {cfg['epsilon']}) -> {out_dir}"
    )
    return EXIT_OK


def _bench_matrix(kind, n, op_norm, rng):
    if kind == "diag":
        return np.diag(np.linspace(-op_norm, op_norm, n))
    if kind == "gauss":
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
    elif kind == "sparse":
        a = rng.standard_normal((n, n))
        a[rng.uniform(size=(n, n)) > 0.2] = 0.0
        a = 0.5 * (a + a.T)
    else:
        raise UsageError(f"unknown spectrum kind {kind!r}")
    lam = np.linalg.eigvalsh(a)
    scale = max(abs(lam[0]), abs(lam[-1]))
    return a * (op_norm / scale) if scale > 0 else a


def cmd_bench_lanczos(cfg):
    try:
        sizes = [int(s) for s in str(cfg["sizes"]).split(",")]
        ks = [int(s) for s in str(cfg["ks"]).split(",")]
        spectra = [s.strip() for s in str(cfg["spectra"]).split(",") if s.strip()]
    except ValueError as err:
        raise UsageError(f"bad sweep lists: {err}") from err
    if min(sizes, default=1) < 1 or min(ks, default=1) < 1:
        raise UsageError("sizes and ks must be positive")
    out_dir = _output_dir(cfg)
    seeds = list(range(int(cfg["bench_seeds"])))
    echo = _echo_config(cfg, seeds)
    rows = []
    from .linalg import SparseSymOperator

    for n in sizes:
        for kind in spectra:
            for seed in seeds:
                rng = SeededRng(seed)
                a = _bench_matrix(kind, n, cfg["op_norm"], rng)
                lam, q = np.linalg.eigh(a)
                b = sample_unit_sphere(n, rng)
                with np.errstate(over="ignore", invalid="ignore"):
                    exact = (q * np.exp(lam)) @ (q.T @ b)
                if not np.all(np.isfinite(exact)):
                    raise OverflowError(f"oracle exp(A) b overflows float64 at op-norm {cfg['op_norm']:g}")
                # norms of vectors scaled by a power of two near max|exact|: no overflow in
                # the sum of squares, and the same ratio as the unscaled norms, bit for bit
                exponent = -np.frexp(np.abs(exact).max())[1]
                exact = np.ldexp(exact, exponent)
                exact_norm = np.linalg.norm(exact)
                for k in ks:
                    if k > n:
                        continue
                    op = SparseSymOperator.from_dense(a)
                    t0 = time.perf_counter_ns()
                    approx = expm_multiply(op, b, k)
                    wall = time.perf_counter_ns() - t0
                    err = np.linalg.norm(np.ldexp(approx, exponent) - exact) / exact_norm
                    rows.append([n, kind, k, repr(float(err)), op.matvec_count, wall])
    path = os.path.join(out_dir, "bench-lanczos.csv")
    write_csv(
        path,
        BENCH_SCHEMA,
        echo,
        ["n", "spectrum_kind", "k", "rel_err_vs_oracle", "matvecs", "wall_ns"],
        rows,
    )
    print(f"bench-lanczos: {len(rows)} rows -> {path}")
    return EXIT_OK


def _selftest_cross_oracle():
    rng = SeededRng(7)
    y_rng, direct_rng, dirichlet_rng = rng.spawn(3)
    y = y_rng.standard_normal((4, 4))
    y = 0.5 * (y + y.T)
    direct = estimate_avg_projection_direct(y, 10_000, direct_rng)
    spectral = estimate_avg_projection_dirichlet(y, 10_000, dirichlet_rng)
    gap = np.abs(direct.action.matrix - spectral.action.matrix)
    slack = 4.0 * np.sqrt(direct.stderr**2 + spectral.stderr**2)
    ok = bool(np.all(gap <= slack + 1e-12))
    return ok, f"max entry gap {gap.max():.2e}, max allowed {slack.max():.2e}"


def _selftest_shift_invariance():
    rng = SeededRng(11)
    worst = 0.0
    for _ in range(10):
        y = rng.standard_normal((6, 6))
        y = 0.5 * (y + y.T)
        u = sample_unit_sphere(6, rng)
        base = rank1_projection(y, u)
        base_mmw = mmw_projection(y)
        for c in (-50.0, -3.0, 1.0, 50.0):
            shifted = rank1_projection(y + c * np.eye(6), u)
            worst = max(worst, np.abs(shifted.factor - base.factor).max())
            shifted_mmw = mmw_projection(y + c * np.eye(6))
            worst = max(worst, np.abs(shifted_mmw.matrix - base_mmw.matrix).max())
    return bool(worst <= 1e-10), f"worst shift deviation {worst:.2e}"


def _selftest_digamma():
    rng = SeededRng(13)
    w = sample_dirichlet_half(2, rng, size=200_000)
    vals = np.log(w[:, 0])
    target = -2.0 * math.log(2.0)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    ok = bool(abs(vals.mean() - target) <= 3.0 * se)
    return ok, f"mean log w1 {vals.mean():.5f} vs {target:.5f} (3se {3 * se:.5f})"


def cmd_selftest(cfg):
    checks = [
        ("avg-projection cross-oracle", _selftest_cross_oracle),
        ("shift invariance battery", _selftest_shift_invariance),
        ("dirichlet digamma identity", _selftest_digamma),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="mmwsketch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUTPUT_DIR} or ./mmwsketch-out)")
        p.add_argument("--seeds", type=int, help="number of seeds, 0..N-1")
        p.add_argument("--seed", type=int, help="single seed (overrides --seeds)")
        p.add_argument("--seed-list", help="comma-separated explicit seed list")
        p.add_argument("--delta", type=float, help="confidence parameter in (0,1)")
        p.add_argument("--dense-limit", type=int, dest="dense_limit")

    p_online = sub.add_parser("online-eig", help="run the online eigenvector game")
    add_common(p_online)
    p_online.add_argument("--n", type=int)
    p_online.add_argument("--T", type=int, dest="T")
    p_online.add_argument("--eta", type=float, help="step size (default tuned for T)")
    p_online.add_argument("--k0", type=float, help="Krylov depth calibration constant")
    p_online.add_argument("--strategy", choices=sorted(STRATEGY_TOKENS))
    p_online.add_argument("--adversary", choices=ADVERSARY_KINDS)
    p_online.add_argument("--mc-samples", type=int, dest="mc_samples")
    p_online.add_argument("--hp-delta", type=float, dest="hp_delta")
    p_online.add_argument("--workers", type=int)
    p_online.set_defaults(func=cmd_online_eig)

    p_sdp = sub.add_parser("sdp-feas", help="primal-dual SDP feasibility solve")
    add_common(p_sdp)
    p_sdp.add_argument("--instance", help="path or builtin:{sym2x2,rand20x10}")
    p_sdp.add_argument("--epsilon", type=float)
    p_sdp.add_argument("--lanczos", action="store_const", const=True, help="Krylov projections")
    p_sdp.set_defaults(func=cmd_sdp_feas)

    p_bench = sub.add_parser("bench-lanczos", help="Krylov exponential accuracy sweep")
    add_common(p_bench)
    p_bench.add_argument("--sizes", help="comma-separated dimensions")
    p_bench.add_argument("--ks", help="comma-separated iteration counts")
    p_bench.add_argument("--spectra", help="comma-separated kinds: diag,gauss,sparse")
    p_bench.add_argument("--op-norm", type=float, dest="op_norm")
    p_bench.add_argument("--bench-seeds", type=int, dest="bench_seeds")
    p_bench.set_defaults(func=cmd_bench_lanczos)

    p_self = sub.add_parser("selftest", help="fast invariant smoke checks")
    add_common(p_self)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def merge_config(args):
    """Layer defaults, optional config file, then explicit flags (flags win)."""
    cfg = dict(DEFAULTS)
    file_path = getattr(args, "config", None)
    if file_path:
        try:
            with open(file_path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError as err:
            raise UsageError(f"config file not found: {file_path}") from err
        except json.JSONDecodeError as err:
            raise UsageError(f"bad config file: {err}") from err
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key, val in vars(args).items():
        if key in ("config", "func", "command") or val is None:
            continue
        cfg[key] = val
    cfg["command"] = args.command
    return cfg


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        cfg = merge_config(args)
        return args.func(cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InstanceFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (GainValidationError, ConvergenceError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
