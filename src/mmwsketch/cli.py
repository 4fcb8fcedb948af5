"""Command-line front end: experiment orchestration and machine-readable output.

Subcommands ``online-eig``, ``sdp-feas``, ``bench-lanczos``, and ``selftest``
write CSV traces (per-step data) and JSON summaries (aggregates with an echo
of the settings the subcommand read).  Reruns with identical config and seed
are bitwise identical apart from timestamps and wall-clock fields.  Exit
codes: 0 success, 1 usage or config validation, 2 numerical failure.
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
    ConvergenceError,
    DenseLimitError,
    SeededRng,
    SparseSymOperator,
    gaussian_symmetric,
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
    require_strategy,
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

TRACE_SCHEMA = "online-eig-trace-v12"
BENCH_SCHEMA = "bench-lanczos-v3"
ONLINE_SUMMARY_SCHEMA = "online-eig-summary-v10"
SDP_SUMMARY_SCHEMA = "sdp-feas-v11"
#: Older CSVs stay readable: v11 traces have v12's columns, with ``rank1`` values of intervals widened
#: by the drift bound itself, where v12 rounds it up to a multiple of ``WIDEN_STEP``, and ``rank1-lanczos``
#: rows from Lanczos runs at every step, with ``krylov_err_est`` Saad's estimate, where v12 sums the
#: certified series on ``rank1``'s intervals at dense scale, records its proved bound and fills
#: ``lam_max_running`` at the anchors too; v10 traces have v11's columns, with ``rank1`` values from an anchor at
#: every step and ``lam_max_running`` on every ``rank1`` row, where v11 anchors only once the drift
#: bound exceeds ``ANCHOR_TAU / 2`` and fills ``rank1`` rows at its anchors and checkpoints alone;
#: v9 traces have v10's columns, with ``rank1`` values of a spectrum
#: too wide for the series from the eigenpairs of the anchor's T, where v10 takes those of
#: ``eta G`` itself; v8 traces have v9's columns, with ``rank1`` values from the series
#: in the tridiagonal form of ``eta G``, where v9 sums it in ``eta G`` itself; v7 traces have
#: v8's columns, with ``rank1`` values from the
#: eigenpairs of T below n = 48 and rank1-lanczos checkpoints from ``syevr`` with upper
#: storage, where v8 takes the Chebyshev series at every n and every top eigenvalue from one
#: lower-storage reduction with ``syevr``'s block size; v6 traces take the eigenpairs of T at
#: every n; v5 traces and bench v2 have v6's and v3's columns, with
#: Krylov values from the earlier recurrence; v4 traces fill ``lam_max_running`` on
#: every row, where v5 leaves it empty between rank1-lanczos checkpoints; trace v2-v3
#: and bench v1 differ from v4 only in the config echo, and v1 traces lack
#: ``k_cap``/``krylov_err_est`` (``k_used`` the scheduled depth).
KNOWN_CSV_SCHEMAS = frozenset(
    {
        "online-eig-trace-v1", "online-eig-trace-v2", "online-eig-trace-v3", "online-eig-trace-v4",
        "online-eig-trace-v5", "online-eig-trace-v6", "online-eig-trace-v7", "online-eig-trace-v8",
        "online-eig-trace-v9", "online-eig-trace-v10", "online-eig-trace-v11", TRACE_SCHEMA,
        "bench-lanczos-v1", "bench-lanczos-v2", BENCH_SCHEMA,
    }
)

STRATEGY_TOKENS = {
    "exact-mmw": "exact_mmw",
    "rank1": "rank1_exact",
    "rank1-lanczos": "rank1_lanczos",
}
BENCH_SPECTRA = ("diag", "gauss", "sparse")


class UsageError(ValueError):
    """Invalid flags or configuration; maps to exit code 1."""


def _resolve_seeds(cfg):
    if cfg["seed_list"]:
        try:
            seeds = [int(s) for s in cfg["seed_list"].split(",") if s.strip() != ""]
        except ValueError as err:
            raise UsageError(f"bad --seed-list: {err}") from err
        if not seeds:
            raise UsageError("bad --seed-list: no seeds")
        if min(seeds) < 0:
            raise UsageError("bad --seed-list: seeds must be >= 0")
        repeated = [s for s in seeds if seeds.count(s) > 1]
        if repeated:
            raise UsageError(f"bad --seed-list: seed {repeated[0]} repeated")
        return seeds
    if cfg["seed"] is not None:
        return [cfg["seed"]]
    return list(range(cfg["seeds"]))


def _output_dir(cfg):
    """The output directory, created here: call once the runs have succeeded."""
    out = cfg.get("out") or os.environ.get(ENV_OUTPUT_DIR) or "mmwsketch-out"
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(cfg, seeds):
    """The settings the command read, plus the seeds they resolved to."""
    return cfg | {"resolved_seeds": seeds, "version": __version__}


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


def read_csv(path):
    """Read an emitted CSV artifact; rejects schema versions outside :data:`KNOWN_CSV_SCHEMAS`."""
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
    if schema not in KNOWN_CSV_SCHEMAS:
        raise UsageError(f"unknown CSV schema {schema!r}; known: {sorted(KNOWN_CSV_SCHEMAS)}")
    return meta, header, rows


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _online_run_for_seed(args):
    cfg, seed = args
    n, eta = cfg["n"], cfg["resolved_eta"]
    adv_rng, play_rng = SeededRng(seed).spawn(2)
    rule = kt_schedule(n, cfg["T"], eta, cfg["delta"], cfg["k0"])  # read by rank1-lanczos only
    trace = run_online(
        builtin_adversaries(cfg["adversary"], n, adv_rng),
        STRATEGY_TOKENS[cfg["strategy"]],
        Schedule(eta=eta, T=cfg["T"], delta=cfg["delta"], kt_rule=rule),
        play_rng,
    )
    trace.validate()
    return seed, trace


def cmd_online_eig(cfg):
    n, horizon = cfg["n"], cfg["T"]
    require_strategy(STRATEGY_TOKENS[cfg["strategy"]], n)  # before any adversary is built
    seeds = _resolve_seeds(cfg)
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
    echo = _echo_config(cfg, seeds)

    jobs = [(cfg, seed) for seed in seeds]
    if cfg["workers"] > 1:
        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            results = list(pool.map(_online_run_for_seed, jobs))
    else:
        results = [_online_run_for_seed(job) for job in jobs]
    results.sort(key=lambda item: item[0])

    out_dir = _output_dir(cfg)
    per_seed = []
    for seed, trace in results:
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
    if not os.path.isfile(token):
        raise UsageError(f"instance file not found: {token}")
    return load_instance(token)


def cmd_sdp_feas(cfg):
    instance = _load_cli_instance(cfg["instance"])
    seeds = _resolve_seeds(cfg)
    echo = _echo_config(cfg, seeds)
    runs = []
    for seed in seeds:
        result = solve_feasibility(
            instance,
            cfg["epsilon"],
            delta=cfg["delta"],
            rng=SeededRng(seed),
            use_lanczos=cfg["lanczos"],
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
    out_dir = _output_dir(cfg)
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
    a, lam = gaussian_symmetric(n, rng, 0.2 if kind == "sparse" else None)
    scale = max(abs(lam[0]), abs(lam[-1]))
    return a * (op_norm / scale) if scale > 0 else a


def cmd_bench_lanczos(cfg):
    try:
        sizes = [int(s) for s in cfg["sizes"].split(",")]
        ks = [int(s) for s in cfg["ks"].split(",")]
        spectra = [s.strip() for s in cfg["spectra"].split(",") if s.strip()]
    except ValueError as err:
        raise UsageError(f"bad sweep lists: {err}") from err
    if min(sizes, default=1) < 1 or min(ks, default=1) < 1:
        raise UsageError("sizes and ks must be positive")
    for kind in spectra:
        if kind not in BENCH_SPECTRA:
            raise UsageError(f"unknown spectrum kind {kind!r}")
    seeds = list(range(cfg["bench_seeds"]))
    echo = _echo_config(cfg, seeds)
    rows = []
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
    path = os.path.join(_output_dir(cfg), "bench-lanczos.csv")
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


def _at_least_one(x):
    return x >= 1


def _positive_finite(x):
    return math.isfinite(x) and x > 0.0


def _in_open_unit(x):
    return 0.0 < x < 1.0


class _Parser(argparse.ArgumentParser):
    """Each setting's flag, type, choices, default and range check; errors raise UsageError."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.settings = {}
        self.checks = []

    def setting(self, flag, check=None, **kwargs):
        """Register one setting; ``check`` is a ``(predicate, message)`` pair."""
        action = self.add_argument(flag, **kwargs)
        self.settings[action.dest] = action
        if check is not None:
            self.checks.append((action.dest, *check))

    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="mmwsketch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add_command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file of these settings; explicit flags win")
        p.setting("--out", help=f"output directory (default ${ENV_OUTPUT_DIR} or ./mmwsketch-out)")
        return p

    def add_game(p):
        p.setting("--seeds", type=int, default=1, help="number of seeds, 0..N-1",
                  check=(_at_least_one, "--seeds must be >= 1"))
        p.setting("--seed", type=int, help="single seed (overrides --seeds)",
                  check=(lambda x: x >= 0, "--seed must be >= 0"))
        p.setting("--seed-list", help="comma-separated explicit seed list (overrides --seed)")
        p.setting("--delta", type=float, default=0.1, help="confidence parameter in (0,1)",
                  check=(_in_open_unit, "delta must lie in (0, 1)"))

    p = add_command("online-eig", cmd_online_eig, "run the online eigenvector game")
    p.setting("--n", type=int, default=32, check=(_at_least_one, "n and T must be >= 1"))
    p.setting("--T", type=int, default=1000, check=(_at_least_one, "n and T must be >= 1"))
    add_game(p)
    p.setting("--hp-delta", type=float, default=0.05, check=(_in_open_unit, "hp-delta must lie in (0, 1)"))
    p.setting("--eta", type=float, help="step size (default tuned for T)",
              check=(_positive_finite, "eta must be a positive finite number"))
    p.setting("--k0", type=float, default=DEFAULT_K0, help="Krylov depth calibration constant",
              check=(_positive_finite, "k0 must be a positive finite number"))
    p.setting("--strategy", choices=sorted(STRATEGY_TOKENS), default="rank1")
    p.setting("--adversary", choices=ADVERSARY_KINDS, default="random_rotation")
    p.setting("--workers", type=int, default=1, check=(_at_least_one, "workers must be >= 1"))

    p = add_command("sdp-feas", cmd_sdp_feas, "primal-dual SDP feasibility solve")
    p.setting("--epsilon", type=float, default=0.25,
              check=(lambda x: 0.0 < x <= 1.0, "epsilon must lie in (0, 1]"))
    add_game(p)
    p.setting("--instance", default="builtin:rand20x10", help="path or builtin:{sym2x2,rand20x10}")
    p.setting("--lanczos", action="store_true", help="Krylov projections")

    p = add_command("bench-lanczos", cmd_bench_lanczos, "Krylov exponential accuracy sweep")
    p.setting("--sizes", default="8,16", help="comma-separated dimensions")
    p.setting("--ks", default="1,2,4,8,16", help="comma-separated iteration counts")
    p.setting("--spectra", default=",".join(BENCH_SPECTRA), help="comma-separated kinds")
    p.setting("--op-norm", type=float, default=4.0,
              check=(lambda x: 0.0 <= x < math.inf, "op-norm must be a finite number >= 0"))
    p.setting("--bench-seeds", type=int, default=3, check=(_at_least_one, "bench-seeds must be >= 1"))

    sub.add_parser("selftest", help="fast invariant smoke checks").set_defaults(func=cmd_selftest)
    return parser


#: JSON types a config value may take, by the setting's argparse ``type``.
_CONFIG_TYPES = {int: ({int}, "an integer"), float: ({int, float}, "a number"), None: ({str}, "a string")}


def _config_tokens(parser, path):
    """Flag tokens for the settings in a JSON config file; ``null`` means not given."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError(f"bad config file {path}: {err}") from err
    if not isinstance(loaded, dict):
        raise UsageError(f"bad config file {path}: not a JSON object")
    unknown = set(loaded) - set(parser.settings)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in loaded.items():
        action = parser.settings[key]
        switch = action.nargs == 0  # a flag without a value, such as --lanczos
        types, kind = ({bool}, "true or false") if switch else _CONFIG_TYPES[action.type]
        if value is not None and type(value) not in types:
            raise UsageError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
        if value is not None and value is not False:
            flag = action.option_strings[0]
            tokens.append(flag if switch else f"{flag}={value}")
    return tokens


def parse_settings(argv):
    """The command's function and settings: defaults, then ``--config``, then flags, checked."""
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = parser.commands[args.command]
    if getattr(args, "config", None):
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_tokens(sub, args.config) + argv[at:])
    cfg = {dest: getattr(args, dest) for dest in sub.settings}
    for dest, ok, message in sub.checks:
        if cfg[dest] is not None and not ok(cfg[dest]):
            raise UsageError(message)
    return args.func, cfg | {"command": args.command}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        func, cfg = parse_settings(argv)
        return func(cfg)
    except (UsageError, InstanceFormatError, DenseLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (GainValidationError, ConvergenceError, ArithmeticError, ValueError, MemoryError) as err:
        # a ValueError past the two above, or a MemoryError, comes from the numerics, e.g. an unallocatable horizon
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
