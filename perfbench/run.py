"""Benchmark entry point for the two engines users run: ``run_online`` and ``solve_feasibility``.

Usage, from the repository root::

    python3 perfbench/run.py --workload online-dense --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single caller: set up
the inputs for a call seed, make the engine call, check its result, and
repeat until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced calls and
reports per-layer metrics from the traced ones.  Human-readable lines go to
stdout first; the last line is one JSON object.  Provenance, per-call
records and output digests are written to ``.perfbench_out/``.
"""

import os
import sys

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is repeated at least this often per run, so its median is steady.
MIN_SETUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_result_s": "s",
    "steps_per_s": "1/s",
    "step_us_p50": "us",
    "step_us_p90": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "online.adversary_s_per_step": "s",
    "online.engine_self_s_per_step": "s",
    "online.eigvalsh_calls_per_step": "count",
    "projections.rank1_self_s_per_step": "s",
    "projections.rank1_lanczos_self_s_per_step": "s",
    "projections.softmax_s_per_step": "s",
    "lanczos.decompose_self_s_per_step": "s",
    "lanczos.expm_self_s_per_step": "s",
    "lanczos.matvecs_per_step": "count",
    "lanczos.depth_mean": "count",
    "lanczos.useful_depth_frac": "frac",
    "linalg.matvec_s_per_step": "s",
    "linalg.matvec_flops_per_s": "flop/s",
    "linalg.dense_eigh_s_per_step": "s",
    "linalg.from_dense_s_per_step": "s",
    "linalg.sample_sphere_s_per_step": "s",
    "sdp.engine_self_s_per_step": "s",
    "sdp.costs_s_per_step": "s",
    "sdp.width_s": "s",
    "sdp.certificate_s": "s",
    "trace.overhead_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision():
    """(revision, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if rev.returncode != 0:
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())


def provenance():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev, dirty = git_revision()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": rev,
        "git_dirty": dirty,
    }


def call_seed(seed, i):
    """The seed of the i-th call of a run, derived from the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def layer_metrics(wl, r, T, work, useful_depth):
    """Per-layer figures of one traced call; layers that did not run read 0."""
    matvec_s = r.total_s("linalg.matvec")
    flops = 2.0 * sum(r.notes("linalg.matvec"))
    costs_s, certificate_s = r.certificate_split()
    m = {
        "online.adversary_s_per_step": r.total_s("online.adversary") / T,
        "online.engine_self_s_per_step": r.self_s("online.run_online") / T,
        "online.eigvalsh_calls_per_step": r.eigvalsh_calls / T if wl.kind == "online" else 0.0,
        "projections.rank1_self_s_per_step": r.self_s("projections.rank1_projection") / T,
        "projections.rank1_lanczos_self_s_per_step": r.self_s("projections.rank1_projection_lanczos") / T,
        "projections.softmax_s_per_step": r.total_s("projections.softmax_grad") / T,
        "lanczos.decompose_self_s_per_step": r.self_s("lanczos.lanczos_decompose") / T,
        "lanczos.expm_self_s_per_step": r.self_s("lanczos.expm_multiply") / T,
        "lanczos.useful_depth_frac": useful_depth or 0.0,
        "linalg.matvec_s_per_step": matvec_s / T,
        "linalg.matvec_flops_per_s": flops / matvec_s if matvec_s > 0 else 0.0,
        "linalg.dense_eigh_s_per_step": r.total_s("linalg.dense_eigh") / T,
        "linalg.from_dense_s_per_step": r.total_s("linalg.from_dense") / T,
        "linalg.sample_sphere_s_per_step": r.total_s("linalg.sample_unit_sphere") / T,
        "sdp.engine_self_s_per_step": r.self_s("sdp.solve_feasibility") / T,
        "sdp.costs_s_per_step": costs_s / T,
        "sdp.width_s": r.total_s("sdp.compute_width"),
        "sdp.certificate_s": certificate_s,
    }
    m.update(work)
    return m


def measure(name, wl, seed, seconds, trace, out_dir):
    """Run the closed loop; returns (result line dict, per-call records, trace errors).

    Times are converted to reference seconds (see ``timing``).  Untraced
    calls probe machine speed between rounds and are scaled interval by
    interval; set-up and traced calls are scaled by probe bursts taken just
    before and after them.  Raw wall times stay in the per-call records.
    """
    import numpy as np
    from timing import Probe, RoundClock
    from tracing import RunSpans, Tracer

    probe = Probe(wl.probe)
    tracer = Tracer() if trace else None
    setups, calls, layers, intervals, trace_errors = [], [], [], [], []

    def timed_setup(s):
        around = probe.burst()
        t0 = time.perf_counter()
        inputs = wl.setup(s)
        wall = time.perf_counter() - t0
        around += probe.burst()
        setups.append(wall * probe.scale(around))
        return inputs, wall, around

    start = time.perf_counter()
    i = 0
    # a traced run needs at least one untraced and one traced call
    while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        s = call_seed(seed, i)
        inputs, setup_wall, around = timed_setup(s)
        clock = RoundClock(None if traced else probe)
        record = {"seed": s, "traced": traced, "setup_wall_s": setup_wall}
        t0 = clock.mark()
        try:
            if traced:
                tracer.run_id = i
                if wl.kind == "online":
                    inputs.adversary.next_gain = tracer.wrap("online.adversary", inputs.adversary.next_gain)
                with tracer.installed():
                    out = wl.call(inputs, clock, oracle=True)
            else:
                out = wl.call(inputs, clock)
            t1 = clock.mark()
            failures = wl.check(inputs, out)
        except Exception as err:  # a raising call counts as failed; keep measuring
            failures = [f"{type(err).__name__}: {err}"]
            out = None
        t2 = clock.mark()
        probed = sum(clock.probe_ns) / 1e9
        call_probes = clock.probe_ns or around + probe.burst()
        k = probe.scale(call_probes)
        record.update(scale=k, probe_median_ns=statistics.median(call_probes),
                      setup_probe_median_ns=statistics.median(around), probe_wall_s=probed, failures=failures)
        if out is not None:
            T = wl.steps(out)
            record.update(
                engine_wall_s=(t1 - t0) / 1e9 - probed, result_wall_s=(t2 - t0) / 1e9 - probed,
                T=T, digest=wl.digest(out),
            )
            if traced:
                record.update(engine_s=record["engine_wall_s"] * k, time_to_result_s=record["result_wall_s"] * k)
                r = RunSpans(tracer, i)
                trace_errors.extend(r.errors)
                work = wl.work(out, r.notes("projections.rank1_projection_lanczos"))
                m = layer_metrics(wl, r, T, work, wl.useful_depth(inputs, out))
                for key in m:  # to reference seconds
                    if PER_LAYER_UNITS[key] == "s":
                        m[key] *= k
                    elif PER_LAYER_UNITS[key] == "flop/s":
                        m[key] /= k
                layers.append(m)
            else:
                # call start, the round openings, engine return, checked result
                iv = clock.intervals_us()
                record.update(engine_s=iv[:-1].sum() / 1e6, time_to_result_s=iv.sum() / 1e6)
                intervals.append(iv[1:-2])
        calls.append(record)
        i += 1
    while len(setups) < MIN_SETUPS:
        timed_setup(call_seed(seed, len(setups)))

    done = [c for c in calls if "engine_s" in c]
    untraced = [c for c in done if not c["traced"]]
    traced_calls = [c for c in done if c["traced"]]

    def median_of(rows, f):
        return statistics.median(f(c) for c in rows) if rows else float("nan")

    if not trace:
        steps = np.concatenate(intervals) if intervals else np.array([np.nan])
        metrics = {
            "setup_s": statistics.median(setups),
            "time_to_result_s": median_of(untraced, lambda c: c["time_to_result_s"]),
            "steps_per_s": median_of(untraced, lambda c: c["T"] / c["engine_s"]),
            "step_us_p50": float(np.percentile(steps, 50)),
            "step_us_p90": float(np.percentile(steps, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics = {
            key: statistics.fmean(m[key] for m in layers) if layers else float("nan")
            for key in PER_LAYER_UNITS if key != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = (
            median_of(traced_calls, lambda c: c["time_to_result_s"])
            / median_of(untraced, lambda c: c["time_to_result_s"]) - 1.0
        )
        units = PER_LAYER_UNITS
        tracer.write(out_dir / f"{name}-seed{seed}.spans.csv.gz")

    failed = sum(1 for c in calls if c["failures"])
    result = {
        "correct": failed == 0 and not trace_errors,
        "attempted": len(calls),
        "failed": failed,
        # a metric with no successful call to measure it is left out, not printed as NaN
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if math.isfinite(v)},
    }
    return result, calls, trace_errors


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "mmwsketch" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mmwsketch'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mmwsketch
    from workloads import WORKLOADS

    if Path(mmwsketch.__file__).resolve().parent != (SRC / "mmwsketch").resolve():
        print(f"error: imported mmwsketch from {mmwsketch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    prov = provenance()
    result, calls, trace_errors = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "calls": calls,
        "trace_errors": trace_errors,
        "result": result,
    }
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  git {prov['git_revision']} dirty={prov['git_dirty']}")
    print(f"  {prov['cpu_model']}, nproc {prov['nproc']}, python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, {prov['blas']}")
    for c in calls:
        status = "ok" if not c["failures"] else "FAILED: " + "; ".join(c["failures"])
        timing = f"{c['time_to_result_s']:.4f} s  digest {c['digest'][:16]}" if "engine_s" in c else ""
        print(f"  call seed {c['seed']}{' traced' if c['traced'] else ''}: {timing}  {status}")
    for err in trace_errors:
        print(f"  trace self-check FAILED: {err}")
    print(f"  failed_frac {result['failed'] / result['attempted']:.4g} ({result['failed']}/{result['attempted']})")
    rounds = sum(c["T"] for c in calls if "T" in c and not c["traced"])
    print(f"  times in reference seconds; {rounds} untraced rounds")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
