import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmwsketch import cli
from mmwsketch.linalg import DENSE_LIMIT, ConvergenceError


def run_cli(args):
    return cli.main(args)


def strip_volatile(obj):
    """Remove timestamp/wall-clock fields from a parsed JSON payload."""
    volatile = {"timestamp", "wall_ns"}
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items() if k not in volatile}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def csv_without_timing(path):
    """CSV artifact content with the wall_ns column removed."""
    meta, header, rows = cli.read_csv(path)
    if "wall_ns" in header:
        drop = header.index("wall_ns")
        header = header[:drop] + header[drop + 1 :]
        rows = [r[:drop] + r[drop + 1 :] for r in rows]
    return meta, header, rows


class TestSelftest:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out


class TestOnlineEig:
    def test_writes_traces_and_summary(self, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(
            ["online-eig", "--n", "6", "--T", "20", "--seeds", "3", "--out", str(out)]
        )
        assert code == 0
        for seed in range(3):
            meta, header, rows = cli.read_csv(out / f"online-eig-trace-seed{seed}.csv")
            assert meta["schema"] == cli.TRACE_SCHEMA
            assert header[0] == "t"
            assert len(rows) == 20
            assert json.loads(meta["config"])["n"] == 6
        summary = json.loads((out / "online-eig-summary.json").read_text())
        assert summary["schema"] == cli.ONLINE_SUMMARY_SCHEMA
        assert len(summary["per_seed"]) == 3
        assert summary["config"]["version"] == summary["version"]

    def test_lanczos_trace_records_depth_cap_and_estimate(self, tmp_path):
        out = tmp_path / "krylov"
        code = run_cli(
            ["online-eig", "--n", "12", "--T", "30", "--strategy", "rank1-lanczos",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        meta, header, rows = cli.read_csv(out / "online-eig-trace-seed2.csv")
        assert meta["schema"] == "online-eig-trace-v12"
        assert header == [
            "t", "step_gain", "cum_gain", "lam_max_running",
            "k_used", "k_cap", "matvecs", "krylov_err_est", "wall_ns",
        ]
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            k_used, k_cap = int(row[col["k_used"]]), int(row[col["k_cap"]])
            # the series of Y = 0 at t = 1 runs no product
            assert (k_used == 0 if row[0] == "1" else 1 <= k_used) and k_used <= k_cap <= 12
            assert int(row[col["matvecs"]]) == k_used
            assert float(row[col["krylov_err_est"]]) >= 0.0

    def test_v1_trace_still_readable(self, tmp_path):
        path = tmp_path / "old.csv"
        cli.write_csv(
            path, "online-eig-trace-v1", {}, ["t", "step_gain", "k_used", "matvecs"], [[1, "0.5", 3, 3]]
        )
        meta, header, rows = cli.read_csv(path)
        assert meta["schema"] == "online-eig-trace-v1"
        assert rows == [["1", "0.5", "3", "3"]]

    def test_lanczos_trace_leaves_lam_max_empty_between_checkpoints(self, tmp_path):
        out = tmp_path / "checkpoints"
        for strategy in ("exact-mmw", "rank1", "rank1-lanczos"):
            args = ["online-eig", "--n", "6", "--T", "10", "--strategy", strategy, "--seed", "1"]
            assert run_cli(args + ["--out", str(out / strategy)]) == 0
        header, lanczos_rows = cli.read_csv(out / "rank1-lanczos" / "online-eig-trace-seed1.csv")[1:]
        col = header.index("lam_max_running")
        filled = [int(row[0]) for row in lanczos_rows if row[col] != ""]
        summary = json.loads((out / "rank1-lanczos" / "online-eig-summary.json").read_text())
        assert float(lanczos_rows[-1][col]) == summary["per_seed"][0]["lam_max"]
        # both sketches fill the checkpoints and their anchor at t = 9, where eta (t - t_a) first exceeds
        # ANCHOR_TAU / 2 (eta = 0.46); exact-mmw fills every row
        rank1_rows = cli.read_csv(out / "rank1" / "online-eig-trace-seed1.csv")[2]
        assert [int(row[0]) for row in rank1_rows if row[col] != ""] == filled == [1, 2, 4, 8, 9, 10]
        dense_rows = cli.read_csv(out / "exact-mmw" / "online-eig-trace-seed1.csv")[2]
        assert all(math.isfinite(float(row[col])) for row in dense_rows)

    @pytest.mark.parametrize(
        "schema",
        [
            "online-eig-trace-v2", "online-eig-trace-v3", "online-eig-trace-v4", "online-eig-trace-v5",
            "online-eig-trace-v6", "online-eig-trace-v7", "online-eig-trace-v8", "online-eig-trace-v9",
            "online-eig-trace-v10", "online-eig-trace-v11", "bench-lanczos-v1", "bench-lanczos-v2",
        ],
    )
    def test_previous_schemas_still_readable(self, tmp_path, schema):
        # v2-v3 differ from v4 only in the config echo; v4 filled lam_max_running on every row;
        # trace v5 and bench v2 hold Krylov values of the earlier recurrence; trace v6 rank1 values from the
        # eigenpairs of T at every n, v7 below n = 48 and checkpoints from upper-storage syevr; v8 rank1
        # values from the series in T; v9 rank1 values of a wide spectrum from the eigenpairs of T; v10 rank1
        # values from an anchor at every step, with lam_max_running on every rank1 row; v11 rank1 intervals
        # widened by the unrounded drift bound, and rank1-lanczos rows from Lanczos at every step
        path = tmp_path / "old.csv"
        cli.write_csv(path, schema, {"n": 4, "m": 10}, ["n", "k"], [[4, 2]])
        assert cli.read_csv(path)[0]["schema"] == schema

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--eta", "-1"], "error: eta must be a positive finite number\n"),
            (["--eta", "0"], "error: eta must be a positive finite number\n"),
            (["--eta", "inf"], "error: eta must be a positive finite number\n"),
            (["--hp-delta", "0"], "error: hp-delta must lie in (0, 1)\n"),
            (["--hp-delta", "1.5"], "error: hp-delta must lie in (0, 1)\n"),
            (["--strategy", "rank1-lanczos", "--k0", "0"], "error: k0 must be a positive finite number\n"),
            (["--k0", "nan"], "error: k0 must be a positive finite number\n"),
            (["--mc-samples", "5"], "error: unrecognized arguments: --mc-samples 5\n"),
            (["--workers", "0"], "error: workers must be >= 1\n"),
            (["--seed", "-1"], "error: --seed must be >= 0\n"),
            (["--seed-list", "3,-1"], "error: bad --seed-list: seeds must be >= 0\n"),
            (["--seed-list", ","], "error: bad --seed-list: no seeds\n"),
            (["--seed-list", "1,1"], "error: bad --seed-list: seed 1 repeated\n"),
        ],
    )
    def test_bad_eta_or_hp_delta_is_usage_error(self, tmp_path, capsys, extra, message):
        args = ["online-eig", "--n", "4", "--T", "5", "--out", str(tmp_path)]
        assert run_cli(args + extra) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "online-eig-summary.json").exists()

    def test_rerun_identical_modulo_timestamps(self, tmp_path):
        out = tmp_path / "det"
        args = ["online-eig", "--n", "5", "--T", "15", "--seed", "7", "--out", str(out)]
        assert run_cli(args) == 0
        first_csv = csv_without_timing(out / "online-eig-trace-seed7.csv")
        first_json = strip_volatile(
            json.loads((out / "online-eig-summary.json").read_text())
        )
        assert run_cli(args) == 0
        second_csv = csv_without_timing(out / "online-eig-trace-seed7.csv")
        second_json = strip_volatile(
            json.loads((out / "online-eig-summary.json").read_text())
        )
        assert first_csv == second_csv
        assert first_json == second_json

    def test_exact_mmw_beyond_dense_limit_is_usage_error(self, tmp_path, capsys):
        for strategy in ("exact-mmw", "rank1"):
            args = ["online-eig", "--n", str(DENSE_LIMIT + 1), "--T", "5", "--strategy", strategy]
            assert run_cli(args + ["--out", str(tmp_path / "out")]) == 1
            assert "dense limit" in capsys.readouterr().err
            assert os.listdir(tmp_path) == []

    def test_dense_strategy_beyond_dense_limit_builds_no_adversary(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "builtin_adversaries", lambda *args, **kwargs: built.append(args))
        args = ["online-eig", "--n", str(DENSE_LIMIT + 1), "--T", "5", "--strategy", "rank1"]
        assert run_cli(args + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: strategy 'rank1_exact' requires n <= dense limit {DENSE_LIMIT}, got n = {DENSE_LIMIT + 1}\n"
        )
        assert built == [] and os.listdir(tmp_path) == []

    def test_unknown_strategy_is_usage_error(self, tmp_path):
        code = run_cli(["online-eig", "--strategy", "nope", "--out", str(tmp_path)])
        assert code == 1

    def test_config_file_merge_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "T": 30, "seeds": 1}))
        out = tmp_path / "merged"
        code = run_cli(
            ["online-eig", "--config", str(cfg), "--T", "10", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = cli.read_csv(out / "online-eig-trace-seed0.csv")
        assert len(rows) == 10  # flag beat the config file

    def test_config_null_means_not_given(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "T": 6, "eta": None, "seed": None, "strategy": None}))
        out = tmp_path / "nulls"
        assert run_cli(["online-eig", "--config", str(cfg), "--out", str(out)]) == 0
        echo = json.loads((out / "online-eig-summary.json").read_text())["config"]
        assert (echo["n"], echo["T"], echo["eta"], echo["seed"], echo["strategy"]) == (4, 6, None, None, "rank1")

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run_cli(["online-eig", "--config", str(cfg)]) == 1

    def test_seed_list(self, tmp_path):
        out = tmp_path / "list"
        code = run_cli(
            ["online-eig", "--n", "4", "--T", "5", "--seed-list", "3,9", "--out", str(out)]
        )
        assert code == 0
        assert (out / "online-eig-trace-seed3.csv").exists()
        assert (out / "online-eig-trace-seed9.csv").exists()

    def test_worker_pool_matches_sequential(self, tmp_path):
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        base = ["online-eig", "--n", "5", "--T", "10", "--seeds", "2"]
        assert run_cli(base + ["--out", str(seq)]) == 0
        assert run_cli(base + ["--out", str(par), "--workers", "2"]) == 0
        s = json.loads((seq / "online-eig-summary.json").read_text())
        p = json.loads((par / "online-eig-summary.json").read_text())
        s_regrets = [r["total_regret"] for r in s["per_seed"]]
        p_regrets = [r["total_regret"] for r in p["per_seed"]]
        assert s_regrets == p_regrets

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(target))
        assert run_cli(["online-eig", "--n", "4", "--T", "5"]) == 0
        assert (target / "online-eig-summary.json").exists()

    def test_psd_adversary_clamps_eta(self, tmp_path, capsys):
        out = tmp_path / "psd"
        code = run_cli(
            [
                "online-eig",
                "--n", "6",
                "--T", "10",
                "--adversary", "psd_random",
                "--eta", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "clamping eta" in capsys.readouterr().err
        summary = json.loads((out / "online-eig-summary.json").read_text())
        assert summary["eta"] == pytest.approx(1.0 / 6.0)
        assert summary["bound_kind"] == "psd_refined"


class TestSdpFeas:
    def test_bundled_symmetric_fixture(self, tmp_path):
        out = tmp_path / "sdp"
        code = run_cli(
            [
                "sdp-feas",
                "--instance", "builtin:sym2x2",
                "--epsilon", "0.25",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "sdp-feas-summary.json").read_text())
        run = payload["runs"][0]
        assert run["verdict"] == "undetermined-at-epsilon"
        assert run["s_lower"] <= 0.0 <= run["s_upper"]
        assert run["s_upper"] - run["s_lower"] <= 0.25
        for key in ("T", "eta", "omega", "gap", "gap_interval", "wall_ns", "matvecs"):
            assert key in run

    def test_malformed_instance_exits_one_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.sdpi"
        bad.write_text("2 2\n1 1 1 oops\n")
        code = run_cli(["sdp-feas", "--instance", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_instance_exits_one(self, tmp_path):
        assert run_cli(["sdp-feas", "--instance", "nowhere.sdpi", "--out", str(tmp_path)]) == 1

    def test_instance_directory_exits_one(self, tmp_path, capsys):
        assert run_cli(["sdp-feas", "--instance", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: instance file not found: {tmp_path}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("extra", [["--delta", "2"], ["--lanczos", "--delta", "0"]])
    def test_delta_outside_unit_interval_is_usage_error(self, tmp_path, capsys, extra):
        args = ["sdp-feas", "--instance", "builtin:sym2x2", "--out", str(tmp_path)]
        assert run_cli(args + extra) == 1
        err = capsys.readouterr().err
        assert err == "error: delta must lie in (0, 1)\n"
        assert not (tmp_path / "sdp-feas-summary.json").exists()

    @pytest.mark.parametrize("seed_list,message", [(",", "no seeds"), ("2,1,2", "seed 2 repeated")])
    def test_seed_list_without_distinct_seeds_is_usage_error(self, tmp_path, capsys, seed_list, message):
        args = ["sdp-feas", "--instance", "builtin:sym2x2", "--seed-list", seed_list, "--out", str(tmp_path / "out")]
        assert run_cli(args) == 1
        assert capsys.readouterr().err == f"error: bad --seed-list: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_exact_projections_beyond_dense_limit_is_usage_error(self, tmp_path, capsys):
        instance = tmp_path / "large.sdpi"
        instance.write_text(f"{DENSE_LIMIT + 1} 2\n1 1 1 1.0\n1 2 3 -0.5\n2 7 7 -1.0\n2 5 {DENSE_LIMIT + 1} 0.5\n")
        args = ["sdp-feas", "--instance", str(instance), "--epsilon", "0.5"]
        assert run_cli(args + ["--out", str(tmp_path / "exact")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--lanczos" in err
        assert os.listdir(tmp_path) == ["large.sdpi"]
        assert run_cli(args + ["--lanczos", "--out", str(tmp_path / "krylov")]) == 0

    def test_mean_gap_aggregate_within_epsilon(self, tmp_path):
        out = tmp_path / "agg"
        code = run_cli(
            [
                "sdp-feas",
                "--instance", "builtin:rand20x10",
                "--epsilon", "0.5",
                "--seeds", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "sdp-feas-summary.json").read_text())
        assert payload["aggregate"]["within_epsilon"] is True
        assert payload["aggregate"]["mean_gap"] <= 0.5

    def test_rerun_identical_modulo_timestamps(self, tmp_path):
        out = tmp_path / "sdpdet"
        args = [
            "sdp-feas",
            "--instance", "builtin:sym2x2",
            "--epsilon", "0.5",
            "--seed", "5",
            "--out", str(out),
        ]
        assert run_cli(args) == 0
        first = strip_volatile(json.loads((out / "sdp-feas-summary.json").read_text()))
        assert run_cli(args) == 0
        second = strip_volatile(json.loads((out / "sdp-feas-summary.json").read_text()))
        assert first == second


class TestBenchLanczos:
    def test_sweep_csv_contract(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(
            [
                "bench-lanczos",
                "--sizes", "8,12",
                "--ks", "2,4,8,12",
                "--spectra", "diag,gauss",
                "--bench-seeds", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        meta, header, rows = cli.read_csv(out / "bench-lanczos.csv")
        assert meta["schema"] == cli.BENCH_SCHEMA
        assert header == ["n", "spectrum_kind", "k", "rel_err_vs_oracle", "matvecs", "wall_ns"]
        for row in rows:
            assert int(row[4]) == min(int(row[2]), int(row[0]))  # matvecs == effective k

        by_group = {}
        for row in rows:
            by_group.setdefault((row[0], row[1]), {}).setdefault(int(row[2]), []).append(
                float(row[3])
            )
        for (n, kind), errs in by_group.items():
            ks = sorted(errs)
            medians = [np.median(errs[k]) for k in ks]
            for lo, hi in zip(medians[1:], medians[:-1]):
                assert lo <= hi + 1e-12, f"non-monotone error for n={n} kind={kind}"
            # full-depth rows are exact to roundoff
            full = [e for e in errs.get(int(n), [])]
            assert full and max(full) <= 1e-8

    def test_unknown_schema_rejected(self, tmp_path):
        doct = tmp_path / "doctored.csv"
        doct.write_text("# schema=bench-lanczos-v99\n# version=0\nn\n1\n")
        with pytest.raises(cli.UsageError, match="unknown CSV schema"):
            cli.read_csv(doct)

    def test_bad_sweep_list_is_usage_error(self, tmp_path):
        assert run_cli(["bench-lanczos", "--sizes", "a,b", "--out", str(tmp_path)]) == 1


class TestExitCodes:
    def test_numerical_failure_maps_to_two(self, tmp_path, monkeypatch):
        from mmwsketch.online import GainValidationError

        def boom(args):
            raise GainValidationError("step 3: synthetic failure")

        monkeypatch.setattr(cli, "_online_run_for_seed", boom)
        code = run_cli(["online-eig", "--n", "4", "--T", "3", "--out", str(tmp_path)])
        assert code == 2

    def test_bench_overflow_maps_to_two(self, tmp_path, capsys):
        args = ["bench-lanczos", "--op-norm", "800", "--sizes", "8", "--ks", "4", "--out", str(tmp_path)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not (tmp_path / "bench-lanczos.csv").exists()

    def test_numerical_value_error_maps_to_two(self, tmp_path, capsys):
        # epsilon 1e-9 asks for a horizon of ~1.7e19 steps, which numpy refuses to allocate
        args = ["sdp-feas", "--instance", "builtin:sym2x2", "--epsilon", "1e-9", "--out", str(tmp_path)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["online-eig", "sdp-feas"])
    def test_unallocatable_horizon_maps_to_two(self, tmp_path, capsys, command):
        # horizons whose per-step arrays (7.1 and 3.8 PiB) exceed the address space: the allocator refuses
        # at once, and no memory is touched
        if command == "online-eig":
            args = ["online-eig", "--T", str(10**15)]
        else:
            path = tmp_path / "wide.sdpi"
            path.write_text("2 1\n1 1 1 1e6\n1 2 2 -1e6\n")  # width 1e6 at epsilon 0.25: T about 2.7e14
            args = ["sdp-feas", "--instance", str(path)]
        assert run_cli(args + ["--out", str(tmp_path / "D")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not (tmp_path / "D").exists()

    def test_failed_run_leaves_no_output_directory(self, tmp_path, monkeypatch):
        def boom(args):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(cli, "_online_run_for_seed", boom)
        for args in (
            ["sdp-feas", "--instance", "builtin:sym2x2", "--epsilon", "1e-9"],
            ["online-eig", "--n", "4", "--T", "3"],
            ["bench-lanczos", "--op-norm", "800", "--sizes", "8", "--ks", "4"],
        ):
            assert run_cli(args + ["--out", str(tmp_path / "D")]) == 2, args[0]
            assert not (tmp_path / "D").exists(), args[0]

    @pytest.mark.parametrize(
        "command,flag",
        [
            pytest.param("sdp-feas", ["--k0", "8"], id="sdp-feas"),
            pytest.param("bench-lanczos", ["--k0", "8"], id="bench-lanczos"),
            pytest.param("bench-lanczos", ["--seed", "1"], id="bench-lanczos-seed"),
            pytest.param("bench-lanczos", ["--delta", "0.5"], id="bench-lanczos-delta"),
            pytest.param("bench-lanczos", ["--dense-limit", "3"], id="bench-lanczos-dense-limit"),
            pytest.param("selftest", ["--out", "X"], id="selftest-out"),
        ],
    )
    def test_k0_flag_is_online_only(self, tmp_path, capsys, monkeypatch, command, flag):
        # a flag the subcommand does not read would be echoed but ignored; it is rejected
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
        assert run_cli([command, *flag]) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(flag)}\n"
        assert os.listdir(tmp_path) == []

    def test_bench_large_but_finite_oracle_reports_error(self, tmp_path):
        # |exp(A) b| near 1e304: finite, though its sum of squares is not
        args = ["bench-lanczos", "--op-norm", "700", "--sizes", "8", "--ks", "4,8", "--out", str(tmp_path)]
        assert run_cli(args) == 0
        _, header, rows = cli.read_csv(tmp_path / "bench-lanczos.csv")
        errors = [float(row[header.index("rel_err_vs_oracle")]) for row in rows]
        assert rows and all(math.isfinite(e) for e in errors)
        assert min(errors) <= 1e-10  # full depth n = 8 is exact


ONLINE_SETTINGS = {
    "n", "T", "eta", "k0", "strategy", "adversary", "hp_delta", "workers",
    "out", "seeds", "seed", "seed_list", "delta",
}
SDP_SETTINGS = {"epsilon", "instance", "lanczos", "out", "seeds", "seed", "seed_list", "delta"}
BENCH_SETTINGS = {"sizes", "ks", "spectra", "op_norm", "bench_seeds", "out"}
ECHO_EXTRAS = {"command", "resolved_seeds", "version"}


class TestSettingsBoundary:
    """Each subcommand reads, checks and echoes only its own settings."""

    def test_echo_lists_exactly_the_settings_read(self, tmp_path):
        out = tmp_path / "echo"
        assert run_cli(["online-eig", "--n", "4", "--T", "5", "--seed", "2", "--out", str(out)]) == 0
        online = json.loads((out / "online-eig-summary.json").read_text())["config"]
        assert set(online) == ONLINE_SETTINGS | ECHO_EXTRAS | {"resolved_eta"}
        meta, _, _ = cli.read_csv(out / "online-eig-trace-seed2.csv")
        assert json.loads(meta["config"]) == online
        assert run_cli(["sdp-feas", "--instance", "builtin:sym2x2", "--out", str(out)]) == 0
        sdp = json.loads((out / "sdp-feas-summary.json").read_text())["config"]
        assert set(sdp) == SDP_SETTINGS | ECHO_EXTRAS
        assert not {"n", "T", "strategy", "k0"} & set(sdp)
        assert not {"instance", "epsilon"} & set(online)
        assert run_cli(["bench-lanczos", "--sizes", "4", "--ks", "2", "--out", str(out)]) == 0
        meta, _, _ = cli.read_csv(out / "bench-lanczos.csv")
        assert set(json.loads(meta["config"])) == BENCH_SETTINGS | ECHO_EXTRAS

    @pytest.mark.parametrize(
        "command,config",
        [
            ("online-eig", {"delta": "0.1"}),
            ("online-eig", {"n": 5.5}),
            ("online-eig", {"n": "abc"}),
            ("online-eig", {"n": True}),
            ("online-eig", {"epsilon": 0.5}),
            ("online-eig", {"strategy": "nope"}),
            ("online-eig", {"hp_delta": 2}),
            ("sdp-feas", {"lanczos": "yes"}),
            ("sdp-feas", {"T": 10}),
            ("bench-lanczos", {"seed": 1}),
            ("bench-lanczos", {"bench_seeds": 0}),
            ("bench-lanczos", [1, 2]),
            ("online-eig", {"dense_limit": 4096}),
            ("online-eig", {"mc_samples": 100}),
            ("sdp-feas", {"dense_limit": 4096}),
        ],
    )
    def test_bad_config_file_is_one_line_usage_error(self, tmp_path, capsys, monkeypatch, command, config):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli([command, "--config", "cfg.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_config_switch_and_explicit_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lanczos": True, "epsilon": 0.5, "instance": "builtin:sym2x2"}))
        out = tmp_path / "switch"
        assert run_cli(["sdp-feas", "--config", str(cfg), "--epsilon", "0.75", "--out", str(out)]) == 0
        echo = json.loads((out / "sdp-feas-summary.json").read_text())["config"]
        assert (echo["lanczos"], echo["epsilon"], echo["instance"]) == (True, 0.75, "builtin:sym2x2")

    def test_zero_bench_seeds_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["bench-lanczos", "--bench-seeds", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: bench-seeds must be >= 1\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-4"])
    def test_op_norm_not_finite_and_nonnegative_is_usage_error(self, tmp_path, capsys, value):
        assert run_cli(["bench-lanczos", f"--op-norm={value}", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: op-norm must be a finite number >= 0\n"
        assert os.listdir(tmp_path) == []


SEED_FLAGS = {"--seeds", "--seed", "--seed-list"}
OUTPUT_FLAGS = {"--out", "--config"}
README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_cli_bullets_list_exactly_the_registered_flags(self):
        text = README.read_text()
        # the paragraph after "Each subcommand takes only the flags it reads": one bullet per subcommand
        block = text[text.index("Each subcommand takes only the flags it reads") :].split("\n\n")[1]
        bullets = re.findall(r"^- `([a-z-]+)`:(.*?)(?=^- |\Z)", block, re.M | re.S)
        commands = cli.build_parser().commands
        assert sorted(name for name, _ in bullets) == sorted(commands)
        for name, body in bullets:
            listed = set(re.findall(r"`(--[A-Za-z0-9-]+)`", body))
            body = " ".join(body.split())
            if "the seed and output flags" in body:
                listed |= SEED_FLAGS | OUTPUT_FLAGS
            elif "the output flags" in body:
                listed |= OUTPUT_FLAGS
            registered = {f for a in commands[name]._actions for f in a.option_strings} - {"-h", "--help"}
            assert listed == registered, name


class TestEntryPoint:
    def test_console_script_version(self):
        # the child imports the same checkout as this process, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mmwsketch.cli", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "0.1.0" in proc.stdout
