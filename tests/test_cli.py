"""CLI contract: config resolution, CSV layout, determinism, exit codes."""

import contextlib
import hashlib
import io
import re
import subprocess
import sys
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import CDF_FAMILIES, gain_cdf, simulate
from vlcnoma.cli import (
    DEFAULTS,
    SWEEPS,
    build_experiment,
    build_parser,
    config_hash,
    emit_csv,
    fmt,
    main,
    parse_config_file,
    parse_grid,
    resolve_config,
)
from vlcnoma.errors import InvalidParameterError
from vlcnoma.rates import FEEDBACK_MODES

MANIFEST_RE = re.compile(r"^# manifest config_sha256=[0-9a-f]{16} seed=\d+ version=\S+$")


def read_csv(path):
    """Split an output file into manifest, header, data rows, summary lines."""
    lines = path.read_text().splitlines()
    manifest = lines[0]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    summary = [line for line in lines[2:] if line.startswith("#")]
    return manifest, header, rows, summary


def resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


class TestParseGrid:
    def test_range_is_inclusive(self):
        grid = parse_grid("140:250:5", "k")
        assert len(grid) == 23
        assert grid[0] == 140.0 and grid[-1] == 250.0

    def test_range_endpoint_not_on_step(self):
        assert parse_grid("0:10:4", "k") == (0.0, 4.0, 8.0)

    def test_comma_list(self):
        assert parse_grid("0.1,0.5,0.9", "k") == (0.1, 0.5, 0.9)

    def test_single_value(self):
        assert parse_grid("7", "k") == (7.0,)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_grid("  ", "k")

    def test_zero_step_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_grid("1:10:0", "k")

    def test_decreasing_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_grid("3,2,1", "k")

    def test_non_numeric_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_grid("1,foo", "k")

    def test_two_part_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_grid("1:5", "k")


class TestConfigFile:
    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("seed = 9  # trailing comment\n\n# full-line comment\ntrials=5000\n")
        assert parse_config_file(str(f)) == {"seed": "9", "trials": "5000"}

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("not_a_key=1\n")
        with pytest.raises(InvalidParameterError, match="unknown config key"):
            parse_config_file(str(f))

    def test_missing_equals_rejected(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("seed 9\n")
        with pytest.raises(InvalidParameterError, match="key=value"):
            parse_config_file(str(f))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="cannot read config"):
            parse_config_file(str(tmp_path / "absent.conf"))


class TestResolveConfig:
    def test_defaults_fill_mean_band_and_trials(self):
        conf, explicit = resolve(["sweep-snr"])
        assert conf["mean_angle_min_deg"] == "25.0"
        assert conf["mean_angle_max_deg"] == "155.0"
        assert conf["trials"] == "1000000"
        assert not explicit

    def test_cdf_commands_get_larger_trial_default(self):
        conf, _ = resolve(["validate-angle-cdf"])
        assert conf["trials"] == "10000000"

    def test_file_overrides_defaults(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("seed=3\nsnr_db=180\n")
        conf, _ = resolve(["sweep-snr", "--config", str(f)])
        assert conf["seed"] == "3" and conf["snr_db"] == "180"

    def test_set_overrides_file(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("seed=3\n")
        conf, _ = resolve(["sweep-snr", "--config", str(f), "--set", "seed=5"])
        assert conf["seed"] == "5"

    def test_named_flag_overrides_set(self):
        conf, _ = resolve(["sweep-snr", "--set", "seed=5", "--seed", "7"])
        assert conf["seed"] == "7"

    def test_partial_band_marks_explicit_and_fills_other_side(self):
        conf, explicit = resolve(["sweep-snr", "--set", "mean_angle_min_deg=30"])
        assert explicit
        assert conf["mean_angle_min_deg"] == "30"
        assert conf["mean_angle_max_deg"] == "155.0"

    def test_set_without_equals_rejected(self):
        with pytest.raises(InvalidParameterError, match="--set expects"):
            resolve(["sweep-snr", "--set", "seed"])

    def test_set_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown config key"):
            resolve(["sweep-snr", "--set", "bogus=1"])


class TestFormatting:
    def test_fmt_cases(self):
        assert fmt(None) == ""
        assert fmt(20) == "20"
        assert fmt(np.int64(3)) == "3"
        assert fmt(2.0) == "2"
        assert fmt(0.1234567891234) == "0.123456789"

    def test_rows_of_mixed_cells_read_as_fmt(self, tmp_path):
        rows = [
            (None, 20, np.int64(-3), 0.1234567891234, np.float64(2.0)),
            (1.5e-310, None, 2**70, float("inf"), -0.0),
            (None, None, True, np.int64(0), 1e300),
        ]
        out = tmp_path / "mixed.csv"
        emit_csv(str(out), "# manifest", list("abcde"), rows, ["# summary"])
        lines = out.read_text().splitlines()
        assert lines[2] == ",20,-3,0.123456789,2"
        assert lines[2:-1] == [",".join(fmt(cell) for cell in row) for row in rows]

    def test_hash_order_independent(self):
        a = {"x": "1", "y": "2"}
        b = {"y": "2", "x": "1"}
        assert config_hash(a) == config_hash(b)
        assert re.fullmatch(r"[0-9a-f]{16}", config_hash(a))

    def test_hash_sensitive_to_values(self):
        assert config_hash({"x": "1"}) != config_hash({"x": "2"})


class TestValidateAngleCdf:
    def test_schema_and_summary(self, tmp_path):
        out = tmp_path / "angle.csv"
        code = main(
            [
                "validate-angle-cdf",
                "--trials",
                "20000",
                "--seed",
                "1",
                "--set",
                "grid_points=21",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest, header, rows, summary = read_csv(out)
        assert MANIFEST_RE.match(manifest)
        assert " seed=1 " in manifest
        assert header == ["angle_deg", "analytic_cdf", "empirical_cdf"]
        assert len(rows) == 21
        analytic = np.array([float(r[1]) for r in rows])
        assert analytic[0] == 0.0 and analytic[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(analytic) >= 0)
        assert len(summary) == 1
        m = re.match(r"# summary ks_distance=(\S+) samples=20000$", summary[0])
        assert m and float(m.group(1)) < 0.05

    def test_zero_deviation_gives_uniform_cdf(self, tmp_path):
        out = tmp_path / "angle.csv"
        code = main(
            [
                "validate-angle-cdf",
                "--trials",
                "5000",
                "--set",
                "max_deviation_deg=0",
                "--set",
                "grid_points=11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, _, rows, _ = read_csv(out)
        analytic = np.array([float(r[1]) for r in rows])
        # mean band auto-fills to [0, 180] so the angle is uniform on it
        assert np.allclose(analytic, np.linspace(0, 1, 11), atol=1e-12)

    def test_stdout_when_no_out_path(self, capsys):
        code = main(["validate-angle-cdf", "--trials", "2000", "--set", "grid_points=5"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith("# manifest config_sha256=")


class TestValidateKnz:
    def test_schema_and_pmf_normalization(self, tmp_path):
        out = tmp_path / "knz.csv"
        code = main(["validate-knz", "--trials", "50000", "--seed", "2", "--out", str(out)])
        assert code == 0
        _, header, rows, summary = read_csv(out)
        assert header == ["k_nonzero", "analytic_pmf", "empirical_pmf"]
        assert len(rows) == 21
        assert [int(r[0]) for r in rows] == list(range(21))
        analytic = np.array([float(r[1]) for r in rows])
        empirical = np.array([float(r[2]) for r in rows])
        assert analytic.sum() == pytest.approx(1.0, abs=1e-9)
        assert empirical.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(analytic[:10] == 0)
        m = re.match(r"# summary tv_distance=(\S+) sched_prob=(\S+)$", summary[0])
        assert m and 0 < float(m.group(1)) < 0.1
        assert float(m.group(2)) == pytest.approx(0.296, abs=0.02)

    def test_builds_no_grid(self):
        # its rows are the user counts; grid_points is still checked (TestExitCodes)
        conf, band = resolve(["validate-knz", "--set", "grid_points=1000000"])
        assert build_experiment("validate-knz", conf, band).grid == ()

    def test_unreachable_rank_exits_3(self, tmp_path, capsys):
        code = main(
            [
                "validate-knz",
                "--trials",
                "2000",
                "--set",
                "theta_fov_deg=2",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3
        assert "degenerate condition" in capsys.readouterr().err


class TestValidateChannelCdf:
    def test_unordered_schema(self, tmp_path):
        out = tmp_path / "cdf.csv"
        code = main(
            [
                "validate-channel-cdf",
                "--family",
                "unordered",
                "--trials",
                "3000",
                "--seed",
                "3",
                "--set",
                "grid_points=41",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows, summary = read_csv(out)
        assert header == ["gain_sq", "analytic_cdf", "empirical_cdf"]
        assert 0 < len(rows) <= 41
        m = re.match(
            r"# summary ks_bound=(\S+) samples=(\d+) conditioning_prob=(\S+)$", summary[0]
        )
        assert m
        assert float(m.group(1)) < 0.2
        assert int(m.group(2)) > 0

    def test_ordered_with_rank_override(self, tmp_path):
        out = tmp_path / "cdf.csv"
        args = [
            "validate-channel-cdf",
            "--family",
            "ordered",
            "--rank",
            "1",
            "--trials",
            "3000",
            "--seed",
            "4",
            "--set",
            "theta_fov_deg=60",
            "--set",
            "mean_angle_min_deg=30",
            "--set",
            "mean_angle_max_deg=150",
            "--set",
            "max_deviation_deg=30",
            "--set",
            "grid_points=21",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        _, _, rows, summary = read_csv(out)
        m = re.match(r"# summary ks_bound=(\S+) samples=(\d+)", summary[0])
        assert int(m.group(2)) > 500

    def test_each_analytic_level_evaluated_once(self, tmp_path, monkeypatch):
        public = gain_cdf.cdf_strong_twobit_mean
        levels = []

        def counted(x, *args, **kwargs):
            levels.extend(np.atleast_1d(x).tolist())
            return public(x, *args, **kwargs)

        # the family table looks the public function up at call time
        monkeypatch.setattr(gain_cdf, "cdf_strong_twobit_mean", counted)
        out = tmp_path / "cdf.csv"
        args = ["validate-channel-cdf", "--family", "twobit_mean_strong", "--trials", "20000"]
        args += ["--seed", "3", "--set", "grid_points=8", "--set", "ks_grid_points=12"]
        assert main(args + ["--set", "workers=1", "--out", str(out)]) == 0
        _, _, rows, _ = read_csv(out)
        # the quantile grid and the KS grid share their end points
        assert len(levels) == len(set(levels)) > len(rows)

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate-channel-cdf", "--family", "bogus"])
        assert exc.value.code == 2


class TestNumpyOnlyRuntime:
    def test_cli_jobs_load_no_scipy(self):
        """The runtime needs numpy and the standard library only; scipy is a test oracle."""
        script = """
import os, sys
from vlcnoma.cli import main
jobs = [
    ["sweep-snr"],
    ["sweep-snr", "--mode", "TwoBitMean"],
    ["validate-channel-cdf", "--family", "ordered"],
    ["validate-knz"],
]
small = ["--trials", "3000", "--seed", "1", "--set", "workers=1", "--set", "snr_grid_db=200"]
for job in jobs:
    assert main(job + small + ["--set", "grid_points=5", "--out", os.devnull]) == 0, job
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestSweeps:
    def test_power_split_warns_once_naming_the_cli(self):
        # each sweep point copies the built config; the copies must not repeat its warning,
        # and the ordered family's sampler makes no copy of its own
        small = ["--trials", "2000", "--set", "workers=1"]
        for argv in (
            ["sweep-snr", *small, "--set", "snr_grid_db=200,210"],
            [
                "validate-channel-cdf", "--family", "ordered", *small,
                "--set", "grid_points=5", "--set", "ks_grid_points=8",
            ],
        ):
            quiet = contextlib.redirect_stdout(io.StringIO())
            with warnings.catch_warnings(record=True) as caught, quiet:
                warnings.simplefilter("always")
                assert main(argv) == 0
            split = [w.filename for w in caught if "squared sum" in str(w.message)]
            assert split == [main.__code__.co_filename], argv[0]

    def test_snr_schema_full_csi(self, tmp_path):
        out = tmp_path / "snr.csv"
        code = main(
            [
                "sweep-snr",
                "--trials",
                "2000",
                "--set",
                "snr_grid_db=200:220:10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows, _ = read_csv(out)
        assert header == [
            "snr_db",
            "analytic_sum_rate",
            "mc_sum_rate",
            "mc_stderr",
            "oma_sum_rate",
            "sched_prob",
        ]
        assert [float(r[0]) for r in rows] == [200.0, 210.0, 220.0]
        assert all(r[1] != "" for r in rows)
        sched = {r[5] for r in rows}
        assert len(sched) == 1

    def test_snr_mc_only_mode_leaves_analytic_blank(self, tmp_path):
        out = tmp_path / "snr.csv"
        code = main(
            [
                "sweep-snr",
                "--mode",
                "OneBitDistance",
                "--trials",
                "2000",
                "--set",
                "snr_grid_db=200,220",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, _, rows, _ = read_csv(out)
        assert all(r[1] == "" for r in rows)
        assert all(float(r[4]) >= 0 for r in rows)

    def test_deviation_schema(self, tmp_path):
        out = tmp_path / "dev.csv"
        code = main(
            [
                "sweep-deviation",
                "--trials",
                "2000",
                "--set",
                "deviation_grid_deg=0:10:5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows, _ = read_csv(out)
        assert header == [
            "deviation_deg",
            "analytic_sum_rate",
            "mc_sum_rate",
            "mc_stderr",
            "sched_prob",
        ]
        assert [float(r[0]) for r in rows] == [0.0, 5.0, 10.0]

    def test_deviation_rejects_unphysical_explicit_band(self, tmp_path, capsys):
        code = main(
            [
                "sweep-deviation",
                "--trials",
                "2000",
                "--set",
                "mean_angle_min_deg=40",
                "--set",
                "mean_angle_max_deg=140",
                "--set",
                "deviation_grid_deg=0,45",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("dev", ["0", "1e-6"])
    def test_two_bit_mean_at_right_angle_view_without_deviation(self, dev):
        # At 250 dB the weak-set quadrature meets its tolerance only if the
        # gain half-angle near 90 degrees is free of rounding noise.
        argv = [
            "sweep-snr", "--mode", "TwoBitMean", "--trials", "2000",
            "--set", "theta_fov_deg=90", "--set", f"max_deviation_deg={dev}",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    def test_thresholds_requires_group_mode(self, capsys):
        code = main(["sweep-thresholds", "--trials", "2000"])
        assert code == 2
        assert "group feedback mode" in capsys.readouterr().err

    def test_thresholds_cartesian_grid(self, tmp_path):
        out = tmp_path / "th.csv"
        code = main(
            [
                "sweep-thresholds",
                "--mode",
                "TwoBitInstantaneous",
                "--trials",
                "2000",
                "--set",
                "threshold_frac_grid=0.3,0.7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows, _ = read_csv(out)
        assert header[:2] == ["dist_frac", "angle_frac"]
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (0.3, 0.3),
            (0.3, 0.7),
            (0.7, 0.3),
            (0.7, 0.7),
        ]

    def test_noisy_compare_schema(self, tmp_path):
        out = tmp_path / "noisy.csv"
        code = main(
            [
                "noisy-compare",
                "--trials",
                "2000",
                "--set",
                "snr_grid_db=200,220",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows, _ = read_csv(out)
        assert header == [
            "snr_db",
            "clean_sum_rate",
            "clean_stderr",
            "noisy_sum_rate",
            "noisy_stderr",
            "gap",
            "clean_sched_prob",
            "noisy_sched_prob",
        ]
        assert len(rows) == 2
        # scheduling counts the true nonzero gains, so feedback noise cannot move it
        for r in rows:
            assert r[6] == r[7]


class TestSweepConsistency:
    """A one-point grid of each sweep reproduces the matching sweep-snr row."""

    def run(self, tmp_path, *argv):
        out = tmp_path / "sweep.csv"
        base = ["--trials", "3000", "--seed", "4", "--set", "workers=1", "--out", str(out)]
        assert main([*argv, *base]) == 0
        _, header, rows, _ = read_csv(out)
        assert len(rows) == 1
        return dict(zip(header, rows[0]))

    def test_deviation_point_matches_snr_row(self, tmp_path):
        snr = self.run(tmp_path, "sweep-snr", "--set", "snr_grid_db=200")
        dev = self.run(tmp_path, "sweep-deviation", "--set", "deviation_grid_deg=25")
        assert snr["analytic_sum_rate"] != ""
        for col in ("analytic_sum_rate", "mc_sum_rate", "mc_stderr", "sched_prob"):
            assert dev[col] == snr[col]

    def test_thresholds_point_matches_snr_row(self, tmp_path):
        mode = ["--mode", "TwoBitMean"]
        snr = self.run(tmp_path, "sweep-snr", *mode, "--set", "snr_grid_db=200")
        th = self.run(tmp_path, "sweep-thresholds", *mode, "--set", "threshold_frac_grid=0.1")
        assert snr["analytic_sum_rate"] != ""
        for col in ("analytic_sum_rate", "mc_sum_rate", "mc_stderr", "sched_prob"):
            assert th[col] == snr[col]

    def test_noisy_compare_matches_snr_rows(self, tmp_path):
        grid = ["--set", "snr_grid_db=200"]
        noisy = self.run(tmp_path, "noisy-compare", *grid)
        for run, noise in (("clean", "false"), ("noisy", "true")):
            snr = self.run(tmp_path, "sweep-snr", *grid, "--set", f"noise_enabled={noise}")
            assert noisy[f"{run}_sum_rate"] == snr["mc_sum_rate"]
            assert noisy[f"{run}_stderr"] == snr["mc_stderr"]
            assert noisy[f"{run}_sched_prob"] == snr["sched_prob"]


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        args = ["validate-angle-cdf", "--trials", "5000", "--seed", "11"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_worker_count_does_not_change_rows(self, tmp_path):
        base = [
            "sweep-snr",
            "--trials",
            "2000",
            "--set",
            "snr_grid_db=200,210",
        ]
        out_a = tmp_path / "w1.csv"
        out_b = tmp_path / "w3.csv"
        assert main(base + ["--set", "workers=1", "--out", str(out_a)]) == 0
        assert main(base + ["--set", "workers=3", "--out", str(out_b)]) == 0
        rows_a = out_a.read_text().splitlines()[1:]
        rows_b = out_b.read_text().splitlines()[1:]
        assert rows_a == rows_b

    def test_angle_cdf_rows_do_not_depend_on_workers(self, tmp_path):
        # 140,000 trials span three chunks
        base = ["validate-angle-cdf", "--trials", "140000", "--set", "grid_points=11"]
        out_a = tmp_path / "w1.csv"
        out_b = tmp_path / "w2.csv"
        assert main(base + ["--set", "workers=1", "--out", str(out_a)]) == 0
        assert main(base + ["--set", "workers=2", "--out", str(out_b)]) == 0
        rows_a = out_a.read_text().splitlines()[1:]
        rows_b = out_b.read_text().splitlines()[1:]
        assert rows_a == rows_b


class TestPowerNormalization:
    """``normalize_power=true`` gives the rows of the split it rescales to."""

    @staticmethod
    def rows(*sets):
        argv = ["sweep-snr", "--trials", "5000", "--set", "workers=1"]
        for item in sets:
            argv += ["--set", item]
        out = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # the manifest hashes the config, which differs; everything after it must not
        return out.getvalue().splitlines()[1:]

    @pytest.mark.parametrize(
        "split, normalized",
        [
            ((), ("0.999874047483599", "0.015871016626723793")),
            (("1e-200", "1e-201"), ("0.9950371902099892", "0.09950371902099892")),
            (("1e200", "1e199"), ("0.9950371902099892", "0.09950371902099892")),
        ],
        ids=["default", "tiny", "huge"],
    )
    def test_rows_match_explicit_fractions(self, split, normalized):
        def sets(betas):
            return [f"{key}={value}" for key, value in zip(("beta_weak", "beta_strong"), betas)]

        assert self.rows("normalize_power=true", *sets(split)) == self.rows(*sets(normalized))


class TestGoldenBytes:
    """Monte Carlo bytes of two-chunk sweeps (the second partial), analytic
    bytes of each gain-CDF family against its samples, and one case of each
    other subcommand, pinned by hash.

    A kernel change that is meant to keep results must keep these hashes.  A
    change that moves results on purpose regenerates them and says so.  Bytes
    are reproducible within one numpy version only, so another version skips.
    """

    NUMPY = "2.4.6"
    SHA256 = {
        ("FullCSI", "false"): "622cc37777e07087454131ef5c75bc281c2ac3b9d951c6e930e6ed130ef57d4c",
        ("MeanAngle", "false"): "5832acef5fdcb70c4cfbe5ed930edd2bdb62e0a415f08919bc8886044215b088",
        ("DistanceOnly", "false"): "4ac3eba231fd6c3c268dc9f59f794b85ba96742371f46cf2df4434c70e7acd3d",
        ("OneBitDistance", "false"): "5bbef97ee46a4d7aa2829688c6a1847088e25c5b8743c68e7085a1a890c78039",
        ("TwoBitInstantaneous", "false"): "94e732218603e8c25e94cf9317204c691e5adc6f5bf37d3a39a4ae7d5c266493",
        ("TwoBitMean", "false"): "2d74fa892834f62e0a9bcf18bf73437f8028ae04d026d842ae3c90fde22947bf",
        ("FullCSI", "true"): "d60158988ef8fa051bb281bc2fd3c9add333b627fd094a446a80d9671f9a9d6c",
        ("MeanAngle", "true"): "bffa64e6c652101af931fdc0e91e249796f87c79fc97c36fb866fc86e338ca09",
        ("TwoBitMean", "true"): "8d23954e9150f874706b5c707bd0b89702ba754e020a9f953257fd4f013d3a7e",
        ("DistanceOnly", "true"): "741d61153ee88f9966a1cfb975d4541a66ae53d058bd916ea104ec419377dbe8",
        ("OneBitDistance", "true"): "71df40f8ef836b1b69fad17ff4b8707e9c88a7da424b3550c71088d9692de30f",
        ("TwoBitInstantaneous", "true"): "df4f9aaf3daab0829b2ecc68f6b4036563d4ad62cb0a2207a1b1d15768ecf279",
    }

    @pytest.mark.skipif(np.__version__ != NUMPY, reason=f"hashes made with numpy {NUMPY}")
    @pytest.mark.parametrize("mode, noise", sorted(SHA256))
    def test_sweep_snr_stdout_hash(self, mode, noise):
        argv = [
            "sweep-snr", "--mode", mode, "--trials", "70000",
            "--set", "workers=1", "--set", f"noise_enabled={noise}",
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.SHA256[mode, noise]

    FAMILY_SHA256 = {
        "unordered": "14d503f58910d7e66a4a69d751fc418572b21e73f549911571c065cd8be99f91",
        "ordered": "aa72557090eab2e21ed757dbea64c4e8f28fd47eefd00fd8047d60b9d3dd6ef5",
        "twobit_inst_weak": "92dd980799b6f50eed19ca0b92865ce7aed078952df149db05ff6f67a142579c",
        "twobit_inst_strong": "3191454b75ebaa2482dffbb45ac370622cac71177ee1d33405df2c36f991c373",
        "twobit_mean_weak": "d2b336fbfc8fb668738646d4a70ee7cfe771fca929e67134915c232d4450902d",
        "twobit_mean_strong": "3a9c10a1f2fdbe07d156a365e18563ef31fe9a28d796a8288933402272de65cd",
    }

    @pytest.mark.skipif(np.__version__ != NUMPY, reason=f"hashes made with numpy {NUMPY}")
    @pytest.mark.parametrize("family", sorted(FAMILY_SHA256))
    def test_channel_cdf_stdout_hash(self, family):
        argv = [
            "validate-channel-cdf", "--family", family, "--trials", "20000", "--seed", "3",
            "--set", "workers=1", "--set", "grid_points=6", "--set", "ks_grid_points=8",
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.FAMILY_SHA256[family]

    # The other subcommands and the ordered family's weak-rank path, one case each.
    COMMAND_SHA256 = {
        "knz_fov50": (
            ("validate-knz",),
            "a074eabf53c9c196a2443ad92d8615bbc96650a03f01378222f0a100d95711f6",
        ),
        "knz_fov90": (
            ("validate-knz", "--set", "theta_fov_deg=90"),
            "a066301db9b9761fe059e604043cac9d41d74088a96be2407699fa9f223c5343",
        ),
        "ordered_rank3": (
            (
                "validate-channel-cdf", "--family", "ordered", "--rank", "3",
                "--set", "grid_points=6", "--set", "ks_grid_points=8",
            ),
            "6b7f9fad9d4379523e7615cc4beae493f57685e5066c990f348570caddd062c1",
        ),
        "angle_cdf": (
            ("validate-angle-cdf", "--set", "grid_points=11"),
            "ad1eb9795fc5bd1896a776c5cf8e8b619728dcb6e0b0e5397c46563d1b0048f1",
        ),
        "deviation": (
            ("sweep-deviation", "--mode", "TwoBitMean", "--set", "deviation_grid_deg=0,25"),
            "6bc56bd63810390e59fbc41e18bfab52ad53aa5ff8580c77f3c7b3d6d42ba31d",
        ),
        "thresholds": (
            (
                "sweep-thresholds", "--mode", "TwoBitInstantaneous",
                "--set", "threshold_frac_grid=0.1,0.5",
            ),
            "301315224d6715ef10c9901f5b3b2f987865a6fde82b7d1e8dc855211ec2395c",
        ),
        "normalized": (
            ("sweep-snr", "--set", "normalize_power=true"),
            "9f7c78880d4b93dc21da313c429d85ace43e1ea2433dd7e042bf02670133bfb7",
        ),
        "normalized_twobit_mean": (
            (
                "sweep-snr", "--mode", "TwoBitMean", "--set", "normalize_power=true",
                "--set", "beta_weak=1.2", "--set", "beta_strong=0.4",
            ),
            "5948d76f5d7e66a901e25156eaf64cc6dc9001795c4ce72c0fbeb00278e74342",
        ),
        "normalized_noisy_compare": (
            ("noisy-compare", "--mode", "MeanAngle", "--set", "normalize_power=true"),
            "a2c41c4a8abed76e0ab8f97df137b28642d20bf7f4b7a398c7ed23d5674595f3",
        ),
    }

    @pytest.mark.skipif(np.__version__ != NUMPY, reason=f"hashes made with numpy {NUMPY}")
    @pytest.mark.parametrize("case", sorted(COMMAND_SHA256))
    def test_command_stdout_hash(self, case):
        command, expected = self.COMMAND_SHA256[case]
        argv = [*command, "--trials", "20000", "--seed", "3", "--set", "workers=1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == expected


class TestExitCodes:
    def test_too_few_trials(self, capsys):
        assert main(["sweep-snr", "--trials", "500"]) == 2
        assert "at least 1000" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["sweep-snr", "--config", "/does/not/exist.conf"]) == 2

    def test_config_file_not_utf8(self, tmp_path, capsys):
        f = tmp_path / "bad.conf"
        f.write_bytes(b"seed=1\n\xff\xfe=2\n")
        argv = ["sweep-snr", "--config", str(f), "--trials", "2000", "--set", "snr_grid_db=200"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {f}: ")
        assert "Traceback" not in err

    def test_unwritable_out_path(self, capsys):
        code = main(
            [
                "validate-angle-cdf",
                "--trials",
                "1000",
                "--out",
                "/no_such_dir_zzz/out.csv",
            ]
        )
        assert code == 2
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate-angle-cdf", "--set", "max_deviation_deg=-0.0"],
            ["sweep-deviation", "--set", "deviation_grid_deg=-0.0,5"],
        ],
    )
    def test_negative_zero_deviation(self, argv, capsys):
        # -0.0 passes a "< 0" test, but the sampler's band uniform(0.0, -0.0) raises.
        assert main([*argv, "--trials", "2000", "--set", "workers=1"]) == 2
        assert "angular deviation must be nonnegative" in capsys.readouterr().err

    def test_absolute_threshold_needs_both_parts(self, capsys):
        assert main(["sweep-snr", "--trials", "2000", "--set", "dist_threshold=1.0"]) == 2

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "vlcnoma.cli",
                "validate-angle-cdf",
                "--trials",
                "1000",
                "--set",
                "grid_points=5",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# manifest config_sha256=")

    @pytest.mark.parametrize(
        "overrides",
        [
            ["ell=nan"],
            ["area_r=nan"],
            ["d_max=inf"],
            ["max_deviation_deg=nan"],
            ["sigma_d=nan", "noise_enabled=true"],
            ["sigma_phi_deg=inf", "noise_enabled=true"],
            ["rate_weak=nan"],
            ["snr_db=inf"],
            ["snr_db=1e6"],
            ["dist_threshold=nan", "angle_threshold_deg=5"],
        ],
    )
    def test_non_finite_parameter_rejected(self, capsys, overrides):
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["sweep-snr", "--trials", "2000", *sets]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "TwoBitMean", "--set", "beta_strong=1e-300"],
            ["--set", "beta_strong=1e-300"],
            ["--set", "snr_grid_db=-3210"],
        ],
    )
    def test_strong_power_underflow_rejected(self, capsys, args):
        # the strong user's outage threshold divides by snr * beta_strong**2
        assert main(["sweep-snr", "--trials", "2000", *args]) == 2
        assert "beta_strong" in capsys.readouterr().err

    def test_non_finite_quadrature_is_numeric_failure(self, capsys):
        # a 0.001-degree beam is finite but overflows the gain normalization,
        # which the two-bit quadrature must report instead of looping on
        argv = ["sweep-snr", "--trials", "2000", "--mode", "TwoBitInstantaneous"]
        argv += ["--set", "phi_hpbw_deg=0.001", "--set", "snr_grid_db=200"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        # a noisy chunk's noise arrays grow with total_users; a failed allocation is no traceback
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(simulate, "sample_users", exhausted)
        assert main(["sweep-snr", "--trials", "2000", "--set", "snr_grid_db=200"]) == 3
        err = capsys.readouterr().err
        assert err == "out of memory: lower total_users or workers\n"
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_beamwidth_with_unit_cosine_rejected(self, capsys):
        # cos(1e-9 deg) rounds to 1, so the Lambertian order would divide by zero
        argv = ["sweep-snr", "--trials", "2000", "--set", "phi_hpbw_deg=1e-9"]
        assert main(argv) == 2
        assert "beamwidth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "betas, message",
        [
            (("0", "0"), "need beta_weak > beta_strong > 0"),
            (("1", "0"), "need beta_weak > beta_strong > 0"),
            (("0.5", "0.6"), "need beta_weak > beta_strong > 0"),
            (("-1", "-2"), "need beta_weak > beta_strong > 0"),
            (("inf", "1"), "beta_weak must be finite"),
            (("nan", "1"), "beta_weak must be finite"),
        ],
    )
    def test_normalized_split_rejected(self, capsys, betas, message):
        argv = ["sweep-snr", "--trials", "2000", "--set", "normalize_power=true"]
        argv += ["--set", f"beta_weak={betas[0]}", "--set", f"beta_strong={betas[1]}"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_normalize_power_must_be_boolean(self, capsys):
        assert main(["sweep-snr", "--trials", "2000", "--set", "normalize_power=maybe"]) == 2
        assert "normalize_power: not a boolean" in capsys.readouterr().err

    def test_huge_split_without_normalization_rejected(self, capsys):
        # the squared sum overflows; TestPowerNormalization runs the same split rescaled
        argv = ["sweep-snr", "--trials", "2000", "--set", "beta_weak=1e200"]
        assert main([*argv, "--set", "beta_strong=1e199"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for name in ("beta_weak", "beta_strong", "normalize_power=true"):
            assert name in err

    def test_negative_seed_rejected(self, capsys):
        assert main(["sweep-snr", "--trials", "2000", "--seed", "-1"]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate-angle-cdf", "--set", "grid_points=-1"], "grid_points"),
            (["validate-knz", "--set", "total_users=-1"], "strong_rank exceeds total_users"),
            (["validate-knz", "--set", "total_users=0"], "strong_rank exceeds total_users"),
            (["validate-knz", "--set", "strong_rank=30"], "strong_rank exceeds total_users"),
            (
                ["validate-channel-cdf", "--family", "ordered", "--set", "total_users=0"],
                "strong_rank exceeds total_users",
            ),
            (["sweep-snr", "--set", "total_users=1001"], "total_users must be at most 1000"),
            (["sweep-snr", "--set", f"total_users={2**62}"], "total_users must be at most 1000"),
            (["sweep-snr", "--set", "workers=0"], "workers must be at least 1"),
            (["sweep-snr", "--set", "workers=-3"], "workers must be at least 1"),
            (["validate-angle-cdf", "--set", "grid_points=1000001"], "grid_points"),
            (["validate-angle-cdf", "--set", f"grid_points={2**70}"], "grid_points"),
            (
                ["validate-channel-cdf", "--family", "unordered", "--rank", "-5"],
                "only validate-channel-cdf --family ordered reads rank",
            ),
            (
                ["validate-channel-cdf", "--family", "twobit_inst_weak", "--set", "rank=2"],
                "only validate-channel-cdf --family ordered reads rank",
            ),
            (["validate-knz", "--set", "grid_points=1000001"], "grid_points"),
        ],
    )
    def test_invalid_integer_key_rejected(self, capsys, argv, message):
        assert main([*argv, "--trials", "2000"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["family", "oma_mode"])
    @pytest.mark.parametrize("command", ["sweep-snr", "validate-angle-cdf", "validate-knz"])
    def test_unknown_choice_rejected_on_every_command(self, capsys, command, key):
        # a choice key is checked when it is read, also by a command that never uses it
        assert main([command, "--trials", "2000", "--set", f"{key}=bogus"]) == 2
        assert capsys.readouterr().err.startswith(f"error: config key {key}: not one of ")


# Keys of the physical model, the population, the grid sizes and the seed;
# workers, trials and the sweep grids stay fixed so one example stays small.
FUZZ_KEYS = (
    "ell",
    "phi_hpbw_deg",
    "area_r",
    "theta_fov_deg",
    "d_min",
    "d_max",
    "mean_angle_min_deg",
    "mean_angle_max_deg",
    "max_deviation_deg",
    "beta_weak",
    "beta_strong",
    "rate_weak",
    "rate_strong",
    "snr_db",
    "sigma_d",
    "sigma_phi_deg",
    "noise_enabled",
    "dist_threshold_frac",
    "angle_threshold_frac",
    "dist_threshold",
    "angle_threshold_deg",
    "total_users",
    "grid_points",
    "ks_grid_points",
    "seed",
)
# One-point grids: one collection per example in every sweep.
FUZZ_GRIDS = ("snr_grid_db=200", "deviation_grid_deg=25", "threshold_frac_grid=0.1")
FUZZ_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0.0", "1e300", "-1e300", "1e30", "true"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(2**70), 2**70).map(str),
)


class TestMemoryBound:
    def test_noise_free_chunk_peak_rss_is_bounded_by_the_block(self):
        # One 65,536-trial chunk of 1000 users streams its users by row block;
        # drawing them whole took 1.5 GB.  A process's peak RSS counts the
        # memory of the process it was forked from, so a small launcher runs
        # the CLI and reports the peak of that child alone.
        script = """
import resource, subprocess, sys
argv = [sys.executable, "-m", "vlcnoma.cli", "sweep-snr", "--trials", "65536"]
argv += ["--set", "total_users=1000", "--set", "workers=1", "--set", "snr_grid_db=200"]
code = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0
        assert peak_kb < 200 * 1024


class TestFuzzMain:
    # The sweeps, and two validate commands that check grid_points: a drawn
    # count up to MAX_GRID_POINTS is accepted (validate-angle-cdf builds its
    # grid, validate-knz reads none), a larger one exits 2.
    @given(
        command=st.sampled_from([*SWEEPS, "validate-angle-cdf", "validate-knz"]),
        overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES, max_size=4),
        mode=st.sampled_from(tuple(FEEDBACK_MODES)),
    )
    @settings(max_examples=200, deadline=timedelta(seconds=20))
    def test_main_returns_documented_exit_code(self, command, overrides, mode):
        argv = [command, "--trials", "2000", "--mode", mode]
        for item in ("workers=1", *FUZZ_GRIDS, *(f"{k}={v}" for k, v in overrides.items())):
            argv += ["--set", item]
        quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
        with quiet[0], quiet[1], np.errstate(all="ignore"):
            code = main(argv)
        assert code in (0, 2, 3)

    @given(
        family=st.sampled_from(tuple(CDF_FAMILIES)),
        overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES, max_size=4),
    )
    # Most examples exit 2 at config time; 1,000 of them take about 8 s on 2 cores.
    @settings(max_examples=1000, deadline=timedelta(seconds=20))
    def test_validate_channel_cdf_returns_documented_exit_code(self, family, overrides):
        argv = ["validate-channel-cdf", "--trials", "2000", "--family", family]
        # The grid sizes stay fixed after the overrides: a fuzzed count would allocate that many.
        fixed = ("workers=1", "grid_points=4", "ks_grid_points=4")
        for item in (*(f"{k}={v}" for k, v in overrides.items()), *fixed):
            argv += ["--set", item]
        quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
        with quiet[0], quiet[1], np.errstate(all="ignore"):
            code = main(argv)
        assert code in (0, 2, 3)
