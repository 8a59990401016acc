"""CLI surface: commands, exit codes, CSV/SVG/config file formats."""

import math
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from fockberezin.cli import build_parser, main
from fockberezin.config import ConfigError, RunConfig, build_config, parse_config_file
from fockberezin.scan import (CSV_HEADER, cache_from_config, compute_scan,
                              fmt17, parse_csv, rows_to_csv, rows_to_svg)
from fockberezin.svg import polyline_chart


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tol_series == 1e-13
        assert cfg.tol_quad_rel == 1e-12
        assert cfg.series_max_terms == 20000
        assert cfg.quad_max_levels == 12
        assert cfg.defect_kappa == 10.0

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n"
                        "tol.series = 1e-10\n"
                        "series.max_terms = 400   # inline comment\n"
                        "quad.max_levels=9\n")
        values = parse_config_file(path)
        assert values == {"tol_series": 1e-10, "series_max_terms": 400,
                          "quad_max_levels": 9}

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("quad.max_levels = 9\n")
        cfg = build_config(path, {"quad_max_levels": 10, "tol_series": None})
        assert cfg.quad_max_levels == 10
        assert cfg.tol_series == 1e-13

    @pytest.mark.parametrize("text", ["bogus.key = 1\n", "tol.series : 1\n",
                                      "tol.series = abc\n", "threads = 0\n",
                                      "quad.max_levels = 0\n",
                                      "tol.series = inf\n"])
    def test_bad_config_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            build_config(path, {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")


class TestFormat17:
    def test_round_trip(self):
        for x in (0.4, 1.0 / 3.0, 1e-300, 6.62607015e-34, -0.010224596942595476,
                  math.pi, 2.0, 0.0):
            assert float(fmt17(x)) == x


class TestScanMachinery:
    def test_rows_sorted_and_round_trip(self):
        cfg = RunConfig()
        rows = compute_scan([4.0, 2.0], 1.0, 2.0, [2.0, 0.5], cfg)
        keys = [(r.m, r.delta) for r in rows]
        assert keys == sorted(keys)
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert parse_csv(text) == rows

    @pytest.mark.parametrize("flag", ["maybe", "True"])
    def test_parse_csv_rejects_bad_significant(self, flag):
        row = ",".join(["4"] * 8 + [flag])
        with pytest.raises(ValueError, match="malformed scan CSV row"):
            parse_csv(f"{CSV_HEADER}\n{row}\n")

    def test_cache_state_and_delta_order_invariance(self):
        cfg = RunConfig()
        cache = cache_from_config(cfg)
        a = rows_to_csv(compute_scan([2.0, 4.0], 1.0, 2.0, [0.5, 1.0], cfg,
                                     cache=cache))
        # the same cache, now holding every U value and 1/S node of the scan
        b = rows_to_csv(compute_scan([4.0, 2.0], 1.0, 2.0, [1.0, 0.5], cfg,
                                     cache=cache))
        assert a.encode() == b.encode()

    def test_m2_rows_not_significant(self):
        rows = compute_scan([2.0], 1.0, 2.0, [0.5, 1.0, 2.0, 4.0, 8.0], RunConfig())
        assert len(rows) == 5
        assert not any(r.significant for r in rows)

    def test_svg_has_series_per_m(self):
        rows = compute_scan([2.0, 4.0], 1.0, 2.0, [0.5, 1.0], RunConfig())
        svg = rows_to_svg(rows)
        assert svg.startswith("<svg")
        assert "m = 2" in svg and "m = 4" in svg
        assert svg.count("<polyline") == 2


class TestSvg:
    def test_empty_series_still_valid(self):
        out = polyline_chart([], title="t", xlabel="x", ylabel="y")
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")

    def test_constant_series(self):
        out = polyline_chart([("c", [0.0, 1.0], [2.0, 2.0])])
        assert "<polyline" in out


class TestCliCommands:
    def test_kernel_output(self, capsys):
        rc = main(["kernel", "--m", "2", "--alpha", "1", "--z", "1,0", "--w", "1,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2.7182818284590451" in out
        assert "log|K|" in out

    def test_kernel_usage_error(self, capsys):
        rc = main(["kernel", "--m", "0", "--alpha", "1", "--z", "1,0", "--w", "1,0"])
        assert rc == 2

    def test_kernel_bad_pair_syntax(self):
        with pytest.raises(SystemExit) as ei:
            main(["kernel", "--m", "2", "--alpha", "1", "--z", "nope", "--w", "1,0"])
        assert ei.value.code == 2

    def test_defect_m2_reports_not_significant(self, capsys):
        rc = main(["defect", "--m", "2", "--alpha", "1", "--beta", "2",
                   "--delta", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "significant (kappa = 10): false" in out
        assert "0.39999999999999" in out

    def test_defect_m4_significant_but_exit_zero(self, capsys):
        rc = main(["defect", "--m", "4", "--alpha", "1", "--beta", "2",
                   "--delta", "1"])
        out = capsys.readouterr().out
        assert rc == 0  # the verdict is data, not an error
        assert "significant (kappa = 10): true" in out

    def test_scan_writes_csv_and_svg(self, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        out_svg = tmp_path / "scan.svg"
        rc = main(["scan", "--m", "2", "--alpha", "1", "--beta", "2",
                   "--deltas", "0.5,1", "--out", str(out_csv), "--svg", str(out_svg)])
        assert rc == 0
        text = out_csv.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 3
        assert out_svg.read_text().startswith("<svg")

    def test_scan_empty_grid_header_only(self, tmp_path):
        out_csv = tmp_path / "empty.csv"
        rc = main(["scan", "--m", "2", "--alpha", "1", "--beta", "2",
                   "--deltas", "", "--out", str(out_csv)])
        assert rc == 0
        assert out_csv.read_text() == CSV_HEADER + "\n"

    def test_scan_unwritable_path(self, tmp_path, capsys):
        rc = main(["scan", "--m", "2", "--alpha", "1", "--beta", "2",
                   "--deltas", "1", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 2

    def test_scan_determinism_via_cli(self, tmp_path):
        args = ["scan", "--m", "2,4", "--alpha", "1", "--beta", "2"]
        p1 = tmp_path / "up.csv"
        p2 = tmp_path / "shuffled.csv"
        assert main(args + ["--deltas", "0.5,1,2", "--out", str(p1)]) == 0
        assert main(args + ["--deltas", "2,0.5,1", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_threads_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["scan", "--m", "2", "--alpha", "1", "--beta", "2",
                  "--deltas", "1", "--out", str(tmp_path / "x.csv"),
                  "--threads", "2"])
        assert ei.value.code == 2

    def test_threads_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 4\n")
        rc = main(["scan", "--m", "2", "--alpha", "1", "--beta", "2",
                   "--deltas", "1", "--out", str(tmp_path / "x.csv"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "unknown key 'threads'" in capsys.readouterr().err

    def test_tol_quad_abs_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["defect", "--m", "2", "--alpha", "1", "--beta", "2",
                  "--delta", "1", "--tol-quad-abs", "1e-300"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --tol-quad-abs" in (
            capsys.readouterr().err)

    def test_tol_quad_abs_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol.quad.abs = 1e-300\n")
        rc = main(["defect", "--m", "2", "--alpha", "1", "--beta", "2",
                   "--delta", "1", "--config", str(cfg)])
        assert rc == 2
        assert "unknown key 'tol.quad.abs'" in capsys.readouterr().err

    def test_fd_step_rel_flag_rejected(self, capsys):
        # the derivative check pins its own finite-difference steps
        with pytest.raises(SystemExit) as ei:
            main(["verify", "--fd-step-rel", "1e-3"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --fd-step-rel" in (
            capsys.readouterr().err)

    def test_fd_step_rel_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fd.step_rel = 1e-3\n")
        rc = main(["defect", "--m", "2", "--alpha", "1", "--beta", "2",
                   "--delta", "1", "--config", str(cfg)])
        assert rc == 2
        assert "unknown key 'fd.step_rel'" in capsys.readouterr().err

    def test_moments_output(self, capsys):
        rc = main(["moments", "--m", "2", "--alpha", "1", "--n-max", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,log_s_n"
        assert float(lines[-1].split(",")[1]) == pytest.approx(math.log(120.0))

    def test_moments_negative_nmax(self, capsys):
        rc = main(["moments", "--m", "2", "--alpha", "1", "--n-max", "-1"])
        assert rc == 2

    def test_verify_subset(self, capsys):
        rc = main(["verify", "--only", "moments,quad-oracle"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] moments" in out
        assert "2/2 checks passed" in out

    def test_verify_unknown_check(self, capsys):
        rc = main(["verify", "--only", "no-such-check"])
        assert rc == 2

    def test_asymptotics_command(self, capsys):
        rc = main(["asymptotics", "--m", "4", "--alpha", "1", "--beta-min", "1e3",
                   "--beta-max", "1e5", "--nodes", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        slope0 = float(out.splitlines()[1].split("=")[1].split("(")[0])
        assert slope0 == pytest.approx(-0.5, abs=0.05)

    def test_config_file_flows_through(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("defect.kappa = 1e308\n")
        rc = main(["defect", "--m", "4", "--alpha", "1", "--beta", "2",
                   "--delta", "1", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "significant (kappa = 1e+308): false" in out

    @pytest.mark.parametrize("flag,key", [("--tol-series", "tol.series"),
                                          ("--tol-quad-rel", "tol.quad.rel"),
                                          ("--defect-kappa", "defect.kappa")])
    def test_non_finite_setting_exit_code(self, capsys, flag, key):
        rc = main(["defect", "--m", "4", "--alpha", "1", "--beta", "2",
                   "--delta", "1", flag, "inf"])
        assert rc == 2
        assert (f"config error: {key} must be finite and > 0"
                in capsys.readouterr().err)

    def test_corrupt_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("what is this\n")
        rc = main(["kernel", "--m", "2", "--alpha", "1", "--z", "1,0",
                   "--w", "1,0", "--config", str(cfg)])
        assert rc == 2

    def test_unguaranteed_domain_warning(self, capsys):
        rc = main(["kernel", "--m", "0.2", "--alpha", "1", "--z", "0.5,0",
                   "--w", "0.5,0"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "unguaranteed" in err

    def test_nonconvergence_exit_code(self, capsys):
        # 3 levels, the fewest accepted, leave U(1) unconverged
        rc = main(["defect", "--m", "4", "--alpha", "1", "--beta", "2",
                   "--delta", "1", "--quad-max-levels", "3"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "non-convergence" in err and "n=1)" in err

    def test_too_few_levels_exit_code(self, capsys):
        # below 3 levels no exp-sinh row can converge: the rule first reads
        # at level 3
        rc = main(["defect", "--m", "4", "--alpha", "1", "--beta", "2",
                   "--delta", "1", "--quad-max-levels", "2"])
        assert rc == 2
        assert "quad.max_levels must be >= 3" in capsys.readouterr().err

    def test_nonconvergence_with_overflowing_partial(self, capsys):
        # an unconverged U(n) whose partial value overflows still exits 3:
        # at 5 levels the series reaches U(53), which has not converged
        # (its block, short of the closed form, takes the quadrature)
        rc = main(["defect", "--m", "0.5", "--alpha", "1", "--beta", "0.01",
                   "--delta", "0.004", "--quad-max-levels", "5"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "non-convergence" in err and "n=53)" in err

    def test_kernel_log_scale_output(self, capsys):
        # value overflows linear doubles; the log form stays exact
        rc = main(["kernel", "--m", "2", "--alpha", "10", "--z", "100,0",
                   "--w", "1,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "log|K| = 1000" in out
        assert "inf" in out


def _readme_block(heading):
    """The lines of the first fenced block after a README heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text[text.index(heading + "\n"):]
    return after.split("```\n", 2)[1].splitlines()


class TestReadme:
    def test_command_lines_parse(self):
        commands, line = [], ""
        for raw in _readme_block("## Command line"):
            line += raw
            if line.endswith("\\"):   # continued on the next line
                line = line[:-1]
                continue
            commands.append(shlex.split(line, comments=True))
            line = ""
        assert len(commands) == 7
        parser = build_parser()
        for argv in commands:
            assert argv[0] == "fockberezin"
            parser.parse_args(argv[1:])

    def test_config_block_parses(self, tmp_path):
        path = tmp_path / "readme.cfg"
        path.write_text("\n".join(_readme_block("### Config file")) + "\n")
        values = parse_config_file(path)
        assert build_config(path) == RunConfig()
        assert len(values) == len(fields(RunConfig))
