"""Command-line entry points and exit codes (0 ok, 1 bad config, 2 no data)."""

import datetime as dt
import json

import pytest

from dataclasses import fields

from ensflow.cli import _RUN_FLAGS, _build_parser, main
from ensflow.experiment import ExperimentConfig, SyntheticSpec, generate_synthetic, save_config


def make_data(tmp_path, ids=("c1",), months=60):
    data = tmp_path / "data"
    for i, cid in enumerate(ids):
        generate_synthetic(SyntheticSpec(n_months=months, seed=40 + i), data, cid)
    return data


class TestSynth:
    def test_writes_numbered_catchments(self, tmp_path, capsys):
        out = tmp_path / "synthetic"
        code = main(["synth", "--out", str(out), "--count", "2", "--months", "24"])
        assert code == 0
        assert (out / "synth000.csv").exists() and (out / "synth001.csv").exists()
        meta = json.loads((out / "synth001.meta.json").read_text())
        assert meta["seed"] == 1 and meta["n_months"] == 24
        assert "synth000" in capsys.readouterr().out

    def test_flags_not_given_keep_the_spec_defaults(self, tmp_path):
        out, expected = tmp_path / "cli", tmp_path / "spec"
        assert main(["synth", "--out", str(out), "--count", "2", "--months", "24"]) == 0
        for i in range(2):
            generate_synthetic(SyntheticSpec(n_months=24, seed=i), expected, f"synth{i:03d}")
        written = sorted(path.name for path in out.iterdir())
        assert written == sorted(path.name for path in expected.iterdir()) and len(written) == 4
        for name in written:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_bad_count(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--count", "0"]) == 1

    def test_bad_months_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "synthetic"
        assert main(["synth", "--out", str(out), "--months", "0"]) == 1
        assert "synth000: n_months must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_spec_refused_before_writing(self, tmp_path, capsys):
        # theta2 = 1e300 overflows the routing store: the flows would read inf and nan
        out = tmp_path / "synthetic"
        assert main(["synth", "--out", str(out), "--count", "1", "--months", "24", "--theta2", "1e300"]) == 1
        assert "synth000: streamflow is not finite in month 1 (1950-01), the first of 24" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_spec_refused(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--theta1", "-1"]) == 1
        assert "theta1 must be > 0" in capsys.readouterr().err

    def test_non_finite_parameter_named_before_writing(self, tmp_path, capsys):
        out = tmp_path / "synthetic"
        assert main(["synth", "--out", str(out), "--theta1", "nan"]) == 1
        assert "synth000: theta1 must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    def test_valid_directory(self, tmp_path, capsys):
        data = make_data(tmp_path, ("c1", "c2"))
        assert main(["ingest", "--input", str(data)]) == 0
        out = capsys.readouterr().out
        assert "2/2 catchments valid" in out
        assert "60 months" in out

    def test_rejects_broken_file_but_continues(self, tmp_path, capsys):
        data = make_data(tmp_path)
        (data / "bad.csv").write_text("nonsense\n")
        assert main(["ingest", "--input", str(data)]) == 0
        out = capsys.readouterr().out
        assert "bad: REJECTED" in out and "1/2 catchments valid" in out

    def test_explicit_subset(self, tmp_path, capsys):
        data = make_data(tmp_path, ("c1", "c2"))
        assert main(["ingest", "--input", str(data), "--catchments", "c2"]) == 0
        assert "1/1 catchments valid" in capsys.readouterr().out

    def test_id_list_read_like_the_config_file(self, tmp_path, capsys):
        # blanks around an id are dropped, as in `catchments = c1, c2`
        data = make_data(tmp_path, ("c1", "c2"))
        assert main(["ingest", "--input", str(data), "--catchments", " c1 , c2,"]) == 0
        assert "2/2 catchments valid" in capsys.readouterr().out
        assert main(["ingest", "--input", str(data), "--catchments", "c1,c1"]) == 1
        assert "catchments lists 'c1' twice" in capsys.readouterr().err

    def test_id_outside_the_directory_refused(self, tmp_path, capsys):
        # ../x would read the x.csv beside the directory: refused before any file is read
        data = make_data(tmp_path, ("c1",))
        (tmp_path / "x.csv").write_bytes((data / "c1.csv").read_bytes())
        assert main(["ingest", "--input", str(data), "--catchments", "../x"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("configuration error: catchments: id '../x' is")

    def test_a_directory_named_out_is_read(self, tmp_path, capsys):
        # ingest writes nothing, so its directory may be a run's default output directory
        generate_synthetic(SyntheticSpec(n_months=60, seed=40), tmp_path / "out", "c1")
        assert main(["ingest", "--input", str(tmp_path / "out")]) == 0
        assert "1/1 catchments valid" in capsys.readouterr().out

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["ingest", "--input", str(tmp_path / "absent")]) == 1

    def test_empty_directory(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["ingest", "--input", str(tmp_path / "empty")]) == 2

    def test_overflowing_month_rejected(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        rows = [f"{dt.date(1990, 1, 1) + dt.timedelta(days=d)},1.0,1.0,1.0" for d in range(365)]
        rows[3] = rows[3].replace(",1.0,1.0,1.0", ",1e308,1.0,1.0")
        rows[4] = rows[4].replace(",1.0,1.0,1.0", ",1e308,1.0,1.0")
        (data / "huge.csv").write_text("date,precip_mm,pet_mm,flow_mm\n" + "\n".join(rows) + "\n")
        assert main(["ingest", "--input", str(data)]) == 2
        assert "huge: REJECTED" in capsys.readouterr().out

    def test_unparsable_date_rejected_with_its_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "c1.csv").write_text("date,precip_mm,pet_mm,flow_mm\n1990-12-31,1,1,1\n1990-13-01,1,1,1\n")
        assert main(["ingest", "--input", str(data)]) == 2
        out = capsys.readouterr().out
        assert "c1: REJECTED" in out and "c1.csv:3: month must be in 1..12" in out


def small_partition_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    save_config(ExperimentConfig(warmup=12, n1=24, n2=12), cfg)
    return cfg


class TestRun:
    def run_args(self, tmp_path, data):
        return [
            "run",
            "--config", str(small_partition_config(tmp_path)),
            "--input", str(data),
            "--out", str(tmp_path / "out"),
            "--schemes", "basic-linear,basic-quantile",
        ]

    def test_basic_run(self, tmp_path, capsys):
        data = make_data(tmp_path)
        assert main(self.run_args(tmp_path, data)) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert "scored 1 catchments" in capsys.readouterr().out

    def test_overrides_beat_config_file(self, tmp_path, capsys):
        # config file asks for every scheme; the flag narrows it to one
        data = make_data(tmp_path)
        args = self.run_args(tmp_path, data)
        args[args.index("basic-linear,basic-quantile")] = "basic-linear"
        assert main(args) == 0
        metrics = (tmp_path / "out" / "metrics.csv").read_text()
        assert "basic-quantile" not in metrics

    def test_unreadable_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_probability_key_rejected_before_any_catchment(self, tmp_path, capsys):
        args = self.run_args(tmp_path, make_data(tmp_path))
        args[args.index("basic-linear,basic-quantile")] = "basic-linear"
        cfg = tmp_path / "exp.cfg"  # written by run_args
        cfg.write_text(cfg.read_text() + "probabilities = 0.1, 0.9\n")
        assert main(args) == 1
        assert "unknown key 'probabilities'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "retention = informal-head", "include_warmup_in_basic = false", "clamp_nonnegative = true", "n3 = 0",
            # the paper's sampler design, fixed in calibrate
            "n_chains = 3", "psrf_threshold = 1.1", "theta1_min = 1.0", "theta1_max = 3000.0", "theta2_min = 0.2",
            "theta2_max = 5.0",
        ],
    )
    def test_removed_switch_rejected_before_any_catchment(self, tmp_path, capsys, line):
        args = self.run_args(tmp_path, make_data(tmp_path))
        cfg = tmp_path / "exp.cfg"  # written by run_args
        text = cfg.read_text()
        cfg.write_text(text + line + "\n")
        assert main(args) == 1
        key = line.split(" = ")[0]
        assert f"line {len(text.splitlines()) + 1}: unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected_before_any_catchment(self, tmp_path, capsys):
        args = self.run_args(tmp_path, make_data(tmp_path)) + ["--seed", "-1"]
        assert main(args) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_that_is_the_input_dir_rejected(self, tmp_path, capsys):
        # run twice, the second run would read the first one's reports as catchments
        data = make_data(tmp_path)
        args = self.run_args(tmp_path, data)
        args[args.index(str(tmp_path / "out"))] = str(data)
        assert main(args) == 1
        assert "configuration error: output_dir" in capsys.readouterr().err
        assert sorted(path.name for path in data.iterdir()) == ["c1.csv", "c1.meta.json"]

    def test_output_dir_that_is_a_file_rejected(self, tmp_path, capsys):
        data = make_data(tmp_path)
        (tmp_path / "out").write_text("kept\n")
        assert main(self.run_args(tmp_path, data)) == 1
        assert "configuration error: output_dir" in capsys.readouterr().err
        assert (tmp_path / "out").read_text() == "kept\n"

    def test_repeated_scheme_rejected(self, tmp_path, capsys):
        (tmp_path / "none").mkdir()
        assert main(["run", "--schemes", "1,1", "--input", str(tmp_path / "none")]) == 1
        assert "schemes lists '1' twice" in capsys.readouterr().err

    def test_unknown_scheme_rejected(self, tmp_path, capsys):
        data = make_data(tmp_path)
        args = self.run_args(tmp_path, data)
        args[args.index("basic-linear,basic-quantile")] = "basic-linear,42"
        assert main(args) == 1

    def test_no_input_files(self, tmp_path, capsys):
        (tmp_path / "none").mkdir()
        args = self.run_args(tmp_path, tmp_path / "none")
        assert main(args) == 2
        assert "no catchment files" in capsys.readouterr().err

    def test_flag_fixes_a_file_value(self, tmp_path, capsys):
        # m = 700 alone exceeds 3 chains x 200 retained states; --retain 300 makes room
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 700\n")
        (tmp_path / "none").mkdir()
        assert main(["run", "--config", str(cfg), "--retain", "300", "--input", str(tmp_path / "none")]) == 2
        assert "no catchment files" in capsys.readouterr().err

    def test_every_flag_problem_named(self, tmp_path, capsys):
        (tmp_path / "none").mkdir()
        assert main(["run", "--m", "0", "--workers", "0", "--input", str(tmp_path / "none")]) == 1
        err = capsys.readouterr().err
        assert "m must be >= 1" in err and "workers must be >= 1" in err

    def test_empty_scheme_list_named(self, tmp_path, capsys):
        (tmp_path / "none").mkdir()
        assert main(["run", "--schemes", ",", "--input", str(tmp_path / "none")]) == 1
        assert "schemes must name at least one scheme" in capsys.readouterr().err

    def test_flag_table_matches_parser_and_config(self):
        keys = {f.name for f in fields(ExperimentConfig)}
        assert set(_RUN_FLAGS.values()) <= keys
        options = set(vars(_build_parser().parse_args(["run"]))) - {"verb", "config"}
        assert set(_RUN_FLAGS) == options

    def test_skips_are_reported_on_stderr(self, tmp_path, capsys):
        data = make_data(tmp_path)
        (data / "broken.csv").write_text("x\n")
        assert main(self.run_args(tmp_path, data)) == 0
        assert "skipped broken at ingest" in capsys.readouterr().err


class TestReport:
    HEADER = "catchment,scheme,alpha,coverage,width,score,crossings,seconds\n"

    def args_for_run(self, tmp_path, data):
        return [
            "run",
            "--config", str(small_partition_config(tmp_path)),
            "--input", str(data),
            "--out", str(tmp_path / "out"),
            "--schemes", "basic-linear,basic-quantile",
        ]

    def run_dir(self, tmp_path, capsys):
        data = make_data(tmp_path)
        assert main(self.args_for_run(tmp_path, data)) == 0
        capsys.readouterr()
        return tmp_path / "out"

    def test_rewrites_every_file_byte_for_byte(self, tmp_path, capsys):
        out = self.run_dir(tmp_path, capsys)
        again = tmp_path / "again"
        assert main(["report", "--run", str(out), "--out", str(again)]) == 0
        assert "rewrote 10 metric rows" in capsys.readouterr().out
        assert sorted(p.name for p in again.iterdir()) == sorted(p.name for p in out.iterdir())  # no failures.csv
        assert len(list(again.iterdir())) == 5
        for path in out.iterdir():
            assert (again / path.name).read_bytes() == path.read_bytes(), path.name

    def test_out_that_is_a_file_refused_without_a_traceback(self, tmp_path, capsys):
        out = self.run_dir(tmp_path, capsys)
        (tmp_path / "file").write_text("kept\n")
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "file")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write run: ") and str(tmp_path / "file") in err and "Traceback" not in err
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_missing_run_directory(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path / "nope"), "--out", str(tmp_path / "re")]) == 1
        assert "cannot read run: " in capsys.readouterr().err
        assert not (tmp_path / "re").exists()

    def test_run_without_metric_rows(self, tmp_path, capsys):
        # every catchment failed: the run and its rewrite both exit 2
        data = make_data(tmp_path)
        (data / "c1.csv").write_text("date,precip_mm,pet_mm,flow_mm\n")
        assert main(self.args_for_run(tmp_path, data)) == 2
        assert (tmp_path / "out" / "metrics.csv").read_text() == self.HEADER  # no rows
        assert main(["report", "--run", str(tmp_path / "out"), "--out", str(tmp_path / "re")]) == 2
        assert (tmp_path / "re" / "failures.csv").read_bytes() == (tmp_path / "out" / "failures.csv").read_bytes()

    @pytest.mark.parametrize(
        "row", ["c1,1,0.05,0.9,1.0,2.0,0", "c1,1,0.05,0.9,1.0,nan,0,1.5"], ids=["truncated", "nan-score"]
    )
    def test_malformed_metrics_rejected_before_writing(self, tmp_path, capsys, row):
        out = self.run_dir(tmp_path, capsys)
        (out / "metrics.csv").write_text(f"{self.HEADER}c0,1,0.05,0.9,1.0,2.0,0,1.5\n{row}\n")
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "re")]) == 1
        assert "cannot read run" in capsys.readouterr().err
        assert not (tmp_path / "re").exists()

    def test_unparsable_cell_named_by_its_line(self, tmp_path, capsys):
        out = self.run_dir(tmp_path, capsys)
        (out / "metrics.csv").write_text(f"{self.HEADER}c0,1,0.05,0.9,abc,2.0,0,1.5\n")
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "re")]) == 1
        err = capsys.readouterr().err
        assert "cannot read run" in err and "metrics.csv:2: could not convert string to float: 'abc'" in err
        assert not (tmp_path / "re").exists()

    def test_repeated_cell_named_by_its_line(self, tmp_path, capsys):
        # unchecked, a repeat reads as a second catchment: n_catchments 2 and score_mean 2.5 for the one cell
        out = self.run_dir(tmp_path, capsys)
        rows = "c,1,0.05,0.9,1.0,2.0,0,1.5\nc,1,0.1,0.9,1.0,2.0,0,1.5\nc,1,0.050,0.9,1.0,3.0,0,1.5\n"
        (out / "metrics.csv").write_text(self.HEADER + rows)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "re")]) == 1
        err = capsys.readouterr().err
        assert "cannot read run" in err
        assert "metrics.csv:4: repeated (catchment, scheme, alpha) cell c,1,0.050" in err
        assert not (tmp_path / "re").exists()

    def test_bad_summary_refused_without_a_traceback(self, tmp_path, capsys):
        out = self.run_dir(tmp_path, capsys)
        summary = json.loads((out / "summary.json").read_text())
        del summary["failures"]
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "re")]) == 1
        err = capsys.readouterr().err
        assert err == f"cannot read run: {out / 'summary.json'}: failures not what the other files give\n"
        assert "Traceback" not in err and not (tmp_path / "re").exists()


class TestArgumentHandling:
    def test_missing_verb(self, capsys):
        assert main([]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out

    def test_unknown_verb(self, capsys):
        assert main(["frob"]) == 1
