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

    def test_bad_count(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--count", "0"]) == 1

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
        "line", ["retention = informal-head", "include_warmup_in_basic = false", "clamp_nonnegative = true", "n3 = 0"]
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
    def test_reaggregates_metrics(self, tmp_path, capsys):
        data = make_data(tmp_path)
        assert main(self.args_for_run(tmp_path, data)) == 0
        capsys.readouterr()
        out2 = tmp_path / "re"
        code = main(
            ["report", "--metrics", str(tmp_path / "out" / "metrics.csv"), "--out", str(out2)]
        )
        assert code == 0
        assert "re-aggregated 10 rows" in capsys.readouterr().out
        # only what metrics.csv determines: no wisdom, timing, calibration or failure count
        assert sorted(p.name for p in out2.iterdir()) == ["metrics.csv", "rankings.csv", "summary.json"]
        summary = json.loads((out2 / "summary.json").read_text())
        assert sorted(summary) == ["average_ranks", "schemes"]
        for name in ("metrics.csv", "rankings.csv"):
            assert (out2 / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    def args_for_run(self, tmp_path, data):
        return [
            "run",
            "--config", str(small_partition_config(tmp_path)),
            "--input", str(data),
            "--out", str(tmp_path / "out"),
            "--schemes", "basic-linear,basic-quantile",
        ]

    def test_missing_metrics_file(self, tmp_path, capsys):
        assert main(["report", "--metrics", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 1

    def test_header_only_metrics(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        path.write_text("catchment,scheme,alpha,coverage,width,score,crossings,seconds\n")
        assert main(["report", "--metrics", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "row", ["c1,1,0.05,0.9,1.0,2.0,0", "c1,1,0.05,0.9,1.0,nan,0,1.5"], ids=["truncated", "nan-score"]
    )
    def test_malformed_metrics_rejected_before_writing(self, tmp_path, capsys, row):
        path = tmp_path / "metrics.csv"
        path.write_text(
            "catchment,scheme,alpha,coverage,width,score,crossings,seconds\n"
            f"c0,1,0.05,0.9,1.0,2.0,0,1.5\n{row}\n"
        )
        out = tmp_path / "re"
        assert main(["report", "--metrics", str(path), "--out", str(out)]) == 1
        assert "cannot read metrics" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_cell_named_by_its_line(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        path.write_text("catchment,scheme,alpha,coverage,width,score,crossings,seconds\nc0,1,0.05,0.9,abc,2.0,0,1.5\n")
        out = tmp_path / "re"
        assert main(["report", "--metrics", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cannot read metrics" in err and "metrics.csv:2: could not convert string to float: 'abc'" in err
        assert not out.exists()


class TestArgumentHandling:
    def test_missing_verb(self, capsys):
        assert main([]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out

    def test_unknown_verb(self, capsys):
        assert main(["frob"]) == 1
