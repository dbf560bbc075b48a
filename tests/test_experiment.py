"""Configuration files, synthetic catchments and end-to-end batch runs."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensflow import ensemble, experiment, gr2m
from ensflow.calibrate import PosteriorSample
from ensflow.evaluate import MetricsRecord, WisdomRecord
from ensflow.experiment import (
    CalibrationRecord,
    CatchmentFailure,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SyntheticSpec,
    WisdomRow,
    _catchment_seed,
    discover_catchments,
    generate_synthetic,
    load_config,
    run_experiment,
    save_config,
    synthesize_monthly,
)
from ensflow.gr2m import simulate_flow
from ensflow.regress import SOLVER, load_solver
from ensflow.timeseries import load_catchment, partition


class TestConfigFile:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("")
        assert load_config(path) == ExperimentConfig()

    def test_save_load_round_trip(self, tmp_path):
        # a value for every field, none of them the default; a new field
        # fails the lookup below until it is given one here
        changed = dict(
            input_dir="data",
            output_dir="results",
            catchments=("b", "a"),
            warmup=6,
            n1=24,
            n2=12,
            schemes=("1", "basic-linear"),
            m=90,
            n_iterations=300,
            retain_per_chain=50,
            max_restarts=3,
            seed=7,
            workers=2,
        )
        config = ExperimentConfig(**{f.name: changed[f.name] for f in fields(ExperimentConfig)})
        defaults = ExperimentConfig()
        assert all(getattr(config, f.name) != getattr(defaults, f.name) for f in fields(config))
        path = tmp_path / "exp.cfg"
        save_config(config, path)
        assert load_config(path) == config

    def test_probability_set_is_not_a_key(self, tmp_path):
        # the probabilities are the bounds of the scored intervals, not a setting
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 7\nprobabilities = 0.1, 0.9\n")
        with pytest.raises(ConfigError, match="line 2: unknown key 'probabilities'"):
            load_config(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        # a comment is a line whose first non-blank character is '#'
        path = tmp_path / "exp.cfg"
        path.write_text("# header\n\n   # indented note\nseed = 7\n")
        assert load_config(path).seed == 7

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        config = ExperimentConfig(output_dir="/data/run#2", input_dir="#")
        save_config(config, tmp_path / "exp.cfg")
        assert load_config(tmp_path / "exp.cfg") == config

    @pytest.mark.parametrize(
        "changed",
        [
            {"output_dir": " out"}, {"input_dir": "data\n"}, {"input_dir": "a\nb"},
            {"catchments": ("a,b",)}, {"catchments": ("",)},
        ],
        ids=["leading-blank", "trailing-newline", "newline", "comma-in-id", "empty-id"],
    )
    def test_save_refuses_a_value_it_cannot_write_back(self, tmp_path, changed):
        with pytest.raises(ConfigError, match=next(iter(changed))):
            save_config(ExperimentConfig(**changed), tmp_path / "exp.cfg")
        assert not (tmp_path / "exp.cfg").exists()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        text=st.text(st.characters(blacklist_categories=("Cs",))),
        ids=st.lists(st.text(st.characters(blacklist_categories=("Cs",))), max_size=3, unique=True),
    )
    def test_saved_config_reads_back_equal_or_is_refused(self, text, ids):
        config = ExperimentConfig(output_dir=text, catchments=tuple(ids))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "exp.cfg"
            try:
                save_config(config, path)
            except ConfigError:
                return
            assert load_config(path) == config

    def test_every_problem_reported_at_once(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("frobnicate = 3\nwarmup\nm = zero\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        message = str(excinfo.value)
        assert "line 1" in message and "unknown key" in message
        assert "line 2" in message and "key = value" in message
        assert "line 3" in message

    def test_semantic_validation_after_parse(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("m = 0\n")
        with pytest.raises(ConfigError, match="m must be >= 1"):
            load_config(path)

    def test_validate_collects_multiple_problems(self):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(warmup=-1, m=0, schemes=("9", "basic-linear"))
        problems = str(excinfo.value).split("; ")
        assert len(problems) >= 3
        assert any("warmup" in p for p in problems)
        assert any("unknown scheme" in p for p in problems)
        assert any("m must be >= 1" in p for p in problems)
        # chain settings are checked by their constructor, which still
        # reports every problem and names the keys to edit
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(n_iterations=18, retain_per_chain=10, max_restarts=-1)
        text = str(excinfo.value)
        for expected in ("n_iterations must be >= 19", "max_restarts must be >= 0"):
            assert expected in text, expected

    def test_m_capped_by_retained_pairs(self):
        with pytest.raises(ConfigError, match="exceeds retained pairs"):
            ExperimentConfig(schemes=("5",), m=601)
        # basic-only runs never draw parameter pairs, so the cap does not apply
        assert ExperimentConfig(schemes=("basic-linear",), m=601).m == 601

    def test_sampler_design_keys_are_unknown(self, tmp_path):
        # the prior box, the chain count and the PSRF threshold are the paper's design, not settings
        keys = ("n_chains", "psrf_threshold", "theta1_min", "theta1_max", "theta2_min", "theta2_max")
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 7\n" + "".join(f"{key} = 2\n" for key in keys))
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value).split("; ") == [f"line {i}: unknown key {key!r}" for i, key in enumerate(keys, 2)]

    def test_removed_switches_are_unknown_keys(self, tmp_path):
        # retention, basic warm-up and clamping are fixed behaviour, not settings
        path = tmp_path / "exp.cfg"
        path.write_text(
            "seed = 7\nretention = bayesian-tail\ninclude_warmup_in_basic = true\nclamp_nonnegative = false\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value).split("; ") == [
            "line 2: unknown key 'retention'",
            "line 3: unknown key 'include_warmup_in_basic'",
            "line 4: unknown key 'clamp_nonnegative'",
        ]

    def test_test_period_is_not_a_key(self, tmp_path):
        # the test period is whatever each series leaves after warmup, n1 and n2
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 7\nn3 = 0\n")
        with pytest.raises(ConfigError, match="^line 2: unknown key 'n3'$"):
            load_config(path)

    def test_key_given_twice_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("m = 10\nseed = 1\n\nm = 20\n")
        with pytest.raises(ConfigError, match="^line 4: key 'm' already set on line 1$"):
            load_config(path)

    def test_bad_value_names_its_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 1\nm = zero\nmax_restarts = 1.5\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value).split("; ") == [
            "line 2: m: invalid literal for int() with base 10: 'zero'",
            "line 3: max_restarts: invalid literal for int() with base 10: '1.5'",
        ]

    def test_values_that_break_every_catchment_rejected(self):
        # numpy seeds must be non-negative
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            ExperimentConfig(seed=-1)

    def test_readme_names_every_key(self):
        # the README paragraph that lists the config keys, up to the next blank line
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = next(p for p in readme.split("\n\n") if "Keys mirror `ExperimentConfig`" in p)
        assert [f.name for f in fields(ExperimentConfig) if f"`{f.name}`" not in paragraph] == []
        removed = (
            "n3", "retention", "include_warmup_in_basic", "clamp_nonnegative", "probabilities",
            "n_chains", "psrf_threshold", "theta1_min", "theta1_max", "theta2_min", "theta2_max",
        )
        assert [key for key in removed if f"`{key}`" in paragraph] == []

    @pytest.mark.parametrize("name", ["catchments", "schemes"])
    def test_repeated_id_rejected(self, name):
        # a repeated id would be scored twice by one worker and once by a pool
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(**{name: ("1", "2", "1", "3", "3", "3")})
        assert str(excinfo.value).split("; ") == [f"{name} lists '1' twice", f"{name} lists '3' 3 times"]

    def test_empty_scheme_list_rejected(self):
        # a run with no scheme would score nothing and say nothing about why
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(schemes=())
        assert str(excinfo.value).split("; ") == ["schemes must name at least one scheme"]

    def test_overrides_applied_before_the_check(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("m = 700\n")
        with pytest.raises(ConfigError, match="exceeds retained pairs"):
            load_config(path)
        assert load_config(path, retain_per_chain=300).m == 700


class TestSyntheticCatchments:
    def test_zero_noise_reproduces_model_flow(self):
        spec = SyntheticSpec(
            n_months=48, forcing_noise=0.0, flow_noise_ratio=0.0, flow_noise_floor=0.0
        )
        series, truth = synthesize_monthly(spec)
        np.testing.assert_array_equal(series.streamflow, truth)
        direct = simulate_flow(spec.theta1, spec.theta2, series.precipitation, series.potential_evaporation, 0, 48)
        np.testing.assert_allclose(truth, direct, rtol=1e-12)

    def test_deterministic_in_seed(self):
        a, _ = synthesize_monthly(SyntheticSpec(n_months=36, seed=5))
        b, _ = synthesize_monthly(SyntheticSpec(n_months=36, seed=5))
        c, _ = synthesize_monthly(SyntheticSpec(n_months=36, seed=6))
        np.testing.assert_array_equal(a.streamflow, b.streamflow)
        assert not np.array_equal(a.streamflow, c.streamflow)

    def test_forcing_noise_preserves_mean_level(self):
        spec = SyntheticSpec(
            n_months=6000, precip_amplitude=0.0, pet_amplitude=0.0, forcing_noise=0.3
        )
        series, _ = synthesize_monthly(spec)
        assert abs(np.mean(series.precipitation) / spec.precip_mean - 1.0) < 0.02
        assert abs(np.mean(series.potential_evaporation) / spec.pet_mean - 1.0) < 0.02

    def test_noise_scale_matches_recipe(self):
        # standardised residuals should have unit spread
        spec = SyntheticSpec(n_months=2400, seed=3)
        series, truth = synthesize_monthly(spec)
        sd = spec.flow_noise_ratio * truth + spec.flow_noise_floor
        z = (series.streamflow - truth) / sd
        assert abs(np.std(z) - 1.0) < 0.05

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_months"):
            SyntheticSpec(n_months=0)
        with pytest.raises(ValueError, match="theta1"):
            SyntheticSpec(theta1=0.0)
        with pytest.raises(ValueError, match="precip_amplitude"):
            SyntheticSpec(precip_amplitude=1.0)
        with pytest.raises(ValueError, match="noise settings"):
            SyntheticSpec(flow_noise_ratio=-0.1)

    @pytest.mark.parametrize("name", [f.name for f in fields(SyntheticSpec) if f.type == "float"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            SyntheticSpec(**{name: value})

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        years=st.integers(1, 3),
        start_year=st.integers(1896, 2004),  # the 1900 and 2000 Februaries included
        theta1=st.floats(50.0, 2000.0),
        theta2=st.floats(0.0, 2.0),
    )
    def test_ingest_gives_each_month_within_one_ulp(self, seed, years, start_year, theta1, theta2):
        spec = SyntheticSpec(theta1=theta1, theta2=theta2, n_months=12 * years, seed=seed, start_year=start_year)
        series, _ = synthesize_monthly(spec)
        with tempfile.TemporaryDirectory() as scratch:
            loaded = load_catchment(generate_synthetic(spec, scratch, "c")[0])
        assert (loaded.n, loaded.origin) == (series.n, series.origin)
        for name in ("precipitation", "potential_evaporation", "streamflow"):
            total, read = getattr(series, name), getattr(loaded, name)
            assert np.all(np.abs(read - total) <= np.spacing(total)), name

    def test_written_catchment_round_trips_monthly_totals(self, tmp_path):
        # whole years, since ingestion trims the span to full calendar years
        spec = SyntheticSpec(n_months=24, seed=11)
        csv_path, meta_path = generate_synthetic(spec, tmp_path, "demo")
        series, truth = synthesize_monthly(spec)
        loaded = load_catchment(csv_path)
        assert loaded.n == 24
        assert loaded.origin == (spec.start_year, 1)
        np.testing.assert_allclose(loaded.precipitation, series.precipitation, rtol=1e-9)
        np.testing.assert_allclose(loaded.streamflow, series.streamflow, rtol=1e-9, atol=1e-12)
        meta = json.loads(meta_path.read_text())
        assert meta["theta1"] == spec.theta1
        np.testing.assert_allclose(meta["truth_monthly_flow"], truth, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec, rows, csv_sha, meta_sha",
        [
            pytest.param(
                SyntheticSpec(n_months=24, seed=3, start_year=1899), 730,
                "8f27336f230df8c4e6a1715d42020451c7b4e7a0b0060bf96acbb4808c094040",
                "208657f79af6f8135195bc163a4b4bb0c1d46522dbd359a9b49d434f0ec7ae2d",
                id="non-leap-1900",
            ),
            pytest.param(
                SyntheticSpec(n_months=24, seed=4, start_year=1999), 731,
                "a4deb632bd85860a18ca4dd6d3f597785f7d038d4a39ffea8414628bc1ae4a7c",
                "0d48bdfc3c5f777fddf31cc2fedae2b84a70d26345edce81f4366336c040b652",
                id="leap-2000",
            ),
            pytest.param(
                # theta2 = 0 and no flow noise: every flow is 0.0, and the last day's clamp sees 0.0
                SyntheticSpec(n_months=13, seed=5, theta2=0.0, flow_noise_floor=0.0), 396,
                "981e9b2236e7571bae4d31fd278ed9dfb6540d6fb495777fa625c0157c5b28da",
                "83c0bb78ddd0bafb76c1d54d94e27528d9bd2f2cbef33dee2bd2a819f68145b8",
                id="closed-outlet",
            ),
        ],
    )
    def test_written_files_pinned(self, tmp_path, spec, rows, csv_sha, meta_sha):
        csv_path, meta_path = generate_synthetic(spec, tmp_path, "pinned")
        lines = csv_path.read_bytes().split(b"\r\n")
        assert lines[0] == b"date,precip_mm,pet_mm,flow_mm" and lines[-1] == b"" and len(lines) == rows + 2
        dates = [line.split(b",", 1)[0] for line in lines[1:-1]]
        assert (b"1900-02-29" in dates, b"2000-02-29" in dates) == (False, spec.start_year == 1999)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(meta_path.read_bytes()).hexdigest() == meta_sha


class TestCatchmentSeeds:
    def test_depends_on_id_and_global_seed_only(self):
        assert _catchment_seed(0, "alpha") == _catchment_seed(0, "alpha")
        assert _catchment_seed(0, "alpha") != _catchment_seed(0, "beta")
        assert _catchment_seed(0, "alpha") != _catchment_seed(1, "alpha")

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ids=st.lists(st.text("abcz019_-", min_size=1, max_size=5), min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    def test_seed_does_not_depend_on_the_batch(self, seed, ids, data):
        # every catchment's first scheme fails with the seed it was given, so a
        # run's failures map each catchment to its seed
        series, _ = synthesize_monthly(SyntheticSpec(n_months=60))

        def report_seed(scheme, series, split, config, **kwargs):
            raise LookupError(config.seed)

        def seeds(catchments):
            with tempfile.TemporaryDirectory() as scratch:
                config = small_run_config(Path(scratch), catchments=tuple(catchments), seed=seed)
                with mock.patch.object(experiment, "load_catchment", lambda path: series), \
                        mock.patch.object(experiment, "run_scheme", report_seed):
                    failures = run_experiment(config).failures
            return {f.catchment: f.message for f in failures}

        subset = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        whole = seeds(ids)
        assert whole == {cid: f"LookupError: {_catchment_seed(seed, cid)}" for cid in ids}
        assert seeds(subset) == {cid: whole[cid] for cid in subset}

    def test_discovery(self, tmp_path):
        for name in ("b", "a"):
            generate_synthetic(SyntheticSpec(n_months=14), tmp_path, name)
        config = ExperimentConfig(input_dir=str(tmp_path))
        assert discover_catchments(config) == ["a", "b"]
        explicit = ExperimentConfig(catchments=("z", "y"))
        assert discover_catchments(explicit) == ["y", "z"]


def small_run_config(tmp_path, **kw):
    base = dict(
        input_dir=str(tmp_path / "data"),
        output_dir=str(tmp_path / "out"),
        warmup=12,
        n1=24,
        n2=12,
        schemes=("basic-linear", "basic-quantile"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def write_catchments(tmp_path, ids, months=60):
    data = tmp_path / "data"
    for i, cid in enumerate(ids):
        generate_synthetic(SyntheticSpec(n_months=months, seed=20 + i), data, cid)
    return data


class TestRunExperiment:
    def test_basic_run_writes_all_reports(self, tmp_path):
        write_catchments(tmp_path, ["north", "south"])
        config = small_run_config(tmp_path)
        result = run_experiment(config)
        assert result.exit_code == 0
        assert not result.failures
        # 2 catchments x 2 schemes x 5 interval levels
        assert len(result.records) == 20
        out = tmp_path / "out"
        for name in ("metrics.csv", "summary.json", "rankings.csv", "wisdom.csv", "timing.csv"):
            assert (out / name).exists()
        assert not (out / "failures.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        # basic schemes calibrate nothing, so no catchment has a calibration entry or timing row
        assert summary["calibration"] == {} and result.calibration == {}
        assert summary["failures"] == 0
        assert "calibration" not in (out / "timing.csv").read_text()
        ranking_lines = (out / "rankings.csv").read_text().splitlines()
        # header + 5 levels x 2 catchments x 2 schemes
        assert len(ranking_lines) == 21

    def test_basic_only_summary_is_strict_json(self, tmp_path):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        write_catchments(tmp_path, ["north"])
        run_experiment(small_run_config(tmp_path))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(), parse_constant=reject)
        assert summary["calibration"] == {}
        # degenerate chains leave the PSRF undefined (inf), which strict JSON writes as null
        degenerate = dataclasses.replace(
            hand_built_result(), calibration={"c1": CalibrationRecord(math.inf, False, 2, 1.5)}
        )
        experiment.emit_reports(degenerate, tmp_path / "degenerate")
        summary = json.loads((tmp_path / "degenerate" / "summary.json").read_text(), parse_constant=reject)
        assert summary["calibration"] == {"c1": {"psrf": None, "converged": False, "restarts": 2, "seconds": 1.5}}

    def test_sisters_simulated_once_per_catchment(self, tmp_path, monkeypatch):
        calls = []
        original = ensemble.generate_sisters

        def counting(sample, series, split):
            calls.append(sample.m)
            return original(sample, series, split)

        monkeypatch.setattr(ensemble, "generate_sisters", counting)
        write_catchments(tmp_path, ["north", "south"])
        config = small_run_config(
            tmp_path,
            schemes=("basic-linear", "1", "2", "3"),
            m=40,
            n_iterations=150,
            retain_per_chain=20,
            max_restarts=0,
        )
        result = run_experiment(config)
        assert not result.failures
        assert calls == [40, 40]
        assert len(result.wisdom) == 2 * 3 * 5

    @pytest.mark.parametrize("scheme", ["1", "5"])  # one per-sister and one pooled scheme
    def test_scoring_a_scheme_peaks_below_eight_member_arrays(self, scheme):
        # scoring holds one level's (m, n3) member bounds at a time: the whole
        # (m, n_probs, n3) auxiliary array alone would be ten such arrays
        m, series = 200, synthesize_monthly(SyntheticSpec(n_months=120, seed=12))[0]
        split = partition(120, 6, 6, 6)  # n3 = 102
        rng = np.random.default_rng(11)
        pairs = np.column_stack([400.0 + 25.0 * rng.standard_normal(m), 0.9 + 0.02 * rng.standard_normal(m)])
        sisters = ensemble.build_sisters(PosteriorSample(pairs), series, split, m)
        observed = series.streamflow[split.t3]
        args = ("c", scheme, series, split, ensemble.SchemeConfig(), sisters, observed)
        experiment._score_scheme(*args)  # first calls load the solver and fill numpy's caches
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            experiment._score_scheme(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline < 8 * m * split.n3 * 8

    def test_numbered_levels_take_their_score_from_the_wisdom_record(self, monkeypatch):
        # a numbered level's metrics score is its wisdom record's ais_out, the same function of the same
        # interval and observations, so _score_scheme does not compute it a second time; basic schemes have
        # no wisdom record and call average_interval_score once a level
        m, series = 40, synthesize_monthly(SyntheticSpec(n_months=120, seed=12))[0]
        split = partition(120, 6, 6, 6)
        rng = np.random.default_rng(13)
        pairs = np.column_stack([400.0 + 25.0 * rng.standard_normal(m), 0.9 + 0.02 * rng.standard_normal(m)])
        sisters = ensemble.build_sisters(PosteriorSample(pairs), series, split, m)
        calls = []
        score = experiment.average_interval_score
        monkeypatch.setattr(experiment, "average_interval_score", lambda *args: calls.append(args) or score(*args))
        for scheme, expected_calls in (("1", 0), ("5", 0), ("basic-linear", 5)):
            calls.clear()
            args = ("c", scheme, series, split, ensemble.SchemeConfig(), sisters, series.streamflow[split.t3])
            records, wisdom_rows = experiment._score_scheme(*args)
            assert len(calls) == expected_calls, scheme
            if wisdom_rows:
                assert [r.score for r in records] == [row.record.ais_out for row in wisdom_rows]
                assert [r.alpha for r in records] == [row.record.alpha for row in wisdom_rows]

    def test_rerun_is_reproducible(self, tmp_path):
        write_catchments(tmp_path, ["north"])
        first = run_experiment(small_run_config(tmp_path))
        second = run_experiment(
            small_run_config(tmp_path, output_dir=str(tmp_path / "out2"))
        )
        strip = lambda rs: [
            (r.catchment, r.scheme, r.alpha, r.coverage, r.width, r.score, r.crossings)
            for r in rs
        ]
        assert strip(first.records) == strip(second.records)
        # nothing in rankings depends on wall time, so the files match exactly
        a = (tmp_path / "out" / "rankings.csv").read_bytes()
        b = (tmp_path / "out2" / "rankings.csv").read_bytes()
        assert a == b

    def test_corrupt_catchment_skipped_not_fatal(self, tmp_path):
        data = write_catchments(tmp_path, ["good"])
        (data / "broken.csv").write_text("not,a,valid,header\n1,2,3,4\n")
        result = run_experiment(small_run_config(tmp_path))
        assert result.exit_code == 0
        assert [f.catchment for f in result.failures] == ["broken"]
        assert result.failures[0].stage == "ingest"
        assert {r.catchment for r in result.records} == {"good"}
        failures_csv = (tmp_path / "out" / "failures.csv").read_text()
        assert "broken" in failures_csv

    def test_clean_rerun_removes_the_old_failures_file(self, tmp_path):
        data = write_catchments(tmp_path, ["good"])
        (data / "broken.csv").write_text("not,a,valid,header\n1,2,3,4\n")
        run_experiment(small_run_config(tmp_path))
        assert (tmp_path / "out" / "failures.csv").exists()
        (data / "broken.csv").unlink()
        result = run_experiment(small_run_config(tmp_path))
        assert result.failures == []
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["failures"] == 0
        assert not (tmp_path / "out" / "failures.csv").exists()

    def test_crashing_catchment_does_not_end_the_batch(self, tmp_path, monkeypatch):
        original = experiment.calibrate_catchment

        def crash_on_south(series, split, chain_config):
            if chain_config.seed == _catchment_seed(0, "south"):
                raise ZeroDivisionError("float division by zero")
            return original(series, split, chain_config)

        monkeypatch.setattr(experiment, "calibrate_catchment", crash_on_south)
        write_catchments(tmp_path, ["north", "south", "west"])
        config = small_run_config(
            tmp_path, schemes=("basic-linear", "1"), m=20, n_iterations=100, retain_per_chain=10, max_restarts=0
        )
        result = run_experiment(config)
        assert result.exit_code == 0
        assert [(f.catchment, f.stage) for f in result.failures] == [("south", "calibrate")]
        assert result.failures[0].message == "ZeroDivisionError: float division by zero"
        assert {r.catchment for r in result.records} == {"north", "west"}
        assert set(result.calibration) == {"north", "west"}
        assert "ZeroDivisionError" in (tmp_path / "out" / "failures.csv").read_text()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="pool workers must inherit the patched stage"
    )
    def test_dead_worker_does_not_end_the_batch(self, tmp_path, monkeypatch):
        # "south" kills its worker process, but only once the parent holds
        # north's result, so north must survive the broken pool
        received = tmp_path / "north-received"
        original_load = experiment.load_catchment
        original_outcome = experiment._worker_outcome

        def die_on_south(path):
            if Path(path).stem == "south":
                deadline = time.monotonic() + 30.0
                while not received.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(1)
            return original_load(path)

        def note_north(cid, future):
            outcome = original_outcome(cid, future)
            if cid == "north":
                received.touch()
            return outcome

        monkeypatch.setattr(experiment, "load_catchment", die_on_south)
        monkeypatch.setattr(experiment, "_worker_outcome", note_north)
        write_catchments(tmp_path, ["north", "south"])
        result = run_experiment(small_run_config(tmp_path, schemes=("basic-linear",), workers=2))
        assert result.exit_code == 0
        assert [(f.catchment, f.stage) for f in result.failures] == [("south", "worker")]
        assert result.failures[0].message.startswith("BrokenProcessPool: ")
        assert {r.catchment for r in result.records} == {"north"}
        out = tmp_path / "out"
        for name in ("metrics.csv", "summary.json", "rankings.csv", "wisdom.csv", "timing.csv"):
            assert (out / name).exists()
        failures_csv = (out / "failures.csv").read_text()
        assert "south" in failures_csv and "BrokenProcessPool" in failures_csv

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="pool workers must inherit the patched stage"
    )
    @pytest.mark.parametrize("always", [False, True], ids=["dies-once", "dies-every-time"])
    def test_a_dead_worker_fails_only_its_own_catchment(self, tmp_path, monkeypatch, always):
        # "b" kills its worker on its first attempt, or on every attempt; every
        # other catchment, finished or not when the pool broke, comes back scored
        died = tmp_path / "b-died"
        original_load = experiment.load_catchment

        def die_on_b(path):
            if Path(path).stem == "b" and (always or not died.exists()):
                died.touch()
                os._exit(1)
            return original_load(path)

        monkeypatch.setattr(experiment, "load_catchment", die_on_b)
        ids = ["a", "b", "c", "d", "e"]
        write_catchments(tmp_path, ids)
        result = run_experiment(small_run_config(tmp_path, schemes=("basic-linear",), workers=2))
        assert died.exists() and result.exit_code == 0
        assert [(f.catchment, f.stage) for f in result.failures] == ([("b", "worker")] if always else [])
        scored = [cid for cid in ids if not (always and cid == "b")]
        assert sorted({r.catchment for r in result.records}) == scored
        serial_config = small_run_config(tmp_path, output_dir=str(tmp_path / "serial"), schemes=("basic-linear",))
        serial = run_experiment(dataclasses.replace(serial_config, catchments=tuple(scored)))
        key = lambda r: (r.catchment, r.scheme, r.alpha, r.coverage, r.width, r.score)
        assert [key(r) for r in result.records] == [key(r) for r in serial.records]

    def test_no_usable_catchment_exits_2(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "junk.csv").write_text("garbage\n")
        result = run_experiment(small_run_config(tmp_path))
        assert result.exit_code == 2
        assert result.records == []

    def test_ensemble_scheme_end_to_end(self, tmp_path):
        write_catchments(tmp_path, ["east"])
        config = small_run_config(
            tmp_path,
            schemes=("3",),
            m=100,
            n_iterations=200,
            retain_per_chain=50,
            max_restarts=0,
        )
        result = run_experiment(config)
        assert result.exit_code == 0
        assert len(result.records) == 5
        assert len(result.wisdom) == 5  # one record per interval level
        assert all(row.record.relative_difference >= -1e-12 for row in result.wisdom)
        psrf, converged, restarts, seconds = result.calibration["east"]
        assert np.isfinite(psrf) and restarts == 0 and seconds > 0.0
        assert result.calibration["east"].psrf == psrf
        timing = (tmp_path / "out" / "timing.csv").read_text()
        assert "calibration" in timing
        wisdom_lines = (tmp_path / "out" / "wisdom.csv").read_text().splitlines()
        assert len(wisdom_lines) == 6

    def test_results_do_not_depend_on_batch_composition(self, tmp_path):
        write_catchments(tmp_path, ["pair_a", "pair_b"])
        kw = dict(schemes=("3",), m=60, n_iterations=150, retain_per_chain=30, max_restarts=0)
        both = run_experiment(small_run_config(tmp_path, **kw))
        solo = run_experiment(
            small_run_config(
                tmp_path, output_dir=str(tmp_path / "solo"), catchments=("pair_b",), **kw
            )
        )
        pick = lambda rs: [
            (r.alpha, r.coverage, r.width, r.score)
            for r in rs
            if r.catchment == "pair_b"
        ]
        assert pick(both.records) == pick(solo.records)

    def test_worker_pool_matches_serial(self, tmp_path):
        write_catchments(tmp_path, ["w1", "w2"])
        serial = run_experiment(small_run_config(tmp_path))
        parallel = run_experiment(
            small_run_config(tmp_path, output_dir=str(tmp_path / "out2"), workers=2)
        )
        strip = lambda rs: sorted(
            (r.catchment, r.scheme, r.alpha, r.coverage, r.width, r.score) for r in rs
        )
        assert strip(serial.records) == strip(parallel.records)

    @staticmethod
    def record_pool_sizes(monkeypatch):
        """The ``max_workers`` each pool is asked for; a fork-context pool starts them all at the first submit."""
        asked = []
        real_pool = experiment.ProcessPoolExecutor

        def recording_pool(max_workers):
            asked.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", recording_pool)
        return asked

    def test_no_pool_asks_for_more_workers_than_catchments(self, tmp_path, monkeypatch):
        asked = self.record_pool_sizes(monkeypatch)
        write_catchments(tmp_path, ["w1", "w2"])
        result = run_experiment(small_run_config(tmp_path, schemes=("basic-linear",), workers=6))
        assert not result.failures and len(result.records) == 10
        assert asked == [2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="pool workers must inherit the patched stage"
    )
    def test_a_retry_opens_one_pool_per_retried_catchment(self, tmp_path, monkeypatch):
        # w2 is retried every time; w1 only when w2's death broke the pool before w1 was done
        asked = self.record_pool_sizes(monkeypatch)
        original_load = experiment.load_catchment

        def die_on_w2(path):
            if Path(path).stem == "w2":
                os._exit(1)
            return original_load(path)

        monkeypatch.setattr(experiment, "load_catchment", die_on_w2)
        write_catchments(tmp_path, ["w1", "w2"])
        result = run_experiment(small_run_config(tmp_path, schemes=("basic-linear",), workers=6))
        assert [(f.catchment, f.stage) for f in result.failures] == [("w2", "worker")]
        assert asked in ([2, 1], [2, 1, 1])

    def test_invalid_config_rejected_before_any_work(self, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(small_run_config(tmp_path, workers=0))


class TestCompiledMonthLoop:
    """The compiled month loop and sampler change no report, and no pool worker builds them."""

    # 260 iterations: the sampler adapts its proposal once
    SMALL = dict(schemes=("basic-linear", "1", "4"), m=20, n_iterations=260, retain_per_chain=10, max_restarts=0)

    @staticmethod
    def reports(out: Path):
        metrics = [line.rsplit(",", 1)[0] for line in (out / "metrics.csv").read_text().splitlines()]  # no seconds
        summary = json.loads((out / "summary.json").read_text())
        reports = (metrics, (out / "wisdom.csv").read_bytes(), (out / "rankings.csv").read_bytes())
        return reports, (summary["gr2m_loop"], summary["sampler"])

    def paths_and_reports(self, tmp_path, switch):
        """The (loop, sampler) and reports of a run as loaded, then of a run after ``switch()``."""
        write_catchments(tmp_path, ["c1", "c2"])
        kernel = gr2m.load_kernel()
        loaded = ("python" if kernel is None else "compiled", "compiled" if getattr(kernel, "sampler", None) else "python")
        assert not run_experiment(small_run_config(tmp_path, **self.SMALL)).failures
        switch()
        assert not run_experiment(small_run_config(tmp_path, output_dir=str(tmp_path / "python"), **self.SMALL)).failures
        (compiled, compiled_paths), (python, python_paths) = self.reports(tmp_path / "out"), self.reports(tmp_path / "python")
        assert compiled == python
        return loaded, compiled_paths, python_paths

    def test_reports_equal_without_a_compiler(self, tmp_path, request):
        loaded, compiled, python = self.paths_and_reports(tmp_path, lambda: request.getfixturevalue("no_compiler"))
        assert (compiled, python) == (loaded, ("python", "python"))

    @pytest.mark.parametrize("case", ["no-numpy-random", "no-numpy-blas", "failing-self-check"])
    def test_reports_equal_on_the_python_sampler(self, tmp_path, request, monkeypatch, case):
        def switch():
            source = request.getfixturevalue("empty_cache")
            if case == "no-numpy-random":
                monkeypatch.setattr(gr2m, "NUMPY_RANDOM", source.parent / "libnpyrandom.a")
            elif case == "no-numpy-blas":
                monkeypatch.setattr(gr2m, "NUMPY_BLAS", source.parent / "libscipy_openblas64_*.so")
            else:  # delayed-rejection proposals as wide as first-stage ones
                source.write_text(source.read_text().replace("propose(rng, timid,", "propose(rng, chol,"))

        loaded, compiled, python = self.paths_and_reports(tmp_path, switch)
        assert (compiled, python) == (loaded, (loaded[0], "python"))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers inherit the patched source")
    def test_built_once_before_the_pool_forks(self, tmp_path, monkeypatch, request):
        write_catchments(tmp_path, ["w1", "w2"])  # simulates, so builds the loop before the cache is emptied
        empty_cache = request.getfixturevalue("empty_cache")
        log, real_run = tmp_path / "builds.log", subprocess.run

        def recording_run(args, **kwargs):
            if str(empty_cache) in args:
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return real_run(args, **kwargs)

        monkeypatch.setattr(subprocess, "run", recording_run)
        result = run_experiment(small_run_config(tmp_path, workers=2, **self.SMALL))
        assert not result.failures and set(result.calibration) == {"w1", "w2"}
        assert log.read_text().split() == [str(os.getpid())]  # one attempt, in this process


def highs_modules():
    """The HiGHS extension and the submodules it registers: all of scipy that a run may load."""
    load_solver()
    return sorted(name for name in sys.modules if name == SOLVER or name.startswith(SOLVER + "."))


# run in a fresh interpreter: pytest's own process has long imported scipy
SOLVER_PROBE = """
import json, sys
from concurrent import futures
from ensflow import experiment

def loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

seen = []

class Pool(futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        seen.append(loaded())
        super().__init__(*args, **kwargs)

experiment.ProcessPoolExecutor = Pool
data, schemes, workers = sys.argv[1], tuple(sys.argv[2].split(",")), int(sys.argv[3])
loaded_at_import = loaded()
for i, cid in enumerate(("a", "b")):
    experiment.generate_synthetic(experiment.SyntheticSpec(n_months=60, seed=20 + i), data, cid)
config = experiment.ExperimentConfig(
    input_dir=data, output_dir=data + "/out", warmup=12, n1=24, n2=12, schemes=schemes, m=20,
    n_iterations=100, retain_per_chain=10, max_restarts=0, workers=workers,
)
result = experiment.run_experiment(config)
print(json.dumps([loaded_at_import, seen, loaded(), len(result.failures)]))
"""

# the verbs that never need scipy, in a fresh interpreter
NO_SCIPY_VERBS = """
import json, sys
from ensflow.cli import main
from ensflow.evaluate import MetricsRecord, write_metrics_csv

data = sys.argv[1]
codes = [main(["synth", "--out", data, "--count", "1", "--months", "24"]), main(["ingest", "--input", data])]
write_metrics_csv([MetricsRecord("c1", "1", 0.05, 1.0, 2.0, 3.0, 0, 0.5)], data + "/metrics.csv")
codes.append(main(["report", "--metrics", data + "/metrics.csv", "--out", data + "/again"]))
print(json.dumps([codes, [name for name in sys.modules if name.startswith("scipy")]]))
"""

# load_solver before any scipy import, then scipy.optimize on top: one extension, linprog's coefficients
DIRECT_LOAD_PROBE = """
import json, sys
import numpy as np
from ensflow.regress import RegressionDataset, fit_quantile_set, load_solver

highs = load_solver()
packages = [name for name in ("scipy", "scipy.optimize") if name in sys.modules]
from scipy.optimize import linprog
import scipy.optimize._highspy._core as core

x = np.column_stack([np.ones(12), [0.0, 1.0, 0.0, 2.0, 2.0, 0.0, 3.0, 1.0, 0.0, 2.0, 1.0, 3.0]])
y = np.array([1.0, 2.0, 1.0, 2.0, 2.0, 0.0, 3.0, 2.0, 1.0, 2.0, 2.0, 4.0])
probs = (0.1, 0.25, 0.5, 0.75, 0.9)
fit = fit_quantile_set(RegressionDataset(x, y), probs)
dual = [linprog(-y, A_eq=x.T, b_eq=np.zeros(2), bounds=[(p - 1.0, p)] * 12, method="highs") for p in probs]
same = [np.array_equal(beta, -result.eqlin.marginals) for beta, result in zip(fit, dual)]
print(json.dumps([packages, core is highs is load_solver(), same]))
"""


def fresh_python(code, *args):
    """The last stdout line, read as JSON, of ``code`` run by a new interpreter that imports this ensflow."""
    src = str(Path(experiment.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestSolverLoading:
    """A run loads no scipy package: quantile schemes load HiGHS's extension alone, before the pool forks."""

    def test_package_and_cli_import_without_it(self):
        code = "import json, sys, ensflow, ensflow.cli; print(json.dumps([m for m in sys.modules if 'scipy' in m]))"
        assert fresh_python(code) == []

    def test_synth_ingest_and_report_never_load_scipy(self, tmp_path):
        assert fresh_python(NO_SCIPY_VERBS, str(tmp_path)) == [[0, 0, 0], []]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers inherit the parent's modules")
    def test_loaded_before_the_pool_forks(self, tmp_path):
        schemes = "basic-linear,basic-quantile,1,4"  # psrf, the Gaussian quantile and the LPs all run
        highs = highs_modules()
        assert fresh_python(SOLVER_PROBE, str(tmp_path), schemes, "2") == [[], [highs], highs, 0]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers inherit the parent's modules")
    def test_linear_run_with_a_pool_never_loads_it(self, tmp_path):
        assert fresh_python(SOLVER_PROBE, str(tmp_path), "basic-linear,1,2,3", "2") == [[], [[]], [], 0]

    def test_linear_run_never_loads_it(self, tmp_path):
        assert fresh_python(SOLVER_PROBE, str(tmp_path), "basic-linear,1,2,3", "1") == [[], [], [], 0]

    def test_import_builds_no_month_loop(self):
        code = "import json, ensflow, ensflow.cli; print(json.dumps(ensflow.gr2m.load_kernel.cache_info().currsize))"
        assert fresh_python(code) == 0

    def test_direct_load_is_the_module_scipy_optimize_uses(self):
        assert fresh_python(DIRECT_LOAD_PROBE) == [[], True, [True] * 5]


def hand_built_result():
    """Two catchments x two schemes at one level, two wisdom rows, one failure, one calibration."""
    nan = float("nan")
    records = [
        MetricsRecord("c1", "1", 0.05, 0.9375, 12.5, 17.25, 0, 1.5),
        MetricsRecord("c1", "basic-linear", 0.05, 1.0 / 3.0, 0.1, 20.0, 2, 0.25),
        MetricsRecord("c2", "1", 0.05, 1.0, 3.0, 4.0, 1, 2.0),
        MetricsRecord("c2", "basic-linear", 0.05, 0.5, 2.5, 3.5, 0, 0.125),
    ]
    wisdom = [
        WisdomRow("c1", "1", WisdomRecord(0.05, 17.25, 20.0, 0.125, (0.25, nan, 0.5), (1,))),
        WisdomRow("c2", "1", WisdomRecord(0.2, 4.0, 4.0, 0.0, (nan, nan), (0, 1))),
    ]
    failures = [CatchmentFailure("c3", "ingest", 'ValueError: bad "x", at 2')]
    calibration = {"c1": CalibrationRecord(1.05, True, 0, 2.5)}
    return ExperimentResult(records, wisdom, failures, calibration, exit_code=0)


def crlf(*lines):
    return "".join(line + "\r\n" for line in lines)


class TestReportFiles:
    def test_csv_bytes_pinned(self, tmp_path):
        experiment.emit_reports(hand_built_result(), tmp_path)
        expected = {
            "metrics.csv": crlf(
                "catchment,scheme,alpha,coverage,width,score,crossings,seconds",
                "c1,1,0.05,0.9375,12.5,17.25,0,1.5",
                "c1,basic-linear,0.05,0.3333333333333333,0.1,20.0,2,0.25",
                "c2,1,0.05,1.0,3.0,4.0,1,2.0",
                "c2,basic-linear,0.05,0.5,2.5,3.5,0,0.125",
            ),
            "rankings.csv": crlf(
                "catchment,alpha,scheme,rank",
                "c1,0.05,1,1",
                "c1,0.05,basic-linear,2",
                "c2,0.05,1,2",
                "c2,0.05,basic-linear,1",
            ),
            "wisdom.csv": crlf(
                "catchment,scheme,alpha,ais_out,aais_in,relative_difference,"
                "ri_min,ri_median,ri_max,n_members,n_excluded",
                "c1,1,0.05,17.25,20.0,0.125,0.25,0.375,0.5,3,1",
                "c2,1,0.2,4.0,4.0,0.0,,,,2,2",
            ),
            "timing.csv": crlf(
                "catchment,scheme,seconds",
                "c1,1,1.5",
                "c1,basic-linear,0.25",
                "c2,1,2.0",
                "c2,basic-linear,0.125",
                "c1,calibration,2.5",
            ),
            "failures.csv": crlf(
                "catchment,stage,message",
                'c3,ingest,"ValueError: bad ""x"", at 2"',
            ),
        }
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes().decode() == text, name

    def test_average_ranks_are_json_numbers(self, tmp_path):
        experiment.emit_reports(hand_built_result(), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["average_ranks"] == [
            {"alpha": 0.05, "scheme": "1", "rank": 1.5},
            {"alpha": 0.05, "scheme": "basic-linear", "rank": 1.5},
        ]
