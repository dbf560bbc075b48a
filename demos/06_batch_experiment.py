"""A complete batch experiment, from raw daily files to report tables.

The batch harness walks a directory of daily catchment CSVs, aggregates to
monthly series, calibrates each catchment, runs the configured schemes, and
writes five machine-readable reports. Per-catchment randomness is derived
from the global seed and the catchment id, so adding a catchment never
changes the results of its neighbours.

Everything below also works from the shell:

    ensflow synth --out data --count 3 --months 240
    ensflow run --config exp.cfg --input data --out reports
    ensflow report --run reports --out reports2     # the same files, from the files
"""

import json
import tempfile
from pathlib import Path

from ensflow.experiment import (
    ExperimentConfig,
    SyntheticSpec,
    generate_synthetic,
    run_experiment,
    save_config,
)
from ensflow.reports import read_run

root = Path(tempfile.mkdtemp(prefix="ensflow_demo_"))
data = root / "data"

for i in range(3):
    spec = SyntheticSpec(n_months=240, seed=50 + i)
    csv_path, _ = generate_synthetic(spec, data, f"catchment{i}")
    print(f"wrote {csv_path.name}")

config = ExperimentConfig(
    input_dir=str(data),
    output_dir=str(root / "reports"),
    warmup=12,
    n1=96,
    n2=96,            # leaves 36 test months per catchment
    schemes=("basic-linear", "2", "5"),
    m=60,
    n_iterations=600,
    retain_per_chain=100,
    seed=0,
)
save_config(config, root / "exp.cfg")  # the same settings as a reusable file

result = run_experiment(config)
print(f"\nexit code {result.exit_code}, {len(result.records)} metric rows, "
      f"{len(result.failures)} skipped catchments")

seconds = {cid: value for cid, stage, value in result.timing if stage == "calibrate"}  # each stage timed once
for cid, (psrf_value, converged, restarts) in sorted(result.calibration.items()):
    print(f"  {cid}: PSRF {psrf_value:.3f}, converged={converged}, {seconds[cid]:.1f} s")

summary = json.loads((root / "reports" / "summary.json").read_text())
print("\naverage interval score by scheme (95% level):")
for scheme, stats in summary["schemes"].items():
    print(f"  {scheme:>12}: {stats['95']['score_mean']:8.2f}")

print(f"\nreports in {root / 'reports'}: metrics.csv, summary.json, rankings.csv, wisdom.csv, timing.csv")
# the files are the run: read back, they give the result that wrote them
print(f"read back equal to the returned result: {read_run(root / 'reports') == result}")
