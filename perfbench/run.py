"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
beside this directory.  Set-up (imports in fresh interpreters, input
construction and, for ``figures``, agent training) is repeated and its
median reported as ``setup_s``; then repetitions of the workload run
until ``--seconds`` have passed, and timings are medians over them.  A
short calibration kernel is timed every 50 ms of the set-up and of each
repetition, and its timings scale each stretch of program time to the
speed the kernel has on a reference machine (see ``calibrate``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces the
set-up once, alternates untraced and traced repetitions and prints the
per-layer metrics.  Every output check that fails counts as a failed
operation and makes the command exit with status 1.  The last line of
standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

#: (metric, unit) printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("tune_run_p50_s", "s"),
    ("tune_run_tail_s", "s"),
    ("cold_pass_s", "s"),
    ("warm_pass_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile
    that has at least ten samples beyond it; below 21 samples no
    percentile above the median has, so the median is returned."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return median(ordered), 50.0, n // 2
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def _repeat(run, seconds: float) -> list:
    """Call ``run()`` at least once and until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    results = [run()]
    while time.perf_counter() < deadline:
        results.append(run())
    return results


#: Fresh interpreters that time the imports.
IMPORT_REPEATS = 5

_IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
from perfbench.calibrate import Calibration
with Calibration() as calibration:
    start = calibration.clock()
    from perfbench import layers, workloads
    print(calibration.clock() - start)
"""


def _import_seconds() -> float:
    """Median calibrated time to import the benchmark and the program in
    :data:`IMPORT_REPEATS` fresh interpreters, run one after another.
    NumPy, which the calibration itself needs, is imported first."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(ROOT)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]))
    return median(samples)


def _rep_values(rep) -> dict[str, float]:
    """One repetition's end-to-end timings.  Every repetition makes the
    same calls, so a statistic over calls is taken within a repetition:
    how many repetitions fit in ``seconds`` changes no percentile."""
    return {
        "wall_s": rep.wall_s,
        "evals_per_s": rep.evaluations / rep.wall_s,
        "tune_run_p50_s": median(rep.call_s),
        "tune_run_tail_s": tail(rep.call_s)[0],
        "cold_pass_s": rep.cold_s,
        "warm_pass_s": rep.warm_s,
    }


def _end_to_end(workload, seed: int, seconds: float, work: Path):
    from perfbench.calibrate import Calibration

    # The imports, the set-up and each repetition read calibrated clocks.
    imports = _import_seconds()
    setups, digests, problems = [], set(), []
    with Calibration() as setup_cal:
        for _ in range(workload.setup_repeats):
            start = setup_cal.clock()
            state = workload.setup(seed, work)
            setups.append(setup_cal.clock() - start)
            digests.add(state.get("agents"))
            problems.extend(state.get("problems", []))
    if len(digests) > 1:
        problems.append("set-ups trained different agents")
    attempted = len(setups) if workload.setup_trains else 0

    def calibrated_run():
        start = time.perf_counter()
        with Calibration() as calibration:
            rep = workload.run(state, calibration.clock)
        measured = time.perf_counter() - start - sum(calibration.samples)
        return rep, measured, calibration.slowdown

    runs = _repeat(calibrated_run, seconds)
    reps = [rep for rep, _, _ in runs]
    values = {
        name: median(row[name] for row in map(_rep_values, reps))
        for name in _rep_values(reps[0])
    }
    values["setup_s"] = imports + median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, tail_pct, beyond = tail(reps[0].call_s)
    notes = {
        "setup_s": (
            f"median of {IMPORT_REPEATS} imports + median of"
            f" {len(setups)} set-ups; kernel at {setup_cal.slowdown:.3f}x its reference time"
        ),
        "wall_s": (
            f"median of {len(reps)} repetitions, {median(m for _, m, _ in runs):.4g} s"
            f" measured; kernel at {median(k for _, _, k in runs):.3f}x its reference time"
        ),
        "tune_run_p50_s": f"{len(reps[0].call_s)} calls per repetition",
        "tune_run_tail_s": f"p{tail_pct:.1f}, {beyond} calls beyond, per repetition",
    }
    return reps, values, notes, problems, attempted


def _traced(workload, seed: int, seconds: float, work: Path):
    from perfbench import layers
    from perfbench.tracing import SpanLog

    setup_log = SpanLog()
    probes = layers.install(setup_log)
    try:
        state = workload.setup(seed, work)
    finally:
        probes.remove()
    attempted = 1 if workload.setup_trains else 0

    rep_log = SpanLog()
    untraced, traced = [], []

    def pair() -> None:
        untraced.append(workload.run(state))
        probes = layers.install(rep_log)
        try:
            rep = workload.run(state)
        finally:
            probes.remove()
        rep_log.add(rep.layer_counts)
        traced.append(rep)

    _repeat(pair, seconds)
    values = layers.layer_metrics([(setup_log, 1.0), (rep_log, 1.0 / len(traced))])
    values["trace_overhead_ratio"] = median(r.wall_s for r in traced) / median(
        r.wall_s for r in untraced
    )
    outcome = untraced[0].outcome
    for name in ("tunio_roti", "tunio_tuning_min", "tunio_degraded_share"):
        values[name] = outcome.get(name, 0.0)
    setup_log.write(work / f"spans-{workload.name}-setup.npz")
    rep_log.write(work / f"spans-{workload.name}.npz")
    notes = {"trace_overhead_ratio": f"{len(traced)} traced / {len(untraced)} untraced"}
    split: dict[str, dict[str, float]] = {}
    for rep in traced:
        for label, window in rep.windows.items():
            for name, (inclusive, _, _) in rep_log.totals(window).items():
                by_label = split.setdefault(f"{name}.s", {})
                by_label[label] = by_label.get(label, 0.0) + inclusive / len(traced)
    for metric, by_label in split.items():
        if any(by_label.values()):
            notes[metric] = ", ".join(f"{label} {sec:.3f} s" for label, sec in by_label.items())
    return untraced + traced, values, notes, state.get("problems", []), attempted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    # Guardrail trips are counted from the results; one warning line per
    # trip would only flood standard error.
    warnings.filterwarnings("ignore", message="guardrail tripped", category=RuntimeWarning)
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)

    try:
        if args.trace:
            reps, values, notes, problems, attempted = _traced(
                workload, args.seed, args.seconds, work
            )
            units = dict(layers.per_layer_names())
        else:
            reps, values, notes, problems, attempted = _end_to_end(
                workload, args.seed, args.seconds, work
            )
            units = dict(END_TO_END)
    except Exception:
        # A tuning or training call raised: the run failed as a whole.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if len({repr(rep.digest) for rep in reps}) > 1:
        problems.append("outputs differ between repetitions of identical work")
    attempted += sum(r.attempted for r in reps)
    failed = len(problems) + sum(r.failed for r in reps)
    if args.trace:
        values["failed_share"] = failed / attempted

    for message in dict.fromkeys(problems + [p for r in reps for p in r.problems]):
        print(f"CHECK FAILED: {message}")
    for name, unit in units.items():
        note = notes.get(name)
        print(f"{name:34s} {values[name]:>16.6g} {unit:9s}{'  ' + note if note else ''}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
