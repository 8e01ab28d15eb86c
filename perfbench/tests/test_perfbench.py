"""Tests of the benchmark itself: span bookkeeping, wrapper removal,
reduced-size workloads and the metric lists in ``BENCHMARK.json``.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import calibrate, layers, run
from perfbench.tracing import Probes, SpanLog, resolve
from perfbench.workloads import DiskCampaign, Figures

ROOT = Path(__file__).resolve().parents[2]


def _raw(target: str):
    owner, attr = resolve(target)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_self_time_subtracts_children_and_same_name_nesting_counts_once():
    log = SpanLog()
    outer = log.open("a")
    inner = log.open("a")
    child = log.open("b")
    log.close(child)
    log.close(inner)
    log.close(outer)
    log.start[0], log.end[0] = 0.0, 10.0
    log.start[1], log.end[1] = 1.0, 7.0
    log.start[2], log.end[2] = 2.0, 5.0
    totals = log.totals()
    assert totals["a"] == (10.0, 7.0, 1)  # self: (10 - 6) + (6 - 3)
    assert totals["b"] == (3.0, 3.0, 1)
    assert log.totals(window=(1.5, 3.0))["b"] == (3.0, 3.0, 1)


def test_wrappers_keep_descriptors_and_are_removed():
    from repro.iostack.cluster import cori
    from repro.iostack.config import StackConfiguration
    from repro.iostack.diskcache import DiskCacheBackend
    from repro.workloads import flash

    target = "repro.iostack.diskcache:DiskCacheBackend.entry_key"
    original = _raw(target)
    args = (cori(4), flash(), StackConfiguration.default(), None, None)
    expected = DiskCacheBackend.entry_key(*args)
    log = SpanLog()
    with Probes(log) as probes:
        probes.install(target, "diskcache.key")
        assert isinstance(_raw(target), staticmethod)
        assert DiskCacheBackend.entry_key(*args) == expected
    assert _raw(target) is original
    assert log.totals()["diskcache.key"][2] == 1


def test_disk_campaign_reduced_run_passes_checks_and_tracing_changes_nothing(tmp_path):
    workload = DiskCampaign(campaigns=2, phases=6, generations=3)
    state = workload.setup(3, tmp_path)
    untraced = workload.run(state)

    originals = {target: _raw(target) for target, _, _ in layers.SPANS}
    register = _raw("repro.ga.toolbox:Toolbox.register")
    log = SpanLog()
    probes = layers.install(log)
    try:
        traced = workload.run(state)
    finally:
        probes.remove()
    assert all(_raw(target) is raw for target, raw in originals.items())
    assert _raw("repro.ga.toolbox:Toolbox.register") is register

    for rep in (untraced, traced):
        assert rep.problems == [] and rep.failed == 0
    assert traced.digest == untraced.digest
    assert traced.evaluations == untraced.evaluations > 0
    cold, warm = (log.totals(traced.windows[k]) for k in ("cold", "warm"))
    assert cold["diskcache.store"][2] > 0 and warm["diskcache.store"][2] == 0
    assert warm["diskcache.load"][2] > 0
    assert "ga.evaluate" in log.totals()


@pytest.fixture(scope="module")
def figures_state(tmp_path_factory):
    workload = Figures(iterations=4)
    return workload, workload.setup(5, tmp_path_factory.mktemp("figures"))


def test_figures_reduced_run_passes_checks(figures_state):
    workload, state = figures_state
    assert state["problems"] == []
    rep = workload.run(state)
    assert rep.problems == [] and rep.failed == 0
    assert len(rep.call_s) == 38  # 19 tuning runs per seed
    assert rep.attempted == rep.evaluations > 0


def test_same_seed_gives_identical_deterministic_metrics(figures_state, tmp_path):
    workload, state = figures_state
    first, second = workload.run(state), workload.run(state)
    assert first.outcome == second.outcome
    assert set(first.outcome) == {"tunio_roti", "tunio_tuning_min", "tunio_degraded_share"}
    assert first.evaluations == second.evaluations
    assert first.digest == second.digest

    disk = DiskCampaign(campaigns=1, phases=4, generations=2)
    a = disk.run(disk.setup(9, tmp_path))
    b = disk.run(disk.setup(9, tmp_path))
    assert (a.digest, a.evaluations) == (b.digest, b.evaluations)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == layers.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == ["figures", "disk_campaign"]


def test_call_statistics_do_not_depend_on_the_repetition_count(tmp_path, monkeypatch):
    import time

    from perfbench.workloads import Rep

    class Fixed:
        setup_repeats, setup_trains = 1, False

        def setup(self, seed, work):
            return {}

        def run(self, state, clock=None):
            time.sleep(0.01)
            return Rep(1.0, 1, [float(i) for i in range(38)], 1.0, 1.0, 1, 0, [], None)

    monkeypatch.setattr(run, "_import_seconds", lambda: 0.0)
    monkeypatch.setattr(calibrate.Calibration, "sample", lambda self: None)
    monkeypatch.setattr(calibrate.Calibration, "slowdown", 1.0)
    counts = set()
    for seconds in (0.0, 0.05, 0.2):
        reps, values, *_ = run._end_to_end(Fixed(), 0, seconds, tmp_path)
        counts.add(len(reps))
        assert (values["tune_run_p50_s"], values["tune_run_tail_s"]) == (18.5, 27.0)
    assert len(counts) == 3


def test_calibrated_clock_scales_program_time_by_the_kernel_timings():
    import signal
    import time

    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibration() as cal:
        start, clock_start = time.perf_counter(), cal.clock()
        while time.perf_counter() - start < 0.3:
            pass
        clock_elapsed = cal.clock() - clock_start
        elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(cal.samples) >= 3
    program = elapsed - sum(cal.samples[1:])
    rates = [calibrate.REFERENCE_S / k for k in cal.samples]
    assert min(rates) * program * 0.99 <= clock_elapsed <= max(rates) * program * 1.01
    assert cal.slowdown == pytest.approx(sum(cal.samples) / len(cal.samples) / calibrate.REFERENCE_S)
