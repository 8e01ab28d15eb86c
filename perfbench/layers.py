"""Where the traced run puts its spans, and the per-layer metrics built
from them.

A layer is a ``repro`` package.  Each span wraps a public function where
the program looks it up: the stack models are wrapped in
``repro.iostack.simulator``, which calls them, and ``discover_io`` in
``repro.analysis.experiments``.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from .tracing import AfterHook, Probes, SpanLog, timed


def _tune_counts(args: tuple, result: Any) -> dict[str, float]:
    stats = result.eval_stats
    return {
        "tuners.evaluations": result.total_evaluations,
        "tuners.quarantined": stats.quarantined if stats else 0,
        "tuners.retries": stats.retries if stats else 0,
        "core.guardrail_trips": len(result.guardrail_trips),
    }


def _hit(counter: str) -> AfterHook:
    return lambda args, result: {counter: result is not None}


def _epochs(args: tuple, result: Any) -> dict[str, float]:
    return {"core.stopper_epochs": result.epochs}


def _span_evaluations(log: SpanLog) -> Callable[[Callable], Callable]:
    """``Toolbox.register`` replacement that wraps the evaluation entries
    in a ``ga.evaluate`` span, so a GA step's self time excludes the
    evaluation it dispatches."""

    def factory(register: Callable) -> Callable:
        @functools.wraps(register)
        def wrapper(self: Any, name: str, fn: Callable, *args: Any, **kwargs: Any) -> None:
            if name in ("evaluate", "evaluate_batch"):
                fn = timed(fn, "ga.evaluate", log, None)
            register(self, name, fn, *args, **kwargs)

        return wrapper

    return factory


_SIM = "repro.iostack.simulator"
_EXP = "repro.analysis.experiments"

#: (target, span name, after-hook).
SPANS: tuple[tuple[str, str, AfterHook | None], ...] = (
    (f"{_SIM}:IOStackSimulator.trace", "iostack.trace", None),
    (f"{_SIM}:apply_hdf5", "iostack.hdf5", None),
    (f"{_SIM}:apply_mpiio", "iostack.mpiio", None),
    (f"{_SIM}:serve_lustre", "iostack.lustre", None),
    (f"{_SIM}:serve_metadata", "iostack.metadata", None),
    (f"{_SIM}:IOStackSimulator.replay", "iostack.replay", None),
    ("repro.iostack.evalcache:EvaluationCache.lookup", "evalcache.lookup",
     _hit("evalcache.hits")),
    ("repro.iostack.diskcache:DiskCacheBackend.load", "diskcache.load",
     _hit("diskcache.hits")),
    ("repro.iostack.diskcache:DiskCacheBackend.store", "diskcache.store", None),
    ("repro.ga.engine:EvolutionEngine.step", "ga.step", None),
    ("repro.tuners.hstuner:HSTuner.tune", "tuners.tune", _tune_counts),
    ("repro.core.smart_config:SmartConfigAgent.subset_picker", "core.subset_picker", None),
    ("repro.core.smart_config:GuardedSubsetPicker.pick", "core.subset_picker", None),
    ("repro.core.early_stopping:RLStopper.should_stop", "core.stopper", None),
    ("repro.core.early_stopping:GuardedStopper.should_stop", "core.stopper", None),
    ("repro.core.offline_training:parameter_sweep", "core.parameter_sweep", None),
    ("repro.core.offline_training:impact_from_sweeps", "core.impact_from_sweeps", None),
    ("repro.core.offline_training:pretrain_subset_picker", "core.pretrain_subset_picker",
     None),
    ("repro.core.early_stopping:EarlyStoppingAgent.train_offline", "core.train_offline",
     _epochs),
    ("repro.rl.nn:MLP.forward", "rl.nn.forward", None),
    ("repro.rl.nn:MLP.__call__", "rl.nn.forward", None),
    ("repro.rl.nn:MLP.train_batch", "rl.nn.train_batch", None),
    ("repro.rl.nn:Adam.step", "rl.nn.adam", None),
    ("repro.rl.replay:ReplayBuffer.sample", "rl.replay.sample", None),
    ("repro.rl.replay:ReplayBuffer.sample_arrays", "rl.replay.sample", None),
    ("repro.rl.curves:LogCurveGenerator.sample", "rl.curves", None),
    ("repro.rl.curves:LogCurveGenerator.sample_batch", "rl.curves", None),
    ("repro.rl.curves:LogCurveGenerator.sample_matrix", "rl.curves", None),
    (f"{_EXP}:discover_io", "discovery.discover_io", None),
    (f"{_EXP}:fig02_log_curves", "analysis.fig02", None),
    (f"{_EXP}:fig08_discovery", "analysis.fig08", None),
    (f"{_EXP}:fig08c_kernel_similarity", "analysis.fig08c", None),
    (f"{_EXP}:fig09_impact_first", "analysis.fig09", None),
    (f"{_EXP}:fig10_early_stopping", "analysis.fig10", None),
    (f"{_EXP}:fig11_pipeline", "analysis.fig11", None),
    (f"{_EXP}:fig12_lifecycle", "analysis.fig12", None),
)


def install(log: SpanLog) -> Probes:
    """Every span of :data:`SPANS` plus the GA evaluation span, recording
    into ``log``; call :meth:`Probes.remove` to take them out."""
    probes = Probes(log)
    try:
        for target, name, after in SPANS:
            probes.install(target, name, after)
        probes.install(
            "repro.ga.toolbox:Toolbox.register", "ga.evaluate",
            factory=_span_evaluations(log),
        )
    except BaseException:
        probes.remove()
        raise
    return probes


#: Span names reported as ``<name>.s`` (outermost inclusive seconds)
#: and ``<name>.calls``.
TIMED = tuple(dict.fromkeys(name for _, name, _ in SPANS))

#: (metric, unit) of the counted and derived per-layer metrics.
DERIVED = (
    ("iostack.trace_reuse_ratio", "ratio"),
    ("evalcache.lookups", "count"),
    ("evalcache.hit_ratio", "ratio"),
    ("diskcache.hit_ratio", "ratio"),
    ("diskcache.errors", "count"),
    ("diskcache.bytes", "bytes"),
    ("ga.self_s", "s"),
    ("ga.generations", "count"),
    ("tuners.evaluations", "count"),
    ("tuners.quarantined", "count"),
    ("tuners.retries", "count"),
    ("core.guardrail_trips", "count"),
    ("core.stopper_epochs", "count"),
)

#: Run-level metrics of the traced run.
RUN = (
    ("trace_overhead_ratio", "ratio"),
    ("failed_share", "ratio"),
    ("tunio_roti", "MB/s/min"),
    ("tunio_tuning_min", "sim_min"),
    ("tunio_degraded_share", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    timed_names = [
        (f"{name}{suffix}", unit)
        for name in TIMED
        for suffix, unit in ((".s", "s"), (".calls", "count"))
    ]
    return timed_names + list(DERIVED) + list(RUN)


def layer_metrics(
    parts: list[tuple[SpanLog, float]],
) -> dict[str, float]:
    """Per-layer values from span logs, each scaled by its weight (the
    traced set-up counts once, each traced repetition ``1/n``)."""
    seconds: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    calls: dict[str, float] = {}
    counts: dict[str, float] = {}
    for log, weight in parts:
        for name, (inclusive, own, n) in log.totals().items():
            seconds[name] = seconds.get(name, 0.0) + weight * inclusive
            self_seconds[name] = self_seconds.get(name, 0.0) + weight * own
            calls[name] = calls.get(name, 0.0) + weight * n
        for name, value in log.counters.items():
            counts[name] = counts.get(name, 0.0) + weight * float(value)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name in TIMED:
        values[f"{name}.s"] = seconds.get(name, 0.0)
        values[f"{name}.calls"] = calls.get(name, 0.0)
    values.update(
        {
            "iostack.trace_reuse_ratio": ratio(
                calls.get("iostack.replay", 0.0), calls.get("iostack.trace", 0.0)
            ),
            "evalcache.lookups": calls.get("evalcache.lookup", 0.0),
            "evalcache.hit_ratio": ratio(
                counts.get("evalcache.hits", 0.0), calls.get("evalcache.lookup", 0.0)
            ),
            "diskcache.hit_ratio": ratio(
                counts.get("diskcache.hits", 0.0), calls.get("diskcache.load", 0.0)
            ),
            "ga.self_s": self_seconds.get("ga.step", 0.0),
            "ga.generations": calls.get("ga.step", 0.0),
        }
    )
    for name in (
        "diskcache.errors", "diskcache.bytes", "tuners.evaluations",
        "tuners.quarantined", "tuners.retries", "core.guardrail_trips",
        "core.stopper_epochs",
    ):
        values[name] = counts.get(name, 0.0)
    return values
