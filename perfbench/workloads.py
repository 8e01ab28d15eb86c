"""The benchmark's workloads: figure regeneration (after agent
pretraining in set-up) and a disk-cache campaign.

Each workload builds its inputs from the seed in :meth:`setup` and runs
one repetition of its work in :meth:`run`, which returns the
repetition's timings, operation counts, failed output checks and a
digest of its outputs.  A repetition reads time from the ``clock`` it
is given: the calibrated clock of :mod:`perfbench.calibrate`, or
``time.perf_counter`` in traced runs, whose span windows need it.
Every repetition repeats identical work, so their digests (traced or
not) must be equal.

Load is generated from one process with no process pools.
"""

from __future__ import annotations

import functools
import hashlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable

import numpy as np

from repro.analysis import experiments
from repro.analysis.context import ExperimentContext, install_context
from repro.core import offline_training
from repro.core.objective import PerfNormalizer
from repro.iostack.cluster import cori
from repro.iostack.diskcache import DiskCacheBackend
from repro.iostack.evalcache import EvaluationCache
from repro.iostack.noise import NoiseModel
from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream
from repro.iostack.simulator import IOStackSimulator
from repro.tuners.base import TuningResult
from repro.tuners.hstuner import HSTuner
from repro.tuners.stoppers import NoStop
from repro.workloads import flash, hacc, vpic
from repro.workloads.base import LoopGroup, Workload

from .tracing import Probes

@dataclass
class Rep:
    """What one repetition measured and checked."""

    wall_s: float
    #: Configuration evaluations completed in the repetition.
    evaluations: int
    #: Wall time of each top-level tuning or training call.
    call_s: list[float]
    #: Wall time with the persistent trace cache empty / filled.
    cold_s: float
    warm_s: float
    attempted: int
    failed: int
    #: Output checks that failed, one message each.
    problems: list[str]
    #: Outputs that every repetition of the run must reproduce exactly.
    digest: Any
    #: Deterministic outcome figures of the tuning (figures only).
    outcome: dict[str, float] = field(default_factory=dict)
    #: Counters read from a layer's own state (disk-cache errors, bytes).
    layer_counts: dict[str, float] = field(default_factory=dict)
    #: Named ``perf_counter`` intervals the traced run splits spans by.
    windows: dict[str, tuple[float, float]] = field(default_factory=dict)


#: A time source in seconds.
Clock = Callable[[], float]


class TuneCalls:
    """Times every ``HSTuner.tune`` call and keeps its result (``None``
    for a call that raised)."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.calls: list[tuple[float, TuningResult | None]] = []
        self._clock = clock

    def wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def tune(*args: Any, **kwargs: Any) -> TuningResult:
            start = self._clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.calls.append((self._clock() - start, result))
            return result

        return tune

    def __enter__(self) -> "TuneCalls":
        self._probes = Probes()
        self._probes.install("repro.tuners.hstuner:HSTuner.tune", "tune", factory=self.wrap)
        return self

    def __exit__(self, *exc: object) -> None:
        self._probes.remove()

    @property
    def results(self) -> list[TuningResult]:
        return [r for _, r in self.calls if r is not None]

    @property
    def raised(self) -> int:
        return sum(1 for _, r in self.calls if r is None)


def _result_problems(results: list[TuningResult]) -> list[str]:
    problems = []
    for r in results:
        if not (math.isfinite(r.best_perf) and math.isfinite(r.baseline_perf)):
            problems.append(f"{r.tuner_name}/{r.workload_name}: non-finite perf")
        elif r.best_perf < r.baseline_perf:
            problems.append(
                f"{r.tuner_name}/{r.workload_name}: best {r.best_perf} "
                f"< baseline {r.baseline_perf}"
            )
    return problems


def _quarantined(results: list[TuningResult]) -> int:
    return sum(r.eval_stats.quarantined for r in results if r.eval_stats is not None)


def _agent_arrays(agents: offline_training.TunIOAgents) -> dict[str, np.ndarray]:
    """Every array a checkpoint holds, keyed as ``save_agents`` keys them."""
    arrays = {"impact_scores": agents.impact_scores}
    arrays.update({f"smart_{k}": v for k, v in agents.smart_config.get_state().items()})
    arrays.update({f"stop_{k}": v for k, v in agents.early_stopper.get_weights().items()})
    return arrays


def _agents_digest(agents: offline_training.TunIOAgents) -> str:
    h = hashlib.sha256()
    for key, value in sorted(_agent_arrays(agents).items()):
        h.update(key.encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _train(
    simulator: IOStackSimulator, normalizer: PerfNormalizer, seed: int
) -> offline_training.TunIOAgents:
    """Agent training with the arguments ``analysis.context`` uses."""
    return offline_training.train_tunio_agents(
        simulator,
        [vpic(), flash(), hacc()],
        normalizer,
        rng=np.random.default_rng((seed, 0xA11)),
    )


def check_agents(
    agents: offline_training.TunIOAgents, normalizer: PerfNormalizer, work: Path
) -> list[str]:
    """Output checks of trained agents: finite impact scores summing to
    1, and a ``save_agents``/``load_agents`` round trip (which runs
    ``validate_agent_checkpoint``) that returns the same agents."""
    problems = []
    scores = agents.impact_scores
    if not np.all(np.isfinite(scores)) or abs(float(scores.sum()) - 1.0) > 1e-9:
        problems.append(f"impact scores not finite or not summing to 1: {scores}")
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = Path(tmp) / "agents.npz"
        offline_training.save_agents(agents, path)
        loaded = offline_training.load_agents(path, normalizer)
    saved, restored = _agent_arrays(agents), _agent_arrays(loaded)
    # ``set_impact_scores`` re-normalises on load, which may move a
    # score by an ulp; every network weight must come back exactly.
    changed = [
        key
        for key in saved
        if key in restored
        and not (
            np.allclose(saved[key], restored[key], rtol=1e-12, atol=0.0)
            if key == "smart_impact_scores"
            else np.array_equal(saved[key], restored[key])
        )
    ]
    if changed or set(saved) != set(restored):
        problems.append(f"agents changed across save_agents/load_agents: {changed}")
    return problems


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


class Figures:
    """The paper's experiments for seeds ``seed`` and ``seed + 1`` with
    one trained agent bundle installed for both; set-up is the agent
    training (and its checks)."""

    name = "figures"
    setup_repeats = 2
    setup_trains = True

    def __init__(self, iterations: int | None = None):
        #: GA budget per figure run; ``None`` keeps each figure's default.
        self.iterations = iterations

    def setup(self, seed: int, work: Path) -> dict:
        platform = cori(4)
        normalizer = PerfNormalizer.for_platform(platform, 4)
        simulator = IOStackSimulator(platform, NoiseModel(seed=seed))
        agents = _train(simulator, normalizer, seed)
        for s in (seed, seed + 1):
            install_context(
                ExperimentContext(
                    seed=s,
                    platform=platform,
                    simulator=simulator,
                    normalizer=normalizer,
                    agents=agents,
                )
            )
        return {
            "seed": seed,
            "agents": _agents_digest(agents),
            "problems": check_agents(agents, normalizer, work),
        }

    def run(self, state: dict, clock: Clock = time.perf_counter) -> Rep:
        budget = {} if self.iterations is None else {"iterations": self.iterations}
        pipelines = {}
        points = []
        with TuneCalls(clock) as tunes:
            start = clock()
            for s in (state["seed"], state["seed"] + 1):
                experiments.fig02_log_curves(s, **budget)
                experiments.fig08_discovery(s, **budget)
                experiments.fig08c_kernel_similarity()
                experiments.fig09_impact_first(s, **budget)
                experiments.fig10_early_stopping(s, **budget)
                pipelines[s] = experiments.fig11_pipeline(s, **budget)
                lifecycle = experiments.fig12_lifecycle(s, pipeline=pipelines[s])
                points.append((lifecycle.tunio_viability, lifecycle.hstuner_viability))
            wall = clock() - start
        results = tunes.results
        problems = _result_problems(results)
        if any(p is None for pair in points for p in pair):
            problems.append(f"fig12 viability points missing: {points}")

        tunio = [r for r in results if r.tuner_name == "tunio"]
        fig11 = [pipelines[s].get("tunio") for s in sorted(pipelines)]
        outcome = {
            "tunio_roti": median(v.roti for v in fig11),
            "tunio_tuning_min": median(v.result.total_minutes for v in fig11),
            "tunio_degraded_share": (
                sum(1 for r in tunio if r.guardrail_trips) / len(tunio) if tunio else 0.0
            ),
        }
        evaluations = sum(r.total_evaluations for r in results)
        return Rep(
            wall_s=wall,
            evaluations=evaluations,
            call_s=[seconds for seconds, _ in tunes.calls],
            cold_s=wall,
            warm_s=wall,
            attempted=evaluations,
            failed=_quarantined(results) + tunes.raised + len(problems),
            problems=problems,
            digest=(
                [
                    (r.tuner_name, r.workload_name, r.best_perf, r.total_minutes,
                     r.total_evaluations)
                    for r in results
                ],
                [v.roti for p in pipelines.values() for v in p.variants],
                points,
            ),
            outcome=outcome,
        )


# ---------------------------------------------------------------------------
# disk_campaign
# ---------------------------------------------------------------------------


def campaign_workload(seed: int, index: int, n_phases: int = 64) -> Workload:
    """A seeded multi-phase campaign; each phase writes or reads one stream."""
    rng = np.random.default_rng((seed, index))
    phases = []
    for j in range(n_phases):
        stream = RequestStream.uniform(
            "read" if rng.random() < 0.4 else "write",
            int(rng.choice([256, 512, 1024, 2048, 4096])) * 1024,
            64 * int(rng.integers(1, 9)),
            64,
            contiguity=float(rng.uniform(0.5, 1.0)),
            interleave=float(rng.uniform(0.0, 0.6)),
        )
        phases.append(
            IOPhase(
                name=f"step{j}",
                compute_seconds=float(rng.uniform(1.0, 3.0)),
                data=(stream,),
                metadata=MetadataStream(total_ops=64 * int(rng.integers(4, 17)), n_procs=64),
                chunked=True,
                chunk_size=1024 * 1024,
                working_set_per_proc=8 * 1024 * 1024,
            )
        )
    return Workload(
        name=f"campaign{index}",
        n_procs=64,
        n_nodes=2,
        loops=(LoopGroup("steps", 1, tuple(phases)),),
    )


class DiskCampaign:
    """Campaign workloads tuned through one disk-cache directory: a cold
    pass that writes the entries, then identical warm passes that read
    them."""

    name = "disk_campaign"
    setup_repeats = 5
    setup_trains = False
    #: Several warm passes, because one is short next to the machine's
    #: speed swings; ``warm_pass_s`` is their median.
    warm_passes = 3

    def __init__(self, campaigns: int = 4, phases: int = 64, generations: int = 20):
        self.campaigns = campaigns
        self.phases = phases
        self.generations = generations

    def setup(self, seed: int, work: Path) -> dict:
        return {
            "seed": seed,
            "work": work,
            "workloads": [
                campaign_workload(seed, i, self.phases) for i in range(self.campaigns)
            ],
        }

    def _pass(
        self, state: dict, directory: Path, clock: Clock
    ) -> tuple[list[float], list[TuningResult], Any, int]:
        """Tune every campaign through a fresh backend on ``directory``:
        (per-tune seconds, results, backend stats, tunes that raised)."""
        backend = DiskCacheBackend(directory)
        with TuneCalls(clock) as tunes:
            for i, workload in enumerate(state["workloads"]):
                simulator = IOStackSimulator(
                    cori(64), NoiseModel(seed=state["seed"] * 16 + i)
                )
                tuner = HSTuner(
                    simulator,
                    stopper=NoStop(),
                    rng=np.random.default_rng((state["seed"], i, 0xD15C)),
                    cache=EvaluationCache(backend=backend),
                )
                tuner.tune(workload, max_iterations=self.generations)
        return [s for s, _ in tunes.calls], tunes.results, backend.stats(), tunes.raised

    def run(self, state: dict, clock: Clock = time.perf_counter) -> Rep:
        directory = Path(tempfile.mkdtemp(dir=state["work"], prefix="disk-"))
        warm_s, warm_stats, warm = [], [], []
        raised = 0
        try:
            t0 = clock()
            cold_calls, cold, cold_stats, n = self._pass(state, directory, clock)
            t1 = clock()
            raised += n
            stored_bytes = sum(p.stat().st_size for p in directory.glob("*.npz"))
            t2 = clock()
            for _ in range(self.warm_passes):
                start = clock()
                _, results, stats, n = self._pass(state, directory, clock)
                warm_s.append(clock() - start)
                warm.extend(results)
                warm_stats.append(stats)
                raised += n
            t3 = clock()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

        problems = _result_problems(cold)
        expected = [(r.best_perf, r.history) for r in cold] * self.warm_passes
        if [(r.best_perf, r.history) for r in warm] != expected:
            problems.append("a warm pass's results differ from the cold pass")
        if any(s.misses or s.stores for s in warm_stats):
            problems.append(f"warm passes missed or stored: {warm_stats}")
        if cold_stats.stores != cold_stats.misses:
            problems.append(
                f"cold pass: {cold_stats.stores} stores != {cold_stats.misses} misses"
            )
        errors = cold_stats.errors + sum(s.errors for s in warm_stats)
        results = cold + warm
        evaluations = sum(r.total_evaluations for r in results)
        return Rep(
            wall_s=(t1 - t0) + sum(warm_s),
            evaluations=evaluations,
            call_s=cold_calls,
            cold_s=t1 - t0,
            warm_s=median(warm_s),
            attempted=evaluations,
            failed=_quarantined(results) + errors + raised + len(problems),
            problems=problems,
            digest=[(r.best_perf, r.total_minutes) for r in cold],
            layer_counts={"diskcache.errors": errors, "diskcache.bytes": stored_bytes},
            windows={"cold": (t0, t1), "warm": (t2, t3)},
        )


WORKLOADS = {w.name: w for w in (Figures(), DiskCampaign())}
