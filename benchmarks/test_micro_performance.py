"""Micro-benchmarks: the hot paths that make tuning runs fast.

These use pytest-benchmark statistically (many rounds): a full GA tuning
experiment only stays interactive because a single stack evaluation is
sub-millisecond and a discovery pass is tens of milliseconds.
"""

import numpy as np
import pytest

from repro.discovery import DiscoveryOptions, discover_io
from repro.iostack import IOStackSimulator, NoiseModel, StackConfiguration, cori
from repro.workloads import flash
from repro.workloads.sources import canonical_hints, load_source


@pytest.fixture(scope="module")
def sim():
    return IOStackSimulator(cori(4), NoiseModel(seed=0))


def test_single_evaluation_speed(benchmark, sim):
    w = flash()
    config = StackConfiguration.default()
    result = benchmark(lambda: sim.evaluate(w, config))
    assert result.perf_mbps > 0
    # the trace/replay fastpath halved the pre-fastpath 20 ms budget:
    # one stack traversal + 3 cheap replays instead of 3 traversals
    assert benchmark.stats["mean"] < 0.01


def test_discovery_pipeline_speed(benchmark):
    source = load_source("macsio")
    options = DiscoveryOptions(hints=canonical_hints("macsio"))
    kernel = benchmark(lambda: discover_io(source, "macsio", options))
    assert kernel.kept_line_count > 0
    assert benchmark.stats["mean"] < 0.5


def test_config_encode_decode_speed(benchmark):
    from repro.iostack import TUNED_SPACE

    rng = np.random.default_rng(0)
    config = StackConfiguration.random(rng)
    genome = config.genome()

    def roundtrip():
        return StackConfiguration.from_genome(TUNED_SPACE, genome)

    assert benchmark(roundtrip) == config


def test_nn_train_batch_speed(benchmark, rng=np.random.default_rng(0)):
    from repro.rl.nn import MLP

    net = MLP([16, 32, 32, 4], rng)
    x = rng.normal(size=(64, 16))
    y = rng.normal(size=(64, 4))
    benchmark(lambda: net.train_batch(x, y))
    assert benchmark.stats["mean"] < 0.01


def test_cached_evaluation_speed(benchmark, sim):
    """A warm cache hit (fingerprint + dict lookup + 3 replays) must be
    an order of magnitude cheaper than what a 3-run evaluation cost
    before the fastpath: three full stack traversals."""
    import time

    from repro.iostack import EvaluationCache

    w = flash()
    config = StackConfiguration.default()

    legacy_cold = float("inf")
    for _ in range(5):  # best-of-5: the seed's per-repeat loop shape
        start = time.perf_counter()
        for _ in range(3):
            sim.run(w, config)
        legacy_cold = min(legacy_cold, time.perf_counter() - start)

    fast_cold = float("inf")
    for _ in range(5):  # best-of-5: fastpath miss (1 traversal, 3 replays)
        start = time.perf_counter()
        sim.evaluate(w, config)
        fast_cold = min(fast_cold, time.perf_counter() - start)

    cache = EvaluationCache()
    cache.evaluate(sim, w, config)  # warm the entry
    result = benchmark(lambda: cache.evaluate(sim, w, config))
    assert result.perf_mbps > 0
    assert cache.hit_rate > 0.9
    # median keeps scheduler outliers out of the 10x claim
    assert benchmark.stats["median"] < legacy_cold / 10
    assert benchmark.stats["median"] < fast_cold / 3


def test_disk_cache_warm_vs_cold(tmp_path):
    """Warm-starting from a populated ``--cache-dir`` must beat the cold
    build by >= 5x on the workloads the disk cache targets: phase-heavy
    campaigns where tracing, not replay, dominates.

    A 64-phase synthetic campaign stands in for them.  Cold = key +
    stack traversal + store; warm = key + one-member ``.npz`` load
    (one zip open, one ``.npy`` header, positional rebuild).  Small
    single-phase workloads trace so cheaply that disk I/O is a wash
    there -- which is fine, the in-memory cache already covers them.
    """
    import shutil
    import time

    from repro.iostack import EvaluationCache
    from repro.iostack.diskcache import DiskCacheBackend
    from repro.iostack.phase import IOPhase
    from repro.iostack.requests import MetadataStream, RequestStream
    from repro.workloads.base import LoopGroup, Workload

    def campaign(n_phases=64):
        phases = []
        for i in range(n_phases):
            stream = RequestStream.uniform(
                "write", 1024 * 1024, 64 * (i % 7 + 1), 64,
                contiguity=0.8, interleave=0.4,
            )
            meta = MetadataStream(total_ops=8 * 64, n_procs=64)
            phases.append(
                IOPhase(
                    name=f"dump{i}", compute_seconds=2.0, data=(stream,),
                    metadata=meta, chunked=True, chunk_size=1024 * 1024,
                    working_set_per_proc=8 * 1024 * 1024,
                )
            )
        return Workload(
            name="campaign", n_procs=64, n_nodes=2,
            loops=(LoopGroup("loop", 1, tuple(phases)),),
        )

    workload = campaign()
    sim = IOStackSimulator(cori(64), NoiseModel(seed=5))
    configs = [StackConfiguration.default()] + [
        StackConfiguration.random(np.random.default_rng(i)) for i in range(7)
    ]
    cache_dir = tmp_path / "traces"

    def acquire_all():
        cache = EvaluationCache(backend=DiskCacheBackend(cache_dir))
        start = time.perf_counter()
        for config in configs:
            cache.get_trace(sim, workload, config)
        return time.perf_counter() - start, cache.backend.stats()

    cold = warm = float("inf")
    for _ in range(3):  # best-of-3: scheduler noise out of the ratio
        shutil.rmtree(cache_dir, ignore_errors=True)
        elapsed, stats = acquire_all()
        assert stats.stores == len(configs)
        cold = min(cold, elapsed)
        elapsed, stats = acquire_all()
        assert stats.hits == len(configs) and stats.stores == 0
        warm = min(warm, elapsed)
    assert warm < cold / 5, f"warm {warm * 1e3:.1f}ms vs cold {cold * 1e3:.1f}ms"


def test_batched_pretraining_speedup():
    """The vectorized early-stopper trainer must beat the per-sample
    loop by >= 3x on identical seeds (measured ~4.4x: matrix curve
    generation + batched episodes + one train_batch per epoch)."""
    import time

    from repro.core.early_stopping import EarlyStoppingAgent

    def train(batched):
        rng = np.random.default_rng(7)
        agent = EarlyStoppingAgent(rng=rng)
        start = time.perf_counter()
        report = agent.train_offline(rng=rng, batched=batched)
        return time.perf_counter() - start, report

    serial_s, serial_report = train(batched=False)
    batched_s, batched_report = train(batched=True)
    # Both arms must have done the same job, not stopped early.
    assert serial_report.stagnated and batched_report.stagnated
    assert batched_s < serial_s / 3, (
        f"batched {batched_s:.2f}s vs serial {serial_s:.2f}s"
    )


def test_tuning_run_wall_clock(sim):
    """A 10-generation tuning run with the full fastpath stays
    interactive (the seed needed ~3 stack traversals per evaluation)."""
    import time

    from repro.iostack import EvaluationCache
    from repro.tuners import HSTuner, NoStop

    tuner = HSTuner(
        sim,
        stopper=NoStop(),
        rng=np.random.default_rng(0),
        cache=EvaluationCache(),
    )
    start = time.perf_counter()
    result = tuner.tune(flash(), max_iterations=10)
    elapsed = time.perf_counter() - start
    assert result.best_perf > 0
    assert len(result.history) == 10
    assert elapsed < 2.0  # ~60 evaluations; well under interactive budget
