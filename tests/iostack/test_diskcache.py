"""The persistent disk backend of the evaluation cache.

Three contracts are pinned here:

* **Exact serialization** -- any :class:`StackTrace` round-trips through
  the fixed-dtype ``.npz`` layout bit-for-bit (property-based, so the
  layout survives odd names, extreme floats and empty phases).
* **Key hygiene** -- an entry's content address covers everything that
  makes serving it safe: config, workload, platform, and the fault-plan
  / constraint-registry fingerprints.  The stale-entry regression tests
  prove a trace written under one plan is never served under another.
* **Degradation** -- corrupt entries, schema bumps and full directories
  degrade to misses and evictions, never to broken evaluations.
"""

import io
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.iostack import (
    EvaluationCache,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
)
from repro.iostack.diskcache import (
    DISK_SCHEMA_VERSION,
    DiskCacheBackend,
    _pack,
    trace_from_arrays,
    trace_to_arrays,
)
from repro.iostack.faults import FaultPlan
from repro.iostack.parameters import TUNED_SPACE
from repro.iostack.simulator import PhaseTrace, StackTrace, StreamTrace
from repro.workloads import flash, vpic

pytestmark = pytest.mark.offline_fastpath


# -- hypothesis strategies ----------------------------------------------------

# numpy's fixed-width unicode dtype strips trailing NULs, so names must
# not contain them; surrogates cannot be encoded at all.
_names = st.text(
    st.characters(min_codepoint=1, exclude_categories=("Cs",)),
    min_size=0,
    max_size=12,
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_counts = st.integers(min_value=0, max_value=2**62)


def _streams():
    return st.builds(
        StreamTrace,
        op=st.sampled_from(["read", "write"]),
        base_seconds=_floats,
        total_bytes=_counts,
        total_ops=_counts,
    )


def _phases():
    return st.builds(
        PhaseTrace,
        name=_names,
        bytes_written=_counts,
        bytes_read=_counts,
        write_ops=_counts,
        read_ops=_counts,
        meta_ops=_counts,
        overhead_seconds=_floats,
        base_meta_seconds=_floats,
        compute_seconds=_floats,
        streams=st.lists(_streams(), max_size=3).map(tuple),
    )


def _traces():
    return st.builds(
        StackTrace,
        workload_name=_names,
        phases=st.lists(_phases(), max_size=4).map(tuple),
    )


@settings(max_examples=40, deadline=None)
@given(_traces())
def test_trace_arrays_roundtrip_exactly(trace):
    assert trace_from_arrays(trace_to_arrays(trace)) == trace


@settings(max_examples=25, deadline=None)
@given(_traces())
def test_trace_roundtrips_through_npz_bytes(trace):
    """The real wire format: savez + load, not just the array dicts."""
    buf = io.BytesIO()
    np.savez(buf, **trace_to_arrays(trace))
    buf.seek(0)
    with np.load(buf) as archive:
        data = {name: archive[name] for name in archive.files}
    assert trace_from_arrays(data) == trace


def test_schema_mismatch_is_rejected():
    trace = StackTrace(workload_name="w", phases=())
    data = trace_to_arrays(trace)
    data["ints"] = data["ints"].copy()
    data["ints"][0] = DISK_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        trace_from_arrays(data)
    with pytest.raises(ValueError, match="missing member"):
        trace_from_arrays({"ints": data["ints"]})


# -- backend store/load -------------------------------------------------------


@pytest.fixture
def sim():
    return IOStackSimulator(cori(4), NoiseModel(seed=3))


def test_backend_roundtrips_a_real_trace(tmp_path, sim):
    backend = DiskCacheBackend(tmp_path)
    workload = flash()
    trace = sim.trace(workload, StackConfiguration.default())
    key = backend.entry_key(sim.platform, workload, StackConfiguration.default())

    assert backend.load(key) is None
    backend.store(key, trace)
    assert backend.load(key) == trace
    assert len(backend) == 1
    stats = backend.stats()
    assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
    # Replaying the loaded trace is bit-identical to replaying the
    # fresh one under the same noise draws.
    quiet = IOStackSimulator(cori(4), NoiseModel.quiet())
    a = quiet.evaluate_trace(trace, repeats=2)
    b = quiet.evaluate_trace(backend.load(key), repeats=2)
    assert a.perf_mbps == b.perf_mbps and a.report == b.report


def test_corrupt_entry_degrades_to_a_miss(tmp_path, sim):
    backend = DiskCacheBackend(tmp_path)
    key = backend.entry_key(
        sim.platform, flash(), StackConfiguration.default()
    )
    (tmp_path / f"{key}.npz").write_bytes(b"this is not an npz archive")
    assert backend.load(key) is None
    stats = backend.stats()
    assert stats.misses == 1 and stats.errors == 1 and stats.hits == 0


def test_lru_eviction_keeps_the_freshest_entries(tmp_path, sim):
    import os
    import time

    backend = DiskCacheBackend(tmp_path, max_entries=3)
    trace = sim.trace(flash(), StackConfiguration.default())
    rng = np.random.default_rng(0)
    keys = []
    now = time.time()
    for i in range(5):
        key = backend.entry_key(
            sim.platform, flash(), StackConfiguration.random(rng)
        )
        keys.append(key)
        backend.store(key, trace)
        # Backdate each entry so LRU order is unambiguous on coarse
        # clocks (the youngest entry keeps the largest mtime).
        os.utime(tmp_path / f"{key}.npz", (now - 10 + i, now - 10 + i))
    assert len(backend) == 3
    assert backend.evictions >= 2
    assert backend.load(keys[0]) is None  # stalest: evicted
    assert backend.load(keys[-1]) == trace  # freshest: kept


# -- content-address hygiene --------------------------------------------------


def test_entry_key_is_stable_and_sensitive(sim):
    workload = flash()
    config = StackConfiguration.default()
    base = DiskCacheBackend.entry_key(sim.platform, workload, config)
    assert base == DiskCacheBackend.entry_key(sim.platform, workload, config)

    other_config = config.with_values(striping_factor=64)
    variants = [
        DiskCacheBackend.entry_key(sim.platform, workload, other_config),
        DiskCacheBackend.entry_key(sim.platform, vpic(), config),
        DiskCacheBackend.entry_key(cori(8), workload, config),
        DiskCacheBackend.entry_key(
            sim.platform, workload, config, fault_fingerprint="abc"
        ),
        DiskCacheBackend.entry_key(
            sim.platform, workload, config, constraint_fingerprint="abc"
        ),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_stale_entry_never_crosses_fault_plans(tmp_path):
    """Regression: a trace persisted by a fault-free run must never
    satisfy a lookup from a fault-injected run (serving it would skip
    the plan's per-attempt fault decision), and vice versa."""
    workload = flash()
    config = StackConfiguration.default()
    plain = IOStackSimulator(cori(4), NoiseModel(seed=3))
    faulted = IOStackSimulator(
        cori(4),
        NoiseModel(seed=3),
        faults=FaultPlan(seed=9, straggler_rate=0.5),
    )

    writer = EvaluationCache(backend=DiskCacheBackend(tmp_path))
    writer.get_trace(plain, workload, config)
    assert writer.backend.stores == 1

    # Fresh cache (cold memory), same directory, fault-injected run.
    reader = EvaluationCache(backend=DiskCacheBackend(tmp_path))
    reader.get_trace(faulted, workload, config)
    assert reader.backend.hits == 0  # the plain entry was NOT served
    assert reader.backend.stores == 1  # a plan-scoped entry was written
    assert len(reader.backend) == 2

    # Same plan fingerprint -> the plan-scoped entry is shareable.
    rereader = EvaluationCache(backend=DiskCacheBackend(tmp_path))
    same_plan = IOStackSimulator(
        cori(4),
        NoiseModel(seed=3),
        faults=FaultPlan(seed=9, straggler_rate=0.5),
    )
    rereader.get_trace(same_plan, workload, config)
    assert rereader.backend.hits == 1 and rereader.backend.stores == 0


def test_stale_entry_never_crosses_constraint_registries(tmp_path):
    """Regression: the constraint fingerprint scopes entries the same
    way the fault plan does."""
    from repro.iostack.parameters import ConstraintRegistry, default_constraints

    workload = flash()
    config = StackConfiguration.default()
    sim = IOStackSimulator(cori(4), NoiseModel(seed=3))
    registry = ConstraintRegistry(TUNED_SPACE, default_constraints(TUNED_SPACE))

    unconstrained = EvaluationCache(backend=DiskCacheBackend(tmp_path))
    unconstrained.get_trace(sim, workload, config)

    constrained = EvaluationCache(backend=DiskCacheBackend(tmp_path))
    constrained.constraint_fingerprint = registry.fingerprint()
    constrained.get_trace(sim, workload, config)
    assert constrained.backend.hits == 0
    assert constrained.backend.stores == 1
    assert len(constrained.backend) == 2


def test_disk_hit_is_bit_identical_to_a_cold_run(tmp_path):
    """The cache contract extends to disk: a run served entirely from a
    warm directory produces the same numbers as a cold one."""
    workload = flash()
    configs = [StackConfiguration.default()] + [
        StackConfiguration.random(np.random.default_rng(i)) for i in range(3)
    ]

    def run(cache):
        sim = IOStackSimulator(cori(4), NoiseModel(seed=11))
        return [
            cache.evaluate(sim, workload, c, repeats=3).perf_mbps for c in configs
        ]

    cold = run(EvaluationCache(backend=DiskCacheBackend(tmp_path)))
    warm_cache = EvaluationCache(backend=DiskCacheBackend(tmp_path))
    warm = run(warm_cache)
    assert warm == cold
    assert warm_cache.backend.hits == len(configs)
    assert warm_cache.backend.stores == 0


# -- wire format (schema v3) --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(_traces())
def test_trace_roundtrips_through_the_backends_own_bytes(trace):
    """``store`` then ``load`` on disk: one ``entry`` member that
    ``np.load`` can still open, and the trace back bit-for-bit."""
    with tempfile.TemporaryDirectory() as directory:
        backend = DiskCacheBackend(directory)
        backend.store("k", trace)
        assert (backend.stores, backend.errors) == (1, 0)
        with np.load(Path(directory) / "k.npz") as archive:
            assert archive.files == ["entry"]
            assert archive["entry"].dtype == np.uint8
        assert backend.load("k") == trace
        assert (backend.hits, backend.errors) == (1, 0)


@pytest.mark.parametrize("name", ["tail\x00\x00", "\ud800lone", "ünï☃"])
def test_names_survive_the_backend_exactly(tmp_path, name):
    """Trailing NULs and lone surrogates, which a fixed-width unicode
    array would strip or reject, round-trip unchanged."""
    trace = StackTrace(
        workload_name=name,
        phases=(
            PhaseTrace(name, 1, 2, 3, 4, 5, 0.5, 0.25, 2.0,
                       (StreamTrace(name, 1.5, 7, 8),)),
        ),
    )
    backend = DiskCacheBackend(tmp_path)
    backend.store("k", trace)
    assert backend.load("k") == trace and backend.errors == 0


def test_v2_entry_under_a_v3_key_is_a_counted_miss(tmp_path, sim):
    """A three-member entry in the previous layout (schema 2) degrades
    to a miss plus an error; it never raises."""
    backend = DiskCacheBackend(tmp_path)
    key = backend.entry_key(sim.platform, flash(), StackConfiguration.default())
    with open(tmp_path / f"{key}.npz", "wb") as fh:
        np.savez(
            fh,
            ints=np.array([2, 0, 0], dtype=np.int64),
            floats=np.zeros(0),
            names=np.array(["flash"], dtype=np.str_),
        )
    assert backend.load(key) is None
    stats = backend.stats()
    assert (stats.hits, stats.misses, stats.errors) == (0, 1, 1)


def test_entry_whose_sizes_disagree_is_a_counted_miss(tmp_path, sim):
    """A well-formed one-member entry whose blocks do not match its
    phase counts is rejected, not served as a shorter trace."""
    backend = DiskCacheBackend(tmp_path)
    arrays = trace_to_arrays(sim.trace(flash(), StackConfiguration.default()))
    arrays["floats"] = arrays["floats"][:-1]
    with open(tmp_path / "k.npz", "wb") as fh:
        np.savez(fh, entry=_pack(arrays))
    assert backend.load("k") is None
    assert (backend.misses, backend.errors) == (1, 1)


# -- eviction cost model ------------------------------------------------------


def _store_backdated(backend, key, trace, age):
    """Store ``trace`` under ``key`` and date its mtime ``age`` seconds
    back, so LRU order is unambiguous on coarse clocks."""
    backend.store(key, trace)
    path = backend.cache_dir / f"{key}.npz"
    if path.exists():
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))


def test_stores_below_the_cap_list_the_directory_at_most_once(
    tmp_path, sim, monkeypatch
):
    listings = []
    real_scandir, real_glob = os.scandir, Path.glob

    def scandir(*args, **kwargs):
        listings.append("scandir")
        return real_scandir(*args, **kwargs)

    def glob(self, *args, **kwargs):
        listings.append("glob")
        return real_glob(self, *args, **kwargs)

    monkeypatch.setattr(os, "scandir", scandir)
    monkeypatch.setattr(Path, "glob", glob)
    backend = DiskCacheBackend(tmp_path, max_entries=50)
    trace = sim.trace(flash(), StackConfiguration.default())
    for i in range(40):
        backend.store(f"k{i}", trace)
    assert len(listings) <= 1
    assert backend.stores == 40 and backend.evictions == 0
    monkeypatch.undo()
    assert len(backend) == 40


def test_a_tuning_run_lists_the_directory_at_most_once(tmp_path, monkeypatch):
    """The tuner's stats window reads the backend's counters without
    listing its directory (truthiness of a backend is its entry count)."""
    from repro.tuners import HSTuner, NoStop

    listings = []
    real_scandir = os.scandir
    monkeypatch.setattr(
        os, "scandir", lambda *a, **k: listings.append(a) or real_scandir(*a, **k)
    )
    backend = DiskCacheBackend(tmp_path)
    tuner = HSTuner(
        IOStackSimulator(cori(4), NoiseModel(seed=3)),
        stopper=NoStop(),
        rng=np.random.default_rng(0),
        cache=EvaluationCache(backend=backend),
    )
    res = tuner.tune(flash(), max_iterations=3)
    assert backend.stores > 0 and res.eval_stats.disk_stores == backend.stores
    assert len(listings) <= 1


@pytest.mark.parametrize("over", [1, 3])
def test_going_k_over_the_cap_evicts_exactly_the_k_stalest(tmp_path, sim, over):
    cap = 5
    backend = DiskCacheBackend(tmp_path, max_entries=cap)
    trace = sim.trace(flash(), StackConfiguration.default())
    keys = [f"k{i}" for i in range(cap + over)]
    for i, key in enumerate(keys):
        _store_backdated(backend, key, trace, age=100 - i)
    assert backend.evictions == over
    assert sorted(p.stem for p in tmp_path.glob("*.npz")) == sorted(keys[over:])


def test_a_load_refreshes_recency(tmp_path, sim):
    """An entry that was read outlives an older-written unread one."""
    backend = DiskCacheBackend(tmp_path, max_entries=2)
    trace = sim.trace(flash(), StackConfiguration.default())
    _store_backdated(backend, "read", trace, age=100)
    _store_backdated(backend, "unread", trace, age=50)
    assert backend.load("read") == trace
    backend.store("new", trace)
    assert backend.evictions == 1
    assert backend.load("unread") is None
    assert backend.load("read") == trace and backend.load("new") == trace


def test_an_entry_vanishing_mid_scan_does_not_cancel_eviction(
    tmp_path, sim, monkeypatch
):
    """Regression: another worker deleting one listed entry between the
    listing and its ``stat`` must skip that entry only, not abandon the
    whole eviction."""
    trace = sim.trace(flash(), StackConfiguration.default())
    writer = DiskCacheBackend(tmp_path, max_entries=100)
    for i in range(6):
        _store_backdated(writer, f"k{i}", trace, age=100 - i)
    victim = str(tmp_path / "k5.npz")
    real_stat, vanished = os.stat, []

    def stat(path, *args, **kwargs):
        if os.fspath(path) == victim and not vanished:
            vanished.append(victim)
            os.unlink(victim)  # the other worker wins the race
        return real_stat(path, *args, **kwargs)

    backend = DiskCacheBackend(tmp_path, max_entries=3)
    monkeypatch.setattr(os, "stat", stat)
    backend.store("new", trace)
    monkeypatch.undo()
    assert vanished
    assert len(backend) == backend.max_entries
    assert backend.load("k0") is None  # stalest: evicted
    assert backend.load("new") == trace
