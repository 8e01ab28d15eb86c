"""The TunIO pipeline and resumable sessions."""

import numpy as np
import pytest

from repro.core import TuningSession, build_tunio
from repro.tuners import HSTuner, NoStop
from repro.workloads import flash
from tests.conftest import make_workload


@pytest.fixture
def tunio(trained_bundle):
    sim, normalizer, agents = trained_bundle
    return build_tunio(sim, agents, normalizer, rng=np.random.default_rng(1))


def test_tunio_tunes_flash(tunio):
    res = tunio.tune(flash(), max_iterations=25)
    assert res.tuner_name == "tunio"
    assert res.best_perf > 3 * res.baseline_perf
    assert res.best_config is not None


def test_tunio_uses_subsets_after_warmup(tunio):
    res = tunio.tune(flash(), max_iterations=10)
    assert len(res.history[0].tuned_parameters) == 12  # generation 0: full
    later = [len(r.tuned_parameters) for r in res.history[1:]]
    assert any(k < 12 for k in later)


def test_tunio_can_stop_early(trained_bundle):
    sim, normalizer, agents = trained_bundle
    tuner = build_tunio(sim, agents, normalizer, rng=np.random.default_rng(3))
    res = tuner.tune(flash(), max_iterations=50)
    if res.stop_reason == "stopper":
        assert res.stopped_at is not None
        assert len(res.history) == res.stopped_at + 1
    # Even if this seed ran to budget, the stopper machinery was consulted
    # every iteration without error.
    assert len(res.history) <= 50


def test_expected_runs_passthrough(trained_bundle):
    sim, normalizer, agents = trained_bundle
    tuner = build_tunio(
        sim, agents, normalizer, expected_runs=1e6, rng=np.random.default_rng(4)
    )
    assert tuner.stopper.expected_runs == 1e6


def test_session_resume_accumulates(trained_bundle):
    sim, normalizer, agents = trained_bundle
    tuner = HSTuner(sim, stopper=NoStop(), rng=np.random.default_rng(6))
    session = TuningSession(tuner=tuner, workload=make_workload())
    first = session.run(4)
    assert len(first.history) == 4
    second = session.run(3)
    assert second is first
    assert len(second.history) == 7
    assert session.best_perf == second.best_perf


def test_session_best_before_run_rejected(trained_bundle):
    sim, normalizer, agents = trained_bundle
    session = TuningSession(tuner=HSTuner(sim), workload=make_workload())
    with pytest.raises(RuntimeError):
        _ = session.best_perf


def test_finished_tunio_tuner_is_freed_without_the_cyclic_collector(trained_bundle):
    import gc
    import weakref

    from repro.iostack import EvaluationCache

    sim, normalizer, agents = trained_bundle
    gc.disable()
    try:
        tuner = build_tunio(
            sim, agents, normalizer, rng=np.random.default_rng(5),
            cache=EvaluationCache(),
        )
        tuner.tune(flash(), max_iterations=4)
        tuner_ref, cache_ref = weakref.ref(tuner), weakref.ref(tuner.cache)
        del tuner
        assert tuner_ref() is None
        assert cache_ref() is None
    finally:
        gc.enable()
