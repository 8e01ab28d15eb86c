"""Offline training: sweeps, PCA impact, checkpointing."""

import numpy as np
import pytest

from repro.core.offline_training import (
    impact_from_sweeps,
    load_agents,
    parameter_sweep,
    pretrain_subset_picker,
    save_agents,
)
from repro.core.objective import PerfNormalizer
from repro.core.smart_config import SmartConfigAgent
from repro.iostack import TUNED_SPACE, IOStackSimulator, NoiseModel, cori
from repro.workloads import flash


@pytest.fixture(scope="module")
def sweep():
    sim = IOStackSimulator(cori(4), NoiseModel(seed=5))
    return parameter_sweep(
        sim, flash(), rng=np.random.default_rng(5), random_samples=16, repeats=1
    )


def test_sweep_shapes(sweep):
    n_runs, n_params = sweep.configs.shape
    assert n_params == len(TUNED_SPACE)
    assert sweep.perfs.shape == (n_runs,)
    assert n_runs > len(TUNED_SPACE)  # axis sweeps alone exceed 12
    assert np.all(sweep.perfs > 0)
    assert sweep.workload_name == "flash-io"


def test_sweep_covers_axes(sweep):
    # Axis sweeps vary each parameter away from its default.
    spread = sweep.configs.std(axis=0)
    assert np.all(spread > 0)


def test_impact_scores_identify_striping(sweep):
    impact = impact_from_sweeps([sweep])
    assert impact.shape == (len(TUNED_SPACE),)
    assert impact.sum() == pytest.approx(1.0)
    ranked = [TUNED_SPACE.names[i] for i in np.argsort(impact)[::-1]]
    assert "striping_factor" in ranked[:3]


def test_impact_from_empty_rejected():
    with pytest.raises(ValueError):
        impact_from_sweeps([])


def test_pretrain_subset_picker_sets_scores(sweep, rng):
    norm = PerfNormalizer(700.0, 4)
    agent = SmartConfigAgent(normalizer=norm, rng=rng)
    impact = impact_from_sweeps([sweep])
    pretrain_subset_picker(agent, impact, episodes=10, rng=rng)
    assert np.allclose(agent.impact_scores, impact / impact.sum())
    subset = agent.subset_picker(500.0, None, iteration=0)
    assert subset


def test_save_load_roundtrip(tmp_path, trained_bundle):
    _, normalizer, agents = trained_bundle
    path = tmp_path / "agents.npz"
    save_agents(agents, path)
    restored = load_agents(path, normalizer)
    assert np.array_equal(restored.impact_scores, agents.impact_scores)
    assert np.array_equal(
        restored.smart_config.impact_scores, agents.smart_config.impact_scores
    )
    v = list(np.linspace(0.1, 1.0, 30))
    for t in range(5, 30, 6):
        assert restored.early_stopper.should_stop(v, t) == agents.early_stopper.should_stop(v, t)
