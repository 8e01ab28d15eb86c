"""Smart Configuration Generation (the subset picker)."""

import numpy as np
import pytest

from repro.core.objective import PerfNormalizer
from repro.core.smart_config import SmartConfigAgent, SmartConfigSettings
from repro.iostack import TUNED_SPACE


@pytest.fixture
def agent(rng):
    norm = PerfNormalizer(single_node_bandwidth_mbps=700.0, num_nodes=4)
    return SmartConfigAgent(normalizer=norm, rng=rng)


def test_settings_validation():
    with pytest.raises(ValueError):
        SmartConfigSettings(subset_sizes=())
    with pytest.raises(ValueError):
        SmartConfigSettings(subset_sizes=(0,))
    with pytest.raises(ValueError):
        SmartConfigSettings(swap_probability=1.5)


def test_initial_impact_uniform(agent):
    assert np.allclose(agent.impact_scores, 1 / 12)


def test_set_impact_scores_normalises(agent):
    scores = np.arange(1, 13, dtype=float)
    agent.set_impact_scores(scores)
    assert agent.impact_scores.sum() == pytest.approx(1.0)
    assert agent.ranked_parameters()[0] == TUNED_SPACE.names[11]


def test_set_impact_scores_validation(agent):
    with pytest.raises(ValueError):
        agent.set_impact_scores(np.ones(5))
    with pytest.raises(ValueError):
        agent.set_impact_scores(np.zeros(12))
    with pytest.raises(ValueError):
        agent.set_impact_scores(-np.ones(12))


def test_subset_picker_returns_valid_subsets(agent):
    subset = agent.subset_picker(500.0, None, iteration=0)
    assert len(subset) in agent.subset_sizes
    assert len(set(subset)) == len(subset)
    assert all(name in TUNED_SPACE for name in subset)


def test_top_parameter_always_included(agent):
    scores = np.full(12, 0.01)
    scores[3] = 1.0
    agent.set_impact_scores(scores)
    top = TUNED_SPACE.names[3]
    for it in range(20):
        subset = agent.subset_picker(500.0 + it, subset_from := None, iteration=it)
        assert top in subset


def test_credit_raises_winners(agent):
    before = agent.impact_scores[TUNED_SPACE.index_of_name("cb_nodes")]
    agent.credit_subset(("cb_nodes",), perf_delta_norm=0.5)
    after = agent.impact_scores[TUNED_SPACE.index_of_name("cb_nodes")]
    assert after > before
    assert agent.impact_scores.sum() == pytest.approx(1.0)


def test_debit_erodes_fruitless_subsets(agent):
    idx = TUNED_SPACE.index_of_name("mdc_config")
    before = agent.impact_scores[idx]
    agent.credit_subset(("mdc_config",), perf_delta_norm=0.0)
    assert agent.impact_scores[idx] < before


def test_empty_subset_credit_is_noop(agent):
    scores = agent.impact_scores.copy()
    agent.credit_subset((), 1.0)
    assert np.array_equal(agent.impact_scores, scores)


def test_reset_episode_keeps_learning(agent):
    agent.credit_subset(("cb_nodes",), 0.5)
    scores = agent.impact_scores.copy()
    agent.subset_picker(100.0, None, iteration=0)
    agent.reset_episode()
    assert np.array_equal(agent.impact_scores, scores)  # persists


def test_state_roundtrip(agent, rng):
    agent.credit_subset(("cb_nodes",), 0.7)
    state = agent.get_state()
    norm = PerfNormalizer(700.0, 4)
    other = SmartConfigAgent(normalizer=norm, rng=np.random.default_rng(5))
    other.set_state(state)
    assert np.allclose(other.impact_scores, agent.impact_scores)
    ctx = np.zeros(14)
    assert np.allclose(
        other.observer.observe_state(ctx), agent.observer.observe_state(ctx)
    )


def test_set_state_installs_checkpointed_scores_verbatim(agent, rng):
    """A checkpoint round trip must not re-normalise: dividing these
    sum-normalised scores by their sum again moves them by an ulp."""
    scores = np.arange(1, 13, dtype=float) / 78.0
    assert not np.array_equal(scores, scores / scores.sum())
    state = {**agent.get_state(), "impact_scores": scores}
    other = SmartConfigAgent(normalizer=agent.normalizer, rng=rng)
    other.set_state(state)
    assert np.array_equal(other.impact_scores, scores)
    assert other.impact_scores is not scores  # a copy, not an alias


def test_set_state_validates_scores(agent, rng):
    state = agent.get_state()
    for bad in (np.ones(5), np.zeros(12), -np.ones(12)):
        with pytest.raises(ValueError):
            agent.set_state({**state, "impact_scores": bad})


def test_no_normalizer_falls_back(rng):
    agent = SmartConfigAgent(rng=rng)
    subset = agent.subset_picker(1000.0, None, iteration=0)
    assert subset
