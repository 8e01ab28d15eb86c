"""Replay buffers and the 5-iteration delayed-reward mechanism."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl import DelayedRewardBuffer, ReplayBuffer, Transition


def tr(reward=0.0):
    s = np.zeros(2)
    return Transition(s, 0, reward, s, False)


class _InOrder:
    """Stands in for a Generator whose draws are 0, 1, 2, ..., so a
    sample reads the buffer oldest first."""

    def integers(self, high, size):
        return np.arange(size)


def test_replay_fifo_capacity():
    buf = ReplayBuffer(capacity=3)
    for i in range(5):
        buf.push(tr(reward=float(i)))
    assert len(buf) == 3
    assert [t.reward for t in buf.sample(3, _InOrder())] == [2.0, 3.0, 4.0]


class LegacyReplayBuffer:
    """The deque-of-``Transition`` replay buffer the ring arrays replaced,
    verbatim: the reference for sampled transitions and RNG use."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._buf: deque[Transition] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._buf)

    def push(self, transition: Transition) -> None:
        self._buf.append(transition)

    def extend(self, transitions):
        for t in transitions:
            self.push(t)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not self._buf:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(len(self._buf), size=min(batch_size, len(self._buf)))
        return [self._buf[int(i)] for i in idx]

    def sample_arrays(self, batch_size, rng):
        batch = self.sample(batch_size, rng)
        return (
            np.stack([t.state for t in batch]),
            np.array([t.action for t in batch]),
            np.array([t.reward for t in batch]),
            np.stack([t.next_state for t in batch]),
            np.array([t.done for t in batch]),
        )

    def clear(self) -> None:
        self._buf.clear()


def _transitions(seed: int, n: int, dim: int = 3) -> list[Transition]:
    rng = np.random.default_rng(seed)
    return [
        Transition(
            rng.normal(size=dim),
            int(rng.integers(4)),
            float(rng.normal()),
            rng.normal(size=dim),
            bool(rng.random() < 0.3),
        )
        for _ in range(n)
    ]


def _assert_same_samples(ring, legacy, batch_size, seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for got, want in zip(ring.sample(batch_size, a), legacy.sample(batch_size, b),
                         strict=True):
        assert np.array_equal(got.state, want.state)
        assert (got.action, got.reward, got.done) == (want.action, want.reward, want.done)
        assert np.array_equal(got.next_state, want.next_state)
    for got, want in zip(ring.sample_arrays(batch_size, a),
                         legacy.sample_arrays(batch_size, b), strict=True):
        assert np.array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.offline_fastpath
@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 8),
    fill=st.floats(0.0, 3.0),
    refill=st.floats(0.0, 3.0),
    batch=st.floats(1.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_ring_buffer_matches_deque_reference(capacity, fill, refill, batch, seed):
    ring, legacy = ReplayBuffer(capacity), LegacyReplayBuffer(capacity)
    for phase, share in enumerate((fill, refill)):
        if phase:
            ring.clear()
            legacy.clear()
        for t in _transitions(seed + phase, round(share * capacity)):
            ring.push(t)
            legacy.push(t)
        assert len(ring) == len(legacy)
        if len(legacy):
            _assert_same_samples(ring, legacy, max(1, round(batch * len(legacy))), seed)


@pytest.mark.offline_fastpath
@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(1, 8),
    chunks=st.lists(st.integers(0, 12), max_size=5),
    seed=st.integers(0, 2**16),
)
def test_push_arrays_matches_row_pushes(capacity, chunks, seed):
    ring, legacy = ReplayBuffer(capacity), LegacyReplayBuffer(capacity)
    for i, n in enumerate(chunks):
        rows = _transitions(seed + i, n)
        legacy.extend(rows)
        ring.push_arrays(
            np.array([t.state for t in rows]).reshape(n, 3),
            np.array([t.action for t in rows], dtype=int),
            np.array([t.reward for t in rows]),
            np.array([t.next_state for t in rows]).reshape(n, 3),
            np.array([t.done for t in rows], dtype=bool),
        )
        assert len(ring) == len(legacy)
    if len(legacy):
        _assert_same_samples(ring, legacy, 2 * len(legacy), seed)


def test_push_arrays_broadcasts_scalars():
    buf = ReplayBuffer(4)
    buf.push_arrays(np.ones((2, 3)), 1, 0.5, np.zeros((2, 3)), True)
    states, actions, rewards, next_states, dones = buf.sample_arrays(2, _InOrder())
    assert np.array_equal(actions, [1, 1]) and np.array_equal(rewards, [0.5, 0.5])
    assert np.array_equal(dones, [True, True])


def test_replay_rejects_mismatched_state_shapes():
    buf = ReplayBuffer(4)
    buf.push(tr())
    s = np.zeros(2)
    with pytest.raises(ValueError, match="next_state"):
        buf.push(Transition(s, 0, 0.0, np.zeros(1), False))
    with pytest.raises(ValueError, match="state"):
        buf.push(Transition(np.zeros(3), 0, 0.0, s, False))
    with pytest.raises(ValueError, match="next_state"):
        buf.push_arrays(np.zeros((2, 2)), 0, 0.0, np.zeros((2, 1)), False)
    with pytest.raises(ValueError, match="next states"):
        buf.push_arrays(np.zeros((2, 2)), 0, 0.0, np.zeros((1, 2)), False)
    assert len(buf) == 1
    fresh = ReplayBuffer(4)
    with pytest.raises(ValueError, match="next_state"):
        fresh.push(Transition(s, 0, 0.0, np.zeros(1), False))


def test_replay_sampling(rng):
    buf = ReplayBuffer()
    buf.extend(tr(float(i)) for i in range(10))
    batch = buf.sample(4, rng)
    assert len(batch) == 4
    big = buf.sample(100, rng)
    assert len(big) == 10


def test_replay_validation(rng):
    buf = ReplayBuffer()
    with pytest.raises(ValueError):
        buf.sample(1, rng)
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=0)
    buf.push(tr())
    with pytest.raises(ValueError):
        buf.sample(0, rng)
    buf.clear()
    assert len(buf) == 0


def test_delayed_rewards_mature_after_delay():
    buf = DelayedRewardBuffer(delay=5)
    s = np.zeros(1)
    buf.remember(s, 0, iteration=0)
    buf.remember(s, 1, iteration=1)

    matured_early = buf.mature(4, lambda b, n: 99.0, s)
    assert matured_early == []

    matured = buf.mature(5, lambda born, now: float(now - born), s)
    assert len(matured) == 1
    assert matured[0].action == 0
    assert matured[0].reward == 5.0

    matured = buf.mature(6, lambda born, now: float(now - born), s)
    assert len(matured) == 1 and matured[0].action == 1


def test_done_flushes_everything():
    buf = DelayedRewardBuffer(delay=5)
    s = np.zeros(1)
    for t in range(3):
        buf.remember(s, t, iteration=t)
    matured = buf.mature(3, lambda b, n: 1.0, s, done=True)
    assert len(matured) == 3
    assert all(t.done for t in matured)
    assert len(buf) == 0


def test_delay_zero_matures_immediately():
    buf = DelayedRewardBuffer(delay=0)
    s = np.zeros(1)
    buf.remember(s, 0, iteration=7)
    assert len(buf.mature(7, lambda b, n: 1.0, s)) == 1


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        DelayedRewardBuffer(delay=-1)
