"""Experience replay and the paper's delayed-reward mechanism.

Both TunIO agents "utilize a 5-iteration delay on the reward function to
avoid bias introduced by short-term gains": the reward credited to the
decision made at iteration *t* is computed from what is known at
iteration *t + 5*.  :class:`DelayedRewardBuffer` holds pending
transitions until their reward matures, then releases them into a
standard :class:`ReplayBuffer` for minibatch training.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = ["Transition", "ReplayBuffer", "DelayedRewardBuffer"]


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s', done) tuple."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


class ReplayBuffer:
    """Bounded FIFO store with uniform minibatch sampling.

    Transitions live in five ring arrays of ``capacity`` rows (states,
    actions, rewards, next states, dones), allocated on the first push.
    A buffer holds one state shape, fixed by that push; a push whose
    ``state`` or ``next_state`` has another shape raises ``ValueError``.
    Position ``i`` of the oldest-first order is ring slot
    ``(oldest + i) % capacity``, so a sample draws the same transitions,
    with the same RNG use, as a ``deque(maxlen=capacity)`` of the same
    pushes would.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._arrays: tuple[np.ndarray, ...] = ()
        self._next = 0  # ring slot the next push writes
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def _rings_for(
        self, states: np.ndarray, next_states: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The ring arrays, after checking that ``states`` and
        ``next_states`` are both ``(n, *state_shape)``; the first call
        allocates them for its state shape."""
        if not self._arrays:
            shape = (self.capacity, *states.shape[1:])
            self._arrays = (
                np.empty(shape),
                np.empty(self.capacity, dtype=np.int64),
                np.empty(self.capacity),
                np.empty(shape),
                np.empty(self.capacity, dtype=bool),
            )
        expected = self._arrays[0].shape[1:]
        for name, arr in (("state", states), ("next_state", next_states)):
            if arr.shape[1:] != expected:
                raise ValueError(
                    f"{name} shape {arr.shape[1:]} != buffer state shape {expected}"
                )
        if next_states.shape[0] != states.shape[0]:
            raise ValueError(
                f"{next_states.shape[0]} next states for {states.shape[0]} states"
            )
        return self._arrays

    def push(self, transition: Transition) -> None:
        state = np.asarray(transition.state, dtype=float)[None]
        next_state = np.asarray(transition.next_state, dtype=float)[None]
        states, actions, rewards, next_states, dones = self._rings_for(state, next_state)
        i = self._next
        states[i] = state[0]
        actions[i] = transition.action
        rewards[i] = transition.reward
        next_states[i] = next_state[0]
        dones[i] = transition.done
        self._next = (i + 1) % self.capacity
        self._len = min(self._len + 1, self.capacity)

    def push_arrays(
        self,
        states: np.ndarray,
        actions: np.ndarray | int,
        rewards: np.ndarray | float,
        next_states: np.ndarray,
        dones: np.ndarray | bool,
    ) -> None:
        """Push one transition per row of ``states``, in row order, as
        :meth:`push` would one by one; ``actions``, ``rewards`` and
        ``dones`` may be scalars shared by every row."""
        states = np.asarray(states, dtype=float)
        next_states = np.asarray(next_states, dtype=float)
        rings = self._rings_for(states, next_states)
        n = states.shape[0]
        rows = [
            states,
            np.broadcast_to(actions, (n,)),
            np.broadcast_to(rewards, (n,)),
            next_states,
            np.broadcast_to(dones, (n,)),
        ]
        cap = self.capacity
        if n > cap:
            # Only the newest ``capacity`` rows would survive.
            rows = [r[n - cap :] for r in rows]
        k = min(n, cap)
        first = min(k, cap - self._next)
        for ring, r in zip(rings, rows):
            ring[self._next : self._next + first] = r[:first]
            ring[: k - first] = r[first:]
        self._next = (self._next + k) % cap
        self._len = min(self._len + k, cap)

    def extend(self, transitions: Iterable[Transition]) -> None:
        for t in transitions:
            self.push(t)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        states, actions, rewards, next_states, dones = self.sample_arrays(batch_size, rng)
        return [
            Transition(states[i], int(a), float(r), next_states[i], bool(d))
            for i, (a, r, d) in enumerate(zip(actions, rewards, dones))
        ]

    def sample_arrays(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniform minibatch as stacked arrays: ``(states, actions,
        rewards, next_states, dones)``.

        One ``integers`` draw over the oldest-first order, mapped to ring
        slots; :meth:`sample` makes the same draw, so swapping one for the
        other leaves every downstream random stream untouched.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not self._len:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(self._len, size=min(batch_size, self._len))
        oldest = (self._next - self._len) % self.capacity
        slots = (idx + oldest) % self.capacity if oldest else idx
        states, actions, rewards, next_states, dones = (
            ring.take(slots, axis=0) for ring in self._arrays
        )
        return states, actions, rewards, next_states, dones

    def clear(self) -> None:
        self._next = self._len = 0


@dataclass
class _Pending:
    state: np.ndarray
    action: int
    #: Iteration at which the decision was made.
    born_at: int


class DelayedRewardBuffer:
    """Matures rewards ``delay`` iterations after the decision.

    Usage: call :meth:`remember` when the agent acts, then call
    :meth:`mature` every iteration with the current iteration index and a
    reward function; transitions whose delay has elapsed are emitted with
    a reward computed *now* (from the performance trajectory since the
    decision), which is exactly the paper's bias-avoidance scheme.
    """

    def __init__(self, delay: int = 5):
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay
        self._pending: deque[_Pending] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def remember(self, state: np.ndarray, action: int, iteration: int) -> None:
        self._pending.append(_Pending(np.asarray(state, dtype=float), action, iteration))

    def mature(
        self,
        iteration: int,
        reward_fn: Callable[[int, int], float],
        next_state: np.ndarray,
        done: bool = False,
    ) -> list[Transition]:
        """Release transitions whose reward has matured.

        ``reward_fn(born_at, iteration)`` computes the delayed reward for
        a decision made at ``born_at`` as seen from ``iteration``.  On
        ``done``, everything pending matures immediately (episode over).
        """
        out: list[Transition] = []
        next_state = np.asarray(next_state, dtype=float)
        while self._pending and (
            done or iteration - self._pending[0].born_at >= self.delay
        ):
            p = self._pending.popleft()
            out.append(
                Transition(
                    state=p.state,
                    action=p.action,
                    reward=float(reward_fn(p.born_at, iteration)),
                    next_state=next_state,
                    done=done,
                )
            )
        return out

    def clear(self) -> None:
        self._pending.clear()
