"""Bit identity of the flat-parameter MLP and the ring replay buffer
with the implementations they replaced.

``LegacyDense``, ``LegacyAdam`` and ``LegacyMLP`` are verbatim copies of
the per-array network: one Adam update per parameter array and a
list-of-gradients ``train_batch``.  The flat-vector network must train
to the same bits, report the same telemetry and, inside the offline
trainers, produce the same agents.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from repro.core.early_stopping import EarlyStoppingAgent, OfflineTrainingReport
from repro.observability.profiling import maybe_span
from repro.rl import qlearning
from repro.rl.curves import LogCurveGenerator
from repro.rl.nn import ACTIVATIONS, MLP
from repro.rl.replay import Transition

from .test_replay import LegacyReplayBuffer

pytestmark = pytest.mark.offline_fastpath


class LegacyDense:
    """One fully connected layer with He/Xavier initialisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str,
        rng: np.random.Generator,
    ):
        if in_features < 1 or out_features < 1:
            raise ValueError("layer dimensions must be positive")
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; known: {sorted(ACTIVATIONS)}"
            )
        scale = np.sqrt(2.0 / in_features) if activation == "relu" else np.sqrt(
            1.0 / in_features
        )
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.activation = activation
        self._act, self._act_grad = ACTIVATIONS[activation]
        # forward cache
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._z = x @ self.weight + self.bias
        return self._act(self._z)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Given dL/d(output), return (dL/d(input), dL/dW, dL/db)."""
        if self._x is None or self._z is None:
            raise RuntimeError("backward called before forward")
        dz = grad_out * self._act_grad(self._z)
        dw = self._x.T @ dz
        db = dz.sum(axis=0)
        dx = dz @ self.weight.T
        return dx, dw, db

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]


class LegacyAdam:
    """Adam optimizer over a flat list of parameter arrays."""

    def __init__(
        self,
        parameters: Sequence[np.ndarray],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._m = [np.zeros_like(p) for p in self.parameters]
        self._v = [np.zeros_like(p) for p in self.parameters]
        self._t = 0

    def step(self, gradients: Sequence[np.ndarray]) -> None:
        if len(gradients) != len(self.parameters):
            raise ValueError("gradient count does not match parameter count")
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(self.parameters, gradients, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)


class LegacyMLP:
    """Feed-forward network trained with MSE + Adam.

    Parameters
    ----------
    layer_sizes:
        ``[in, hidden..., out]`` -- at least two entries.
    hidden_activation:
        Activation for all hidden layers.
    output_activation:
        Activation for the final layer ("linear" for Q-values and
        regression).
    rng:
        Seeded generator for weight initialisation.
    learning_rate:
        Adam step size.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        learning_rate: float = 1e-3,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layers: list[LegacyDense] = []
        for i, (a, b) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            act = output_activation if i == len(layer_sizes) - 2 else hidden_activation
            self.layers.append(LegacyDense(a, b, act, rng))
        params = [p for layer in self.layers for p in layer.parameters]
        self.optimizer = LegacyAdam(params, learning_rate=learning_rate)
        #: Telemetry from the most recent :meth:`train_batch` call, read
        #: by the guardrail monitors (pure observers -- recording them
        #: changes nothing about training).
        self.last_loss: float | None = None
        self.last_grad_norm: float | None = None

    # -- inference -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; accepts (n, in) or (in,) and preserves the
        input's batch shape on output."""
        with maybe_span("nn.forward"):
            x = np.asarray(x, dtype=np.float64)
            single = x.ndim == 1
            if single:
                x = x[None, :]
            for layer in self.layers:
                x = layer.forward(x)
            return x[0] if single else x

    __call__ = forward

    # -- training --------------------------------------------------------------

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One MSE gradient step on a batch; returns the batch loss.

        ``y`` may contain NaN entries to mask outputs (used for Q-learning
        where only the taken action's value has a target).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        with maybe_span("nn.forward"):
            pred = x
            for layer in self.layers:
                pred = layer.forward(pred)
        if pred.shape != y.shape:
            raise ValueError(f"target shape {y.shape} != prediction shape {pred.shape}")
        mask = ~np.isnan(y)
        n = max(1, int(mask.sum()))
        diff = np.where(mask, pred - y, 0.0)
        loss = float((diff**2).sum() / n)
        grad = 2.0 * diff / n
        with maybe_span("nn.backward"):
            grads: list[np.ndarray] = []
            for layer in reversed(self.layers):
                grad, dw, db = layer.backward(grad)
                grads.append(db)
                grads.append(dw)
            grads.reverse()
            self.optimizer.step(grads)
        self.last_loss = loss
        self.last_grad_norm = float(
            np.sqrt(sum(float((g * g).sum()) for g in grads))
        )
        return loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> list[float]:
        """Minibatch training; returns per-epoch mean loss."""
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        n = x.shape[0]
        losses: list[float] = []
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                epoch_losses.append(self.train_batch(x[idx], y[idx]))
            losses.append(float(np.mean(epoch_losses)))
        return losses

    # -- checkpointing ------------------------------------------------------------

    def get_weights(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            out[f"w{i}"] = layer.weight.copy()
            out[f"b{i}"] = layer.bias.copy()
        return out

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            w, b = weights[f"w{i}"], weights[f"b{i}"]
            if w.shape != layer.weight.shape or b.shape != layer.bias.shape:
                raise ValueError(f"weight shape mismatch at layer {i}")
            layer.weight[...] = w
            layer.bias[...] = b

    def copy_from(self, other: "LegacyMLP") -> None:
        """In-place weight copy (target-network sync)."""
        self.set_weights(other.get_weights())


def _assert_same_network(new: MLP, old: LegacyMLP) -> None:
    got, want = new.get_weights(), old.get_weights()
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize(
    "sizes, hidden, output",
    [([5, 32, 32, 3], "relu", "linear"), ([4, 8, 2], "tanh", "sigmoid")],
)
def test_mlp_trains_bit_identically_to_legacy(sizes, hidden, output):
    rng = np.random.default_rng(11)
    new = MLP(sizes, rng, hidden, output, learning_rate=3e-3)
    new_target = MLP(sizes, rng, hidden, output)
    rng = np.random.default_rng(11)
    old = LegacyMLP(sizes, rng, hidden, output, learning_rate=3e-3)
    old_target = LegacyMLP(sizes, rng, hidden, output)
    _assert_same_network(new, old)
    _assert_same_network(new_target, old_target)

    data = np.random.default_rng(5)
    for step in range(300):
        x = data.normal(size=(int(data.integers(1, 40)), sizes[0]))
        y = data.normal(size=(x.shape[0], sizes[-1]))
        y[data.random(y.shape) < 0.5] = np.nan  # Q-learning style masks
        assert new.train_batch(x, y) == old.train_batch(x, y)
        assert new.last_loss == old.last_loss
        assert new.last_grad_norm == old.last_grad_norm
        _assert_same_network(new, old)
        if step % 25 == 0:
            new_target.copy_from(new)
            old_target.copy_from(old)
            _assert_same_network(new_target, old_target)
            assert np.array_equal(new_target(x), old_target(x))


def _legacy_observe_batch(
    self,
    states: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_states: np.ndarray,
    dones: np.ndarray,
) -> None:
    """``QLearningAgent.observe_batch`` before the ring buffer, verbatim:
    one ``Transition`` per row."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    next_states = np.atleast_2d(np.asarray(next_states, dtype=float))
    if states.shape[1] != self.config.state_dim:
        raise ValueError(
            f"state dim {states.shape[1]} != ({self.config.state_dim},)"
        )
    actions = np.broadcast_to(actions, (states.shape[0],))
    rewards = np.broadcast_to(rewards, (states.shape[0],))
    dones = np.broadcast_to(dones, (states.shape[0],))
    for i in range(states.shape[0]):
        self.replay.push(
            Transition(
                state=states[i],
                action=int(actions[i]),
                reward=float(rewards[i]),
                next_state=next_states[i],
                done=bool(dones[i]),
            )
        )


def _train_stopper(batched: bool) -> tuple[EarlyStoppingAgent, OfflineTrainingReport]:
    agent = EarlyStoppingAgent(rng=np.random.default_rng(3))
    report = agent.train_offline(
        LogCurveGenerator(n_iterations=12),
        max_epochs=2,
        episodes_per_epoch=4,
        validation_curves=4,
        batched=batched,
    )
    return agent, report


@pytest.mark.parametrize("batched", [False, True], ids=["serial", "batched"])
def test_train_offline_matches_legacy_classes(batched, monkeypatch):
    agent, report = _train_stopper(batched)
    monkeypatch.setattr(qlearning, "MLP", LegacyMLP)
    monkeypatch.setattr(qlearning, "ReplayBuffer", LegacyReplayBuffer)
    monkeypatch.setattr(qlearning.QLearningAgent, "observe_batch", _legacy_observe_batch)
    legacy, legacy_report = _train_stopper(batched)
    assert isinstance(legacy.agent.q_network, LegacyMLP)
    assert report == legacy_report
    _assert_same_network(agent.agent.q_network, legacy.agent.q_network)
    _assert_same_network(agent.agent.target_network, legacy.agent.target_network)
