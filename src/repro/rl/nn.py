"""A small, dependency-free neural-network library (the reproduction's
Keras).

Implements exactly what the paper's agents need: dense feed-forward
networks with ReLU/tanh hidden layers, mean-squared-error loss, and the
Adam optimizer, all in numpy with explicit seeding.  Networks are built
with :class:`MLP` and trained with :meth:`MLP.train_batch`; weights can
be exported/imported as plain dicts of arrays for checkpointing the
offline-trained agents.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.observability.profiling import maybe_span

__all__ = ["Dense", "MLP", "Adam", "ACTIVATIONS"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(x.dtype)


def _tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_grad(x: np.ndarray) -> np.ndarray:
    return 1.0 - np.tanh(x) ** 2


def _linear(x: np.ndarray) -> np.ndarray:
    return x


def _linear_grad(x: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sigmoid_grad(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 - s)


#: name -> (activation, derivative w.r.t. pre-activation)
ACTIVATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]] = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "linear": (_linear, _linear_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
}


class Dense:
    """One fully connected layer with He/Xavier initialisation.

    :meth:`backward` writes dL/dW and dL/db into :attr:`weight_grad` and
    :attr:`bias_grad`.  Inside an :class:`MLP` the parameters and the
    gradients are views into the network's flat vectors (see
    :meth:`bind`).
    """

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
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self.activation = activation
        self._act, self._act_grad = ACTIVATIONS[activation]
        # forward cache
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of parameters (weights plus biases)."""
        return self.weight.size + self.bias.size

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Move the parameters into ``params`` and the gradients into
        ``grads`` (flat arrays of :attr:`size` entries); from then on
        :attr:`weight`, :attr:`bias`, :attr:`weight_grad` and
        :attr:`bias_grad` are views into them."""
        split = self.weight.size
        params[:split] = self.weight.ravel()
        params[split:] = self.bias
        grads[:split] = self.weight_grad.ravel()
        grads[split:] = self.bias_grad
        shape = self.weight.shape
        self.weight, self.bias = params[:split].reshape(shape), params[split:]
        self.weight_grad, self.bias_grad = grads[:split].reshape(shape), grads[split:]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._z = x @ self.weight + self.bias
        return self._act(self._z)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Given dL/d(output), store dL/dW and dL/db in :attr:`weight_grad`
        and :attr:`bias_grad`, and return dL/d(input) -- or ``None`` when
        ``input_grad`` is false (a network's first layer has no use for
        it)."""
        if self._x is None or self._z is None:
            raise RuntimeError("backward called before forward")
        # A linear layer's activation derivative is all ones.
        dz = grad_out if self.activation == "linear" else grad_out * self._act_grad(self._z)
        np.matmul(self._x.T, dz, out=self.weight_grad)
        np.add.reduce(dz, axis=0, out=self.bias_grad)
        return dz @ self.weight.T if input_grad else None


class Adam:
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
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in self.parameters]
        self._t = 0

    def step(self, gradients: Sequence[np.ndarray]) -> None:
        if len(gradients) != len(self.parameters):
            raise ValueError("gradient count does not match parameter count")
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        b1t = 1.0 - b1**self._t
        b2t = 1.0 - b2**self._t
        for p, g, m, v, (a, b) in zip(
            self.parameters, gradients, self._m, self._v, self._scratch
        ):
            # In place, with the operations and their order of
            #   m = b1 m + (1 - b1) g
            #   v = b2 v + (1 - b2) g g
            #   p -= lr (m / b1t) / (sqrt(v / b2t) + eps)
            # so the result is bit-identical to the textbook expressions.
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.divide(m, b1t, out=a)
            a *= self.learning_rate
            np.divide(v, b2t, out=b)
            np.sqrt(b, out=b)
            b += self.epsilon
            a /= b
            p -= a


class MLP:
    """Feed-forward network trained with MSE + Adam.

    All parameters live in one flat vector and all gradients in another;
    every layer's weights and biases are views into them, so one Adam
    step updates the whole network and :meth:`copy_from` is one array
    copy.

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
        self.layers: list[Dense] = []
        for i, (a, b) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            act = output_activation if i == len(layer_sizes) - 2 else hidden_activation
            self.layers.append(Dense(a, b, act, rng))
        size = sum(layer.size for layer in self.layers)
        self._params = np.empty(size)
        self._grads = np.empty(size)
        self._bind_layers()
        self.optimizer = Adam([self._params], learning_rate=learning_rate)
        #: Loss of the most recent :meth:`train_batch` call, read by the
        #: guardrail monitors (a pure observer -- recording it changes
        #: nothing about training).
        self.last_loss: float | None = None

    def _bind_layers(self) -> None:
        start = 0
        for layer in self.layers:
            stop = start + layer.size
            layer.bind(self._params[start:stop], self._grads[start:stop])
            start = stop

    def __setstate__(self, state: dict) -> None:
        # Pickling and deepcopy copy each view separately; rebind them.
        self.__dict__.update(state)
        self._bind_layers()

    @property
    def last_grad_norm(self) -> float | None:
        """L2 norm of the most recent :meth:`train_batch` gradient
        (``None`` before the first), summed parameter by parameter."""
        if self.last_loss is None:
            return None
        return float(
            np.sqrt(
                sum(
                    float((g * g).sum())
                    for layer in self.layers
                    for g in (layer.weight_grad, layer.bias_grad)
                )
            )
        )

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
            for i in range(len(self.layers) - 1, -1, -1):
                grad = self.layers[i].backward(grad, input_grad=i > 0)
            self.optimizer.step([self._grads])
        self.last_loss = loss
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

    def copy_from(self, other: "MLP") -> None:
        """In-place weight copy (target-network sync)."""
        shapes = [layer.weight.shape for layer in self.layers]
        if shapes != [layer.weight.shape for layer in other.layers]:
            raise ValueError("cannot copy weights between different architectures")
        np.copyto(self._params, other._params)
