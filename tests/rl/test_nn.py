"""Neural-network substrate: layers, backprop, Adam, checkpointing."""

import copy
import pickle

import numpy as np
import pytest

from repro.rl.nn import ACTIVATIONS, Adam, Dense, MLP


def test_known_activations():
    assert set(ACTIVATIONS) == {"relu", "tanh", "linear", "sigmoid"}


def test_activation_gradients_numerically(rng):
    x = rng.normal(size=(50,))
    eps = 1e-6
    for name, (fn, grad) in ACTIVATIONS.items():
        numeric = (fn(x + eps) - fn(x - eps)) / (2 * eps)
        assert np.allclose(grad(x), numeric, atol=1e-4), name


def test_dense_forward_shape(rng):
    layer = Dense(4, 3, "relu", rng)
    out = layer.forward(rng.normal(size=(10, 4)))
    assert out.shape == (10, 3)
    assert np.all(out >= 0)


def test_dense_rejects_bad_args(rng):
    with pytest.raises(ValueError):
        Dense(0, 3, "relu", rng)
    with pytest.raises(ValueError):
        Dense(3, 3, "softmax", rng)


def test_dense_backward_before_forward(rng):
    layer = Dense(2, 2, "linear", rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((1, 2)))


def test_mlp_gradient_check(rng):
    """Numeric gradient check through a 2-layer net."""
    net = MLP([3, 5, 2], rng, hidden_activation="tanh", learning_rate=1e-9)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))

    def loss():
        pred = np.atleast_2d(net(x))
        return float(((pred - y) ** 2).mean())

    base_w = net.layers[0].weight.copy()
    eps = 1e-5
    # analytic gradient via a train step with tiny LR: capture grads
    # indirectly by comparing loss decrease direction on one weight.
    i, j = 1, 2
    net.layers[0].weight[i, j] = base_w[i, j] + eps
    up = loss()
    net.layers[0].weight[i, j] = base_w[i, j] - eps
    down = loss()
    numeric = (up - down) / (2 * eps)
    net.layers[0].weight[i, j] = base_w[i, j]
    # One SGD-ish step should move the weight against the gradient sign.
    before = net.layers[0].weight[i, j]
    net.train_batch(x, y)
    after = net.layers[0].weight[i, j]
    if abs(numeric) > 1e-6:
        assert np.sign(before - after) == np.sign(numeric)


def test_mlp_learns_linear_function(rng):
    net = MLP([2, 32, 1], rng, learning_rate=3e-3)
    x = rng.uniform(-1, 1, (256, 2))
    y = x[:, :1] * 2.0 - x[:, 1:] * 0.5
    losses = net.fit(x, y, epochs=60, batch_size=32, rng=rng)
    assert losses[-1] < 0.01
    assert losses[-1] < losses[0]


def test_mlp_single_sample_shape(rng):
    net = MLP([3, 4, 2], rng)
    out = net(np.zeros(3))
    assert out.shape == (2,)
    batch = net(np.zeros((5, 3)))
    assert batch.shape == (5, 2)


def test_nan_masked_targets_train_only_their_head(rng):
    net = MLP([2, 8, 3], rng, learning_rate=1e-2)
    x = rng.normal(size=(16, 2))
    y = np.full((16, 3), np.nan)
    y[:, 1] = 1.0  # only head 1 has targets
    for _ in range(600):
        net.train_batch(x, y)
    after = np.asarray(net(x))
    assert np.allclose(after[:, 1], 1.0, atol=0.2)


def test_all_nan_targets_are_a_noop(rng):
    net = MLP([2, 8, 3], rng, learning_rate=1e-2)
    x = rng.normal(size=(8, 2))
    before = {k: v.copy() for k, v in net.get_weights().items()}
    loss = net.train_batch(x, np.full((8, 3), np.nan))
    assert loss == 0.0
    for k, v in net.get_weights().items():
        assert np.allclose(v, before[k])


def test_grad_norm_is_none_before_first_train_batch(rng):
    net = MLP([2, 4, 1], rng)
    assert net.last_loss is None and net.last_grad_norm is None
    net.train_batch(np.ones((3, 2)), np.zeros((3, 1)))
    assert net.last_grad_norm is not None and net.last_grad_norm > 0


def test_weight_roundtrip(rng):
    a = MLP([2, 4, 1], rng)
    b = MLP([2, 4, 1], rng)
    b.set_weights(a.get_weights())
    x = rng.normal(size=(6, 2))
    assert np.allclose(a(x), b(x))
    b.copy_from(a)
    assert np.allclose(a(x), b(x))


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
    ids=["deepcopy", "pickle"],
)
def test_copied_network_trains_its_own_layers(rng, clone):
    net = MLP([2, 4, 1], rng)
    twin = clone(net)
    x, y = rng.normal(size=(5, 2)), rng.normal(size=(5, 1))
    before = net.get_weights()
    net.train_batch(x, y)
    twin.train_batch(x, y)
    assert not np.array_equal(net.get_weights()["w0"], before["w0"])
    for key, value in net.get_weights().items():
        assert np.array_equal(twin.get_weights()[key], value), key
    assert np.array_equal(twin(x), net(x))


def test_weight_shape_mismatch(rng):
    a = MLP([2, 4, 1], rng)
    b = MLP([2, 5, 1], rng)
    with pytest.raises(ValueError):
        b.set_weights(a.get_weights())
    with pytest.raises(ValueError):
        b.copy_from(a)


def test_mlp_validation(rng):
    with pytest.raises(ValueError):
        MLP([3], rng)
    net = MLP([2, 2], rng)
    with pytest.raises(ValueError):
        net.train_batch(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        net.fit(np.zeros((2, 2)), np.zeros((2, 2)), epochs=0, batch_size=1, rng=rng)


def test_adam_validation():
    with pytest.raises(ValueError):
        Adam([np.zeros(2)], learning_rate=0)
    opt = Adam([np.zeros(2)])
    with pytest.raises(ValueError):
        opt.step([np.zeros(2), np.zeros(2)])


def test_adam_descends_quadratic():
    w = np.array([5.0, -3.0])
    opt = Adam([w], learning_rate=0.1)
    for _ in range(500):
        opt.step([2 * w])  # grad of ||w||^2
    assert np.linalg.norm(w) < 0.1
