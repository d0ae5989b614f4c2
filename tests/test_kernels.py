"""Single-node kernels against the composites of elementwise ops they replace.

Each oracle below builds its layer out of recorded primitives, one graph node
per elementwise step. The kernel must give the same forward bits and the
same gradients to 1e-12 relative (the backward formulas differ, so rounding
may differ in the last places).
"""

import numpy as np
import pytest

from bihand import nn, ssm
from bihand.tensor import Tensor, concat, matmul, reshape


def layer_norm_oracle(x, gamma, beta, axes, eps):
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    normed = centered / (var + eps).sqrt()
    if axes == (-1,):
        return normed * gamma + beta
    shape = (gamma.shape[0], 1, 1)
    return normed * reshape(gamma, shape) + reshape(beta, shape)


def softmax_oracle(x, axis):
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def conv1d_oracle(x, weight, bias):
    seq, ch = x.shape
    k = weight.shape[1]
    xp = concat([Tensor(np.zeros((k - 1, ch))), x], axis=0)
    acc = None
    for j in range(k):
        term = xp[j:j + seq, :] * weight[:, j]
        acc = term if acc is None else acc + term
    return acc + bias


def abs_oracle(x):
    return x.relu() + (-x).relu()


def linear_oracle(x, weight, bias):
    n_in, n_out = weight.shape
    flat = x if x.ndim == 2 else reshape(x, (1, n_in))
    out = matmul(flat, weight) + bias
    return out if x.ndim == 2 else reshape(out, (n_out,))


def _leaf(rng, shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def _layernorm_case(axes, x_shape, features):
    def build(rng):
        x = _leaf(rng, x_shape)
        gamma, beta = _leaf(rng, features, 0.5, 1.5), _leaf(rng, features, -1, 1)
        return (lambda: nn.layer_norm(x, gamma, beta, axes, 1e-5),
                lambda: layer_norm_oracle(x, gamma, beta, axes, 1e-5), [x, gamma, beta])
    return build


def _softmax_case(shape, axis):
    def build(rng):
        x = _leaf(rng, shape, -3, 3)
        return lambda: nn.softmax(x, axis=axis), lambda: softmax_oracle(x, axis), [x]
    return build


def _conv1d_case(seq, ch, k):
    def build(rng):
        x, w, b = _leaf(rng, (seq, ch)), _leaf(rng, (ch, k), -1, 1), _leaf(rng, ch, -1, 1)
        return (lambda: ssm.depthwise_conv1d_causal(x, w, b),
                lambda: conv1d_oracle(x, w, b), [x, w, b])
    return build


def _abs_case(rng):
    data = rng.uniform(-2, 2, (4, 5))
    data[0, :2] = 0.0  # the kink, where both give a zero subgradient
    x = Tensor(data, requires_grad=True)
    return lambda: abs(x), lambda: abs_oracle(x), [x]


def _linear_case(x_shape):
    def build(rng):
        x, w, b = _leaf(rng, x_shape), _leaf(rng, (4, 3)), _leaf(rng, 3, -1, 1)
        return lambda: nn.linear(x, w, b), lambda: linear_oracle(x, w, b), [x, w, b]
    return build


CASES = {
    "layernorm_trailing": _layernorm_case((-1,), (3, 6), 6),
    "layernorm_trailing_1d": _layernorm_case((-1,), (6,), 6),
    "layernorm_spatial": _layernorm_case((1, 2), (3, 4, 5), 3),
    "softmax_rows": _softmax_case((3, 5), 1),
    "softmax_columns": _softmax_case((4, 3), 0),
    "conv1d": _conv1d_case(6, 3, 4),
    "conv1d_short_sequence": _conv1d_case(2, 3, 4),
    "abs": _abs_case,
    "linear_2d": _linear_case((5, 4)),
    "linear_1d": _linear_case((4,)),
}


def _grads(fn, leaves, probe):
    for leaf in leaves:
        leaf.zero_grad()
    (fn() * probe).sum().backward()
    return [leaf.grad.copy() for leaf in leaves]


@pytest.mark.parametrize("name", list(CASES))
def test_kernel_matches_composite_oracle(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    kernel, oracle, leaves = CASES[name](rng)
    got, want = kernel(), oracle()
    assert np.array_equal(got.data, want.data)
    probe = Tensor(rng.uniform(-1, 1, want.shape))
    for g, w in zip(_grads(kernel, leaves, probe), _grads(oracle, leaves, probe)):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
