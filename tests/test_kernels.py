"""Single-node kernels against the composites of elementwise ops they replace.

Each oracle below builds its layer out of recorded primitives, one graph node
per elementwise step, except two earlier single-node kernels:
``scan_loop_oracle``, the selective scan that steps the whole forward and
backward update through a Python loop over the sequence, and
``conv2d_im2col_oracle``, the convolution that runs im2col and col2im for
every kernel size. The kernel must give the same forward bits and the same
gradients to 1e-12 relative (the backward formulas differ, so rounding may
differ in the last places).

``conv2d_captured_oracle`` and ``scan_captured_oracle`` are the convolution
and scan kernels as they were when their rules kept the padded input and the
decay factors alive from the forward. The kernels now rebuild those arrays in
the backward, and must give the same gradient bits. So must ``nn.attention``
against ``attention_composite_oracle``, the transpose, matmul and softmax
nodes it replaced, whose rules kept a transposed copy of the probabilities.
"""

import numpy as np
import pytest

from bihand import nn, ssm
from bihand import train as tr
from bihand.pipeline import BimanualHandNet, PipelineConfig
from bihand.tensor import (Tensor, _accum, _sigmoid, concat, graph_op, matmul, relu, reshape,
                           silu, transpose)


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


def scan_loop_oracle(coeffs, x):
    delta, a, b, c, d_skip = coeffs.delta, coeffs.a, coeffs.b, coeffs.c, coeffs.d_skip
    seq, ch = x.shape
    state = a.shape[1]
    abar = np.exp(delta.data[:, :, None] * a.data[None, :, :])
    binc = delta.data[:, :, None] * b.data[:, None, :] * x.data[:, :, None]
    hs = np.empty((seq, ch, state))
    h = np.zeros((ch, state))
    for t in range(seq):
        h = abar[t] * h + binc[t]
        hs[t] = h
    y = np.einsum("ts,tds->td", c.data, hs) + d_skip.data[None, :] * x.data

    def bw(gy):
        gh = np.zeros((ch, state))
        dabar = np.empty_like(abar)
        dbinc = np.empty_like(abar)
        for t in range(seq - 1, -1, -1):
            gh = gh + gy[t, :, None] * c.data[t, None, :]
            dabar[t] = gh * hs[t - 1] if t > 0 else 0.0
            dbinc[t] = gh
            gh = gh * abar[t]
        if x.requires_grad:
            dx = np.einsum("tds,td,ts->td", dbinc, delta.data, b.data)
            dx += gy * d_skip.data[None, :]
            _accum(x, dx)
        if delta.requires_grad:
            dd = np.einsum("tds,tds,ds->td", dabar, abar, a.data)
            dd += np.einsum("tds,ts,td->td", dbinc, b.data, x.data)
            _accum(delta, dd)
        if a.requires_grad:
            _accum(a, np.einsum("tds,tds,td->ds", dabar, abar, delta.data))
        if b.requires_grad:
            _accum(b, np.einsum("tds,td,td->ts", dbinc, delta.data, x.data))
        if c.requires_grad:
            _accum(c, np.einsum("td,tds->ts", gy, hs))
        if d_skip.requires_grad:
            _accum(d_skip, np.einsum("td,td->d", gy, x.data))
    return graph_op(y, (x, delta, a, b, c, d_skip), "scan", bw)


def conv2d_im2col_oracle(x, weight, bias, stride=1, padding=0):
    cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input {x.shape} vs weight {weight.shape}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError(f"conv2d spatial dims {x.shape} too small for kernel {weight.shape} "
                         f"with padding {padding}")
    s, p = stride, padding
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1

    xp = np.pad(x.data, ((0, 0), (p, p), (p, p))) if p else x.data
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(
        win[:, ::s, ::s].transpose(0, 3, 4, 1, 2)).reshape(cin * kh * kw, oh * ow)
    w2 = weight.data.reshape(cout, cin * kh * kw)
    out_data = (w2 @ cols + bias.data[:, None]).reshape(cout, oh, ow)

    def bw(grad):
        g2 = grad.reshape(cout, oh * ow)
        if bias.requires_grad:
            _accum(bias, g2.sum(axis=1))
        if weight.requires_grad:
            _accum(weight, (g2 @ cols.T).reshape(weight.shape))
        if x.requires_grad:
            dcols = (w2.T @ g2).reshape(cin, kh, kw, oh, ow)
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + s * oh:s, j:j + s * ow:s] += dcols[:, i, j]
            _accum(x, dxp[:, p:p + h, p:p + w] if p else dxp)
    return graph_op(out_data, (x, weight, bias), "conv2d", bw)


def conv2d_captured_oracle(x, weight, bias, stride=1, padding=0):
    cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    s, p = stride, padding
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1

    xp = np.pad(x.data, ((0, 0), (p, p), (p, p))) if p else x.data
    pointwise = kh == kw == s == 1 and p == 0
    if pointwise:
        cols = xp.reshape(cin, h * w)
    else:
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        cols = np.ascontiguousarray(
            win[:, ::s, ::s].transpose(0, 3, 4, 1, 2)).reshape(cin * kh * kw, oh * ow)
    w2 = weight.data.reshape(cout, cin * kh * kw)
    out_data = w2 @ cols
    out_data += bias.data[:, None]

    def bw(grad):
        g2 = grad.reshape(cout, oh * ow)
        if bias.requires_grad:
            _accum(bias, g2.sum(axis=1))
        if weight.requires_grad:
            _accum(weight, (g2 @ cols.T).reshape(weight.shape))
        if x.requires_grad and pointwise:
            _accum(x, (w2.T @ g2).reshape(x.shape))
        elif x.requires_grad:
            dcols = (w2.T @ g2).reshape(cin, kh, kw, oh, ow)
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + s * oh:s, j:j + s * ow:s] += dcols[:, i, j]
            _accum(x, dxp[:, p:p + h, p:p + w] if p else dxp)
    return graph_op(out_data.reshape(cout, oh, ow), (x, weight, bias), "conv2d", bw)


def scan_captured_oracle(coeffs, x):
    delta, a, b, c, d_skip = coeffs.delta, coeffs.a, coeffs.b, coeffs.c, coeffs.d_skip
    seq, ch = x.shape
    state = a.shape[1]
    abar = np.einsum("td,ds->tds", delta.data, a.data)
    np.exp(abar, out=abar)
    hs = np.einsum("td,ts->tds", delta.data, b.data)
    hs *= x.data[:, :, None]
    step = np.empty((ch, state))
    for t in range(1, seq):
        np.multiply(abar[t], hs[t - 1], out=step)
        hs[t] += step
    y = np.einsum("ts,tds->td", c.data, hs) + d_skip.data[None, :] * x.data

    def bw(gy):
        gh = np.einsum("td,ts->tds", gy, c.data)
        for t in range(seq - 2, -1, -1):
            np.multiply(abar[t + 1], gh[t + 1], out=step)
            gh[t] += step
        if x.requires_grad or delta.requires_grad:
            gb = np.einsum("tds,ts->td", gh, b.data)
        if x.requires_grad:
            _accum(x, gb * delta.data + gy * d_skip.data[None, :])
        if b.requires_grad:
            _accum(b, np.einsum("tds,td->ts", gh, delta.data * x.data))
        if c.requires_grad:
            _accum(c, np.einsum("td,tds->ts", gy, hs))
        if d_skip.requires_grad:
            _accum(d_skip, np.einsum("td,td->d", gy, x.data))
        if delta.requires_grad or a.requires_grad:
            q = gh[1:]
            q *= hs[:-1]
            q *= abar[1:]
            if delta.requires_grad:
                dd = gb * x.data
                dd[1:] += np.einsum("tds,ds->td", q, a.data)
                _accum(delta, dd)
            if a.requires_grad:
                _accum(a, np.einsum("tds,td->ds", q, delta.data[1:]))
    return graph_op(y, (x, delta, a, b, c, d_skip), "scan", bw)


def attention_composite_oracle(q, k, v):
    attn = nn.softmax(matmul(transpose(q), k), axis=1)
    return matmul(v, transpose(attn))


def composite_non_local(block, x, context):
    """``NonLocalBlock.__call__`` running ``attention_composite_oracle``."""
    _, h, w = x.shape
    q, k, v = (reshape(conv(m), (block.inner, h * w))
               for conv, m in ((block.theta, x), (block.phi, context), (block.g, context)))
    y = attention_composite_oracle(q, k, v)
    return block.z(reshape(y, (block.inner, h, w))) + x


def masked_sigmoid_oracle(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def _scan_case(seq, ch, state, x_grad=True, coeff_grad=True, oracle=scan_loop_oracle):
    def build(rng):
        x = Tensor(rng.uniform(-1, 1, (seq, ch)), requires_grad=x_grad)
        coeffs = ssm.ScanCoeffs(*(Tensor(v, requires_grad=coeff_grad) for v in (
            rng.uniform(0.01, 0.3, (seq, ch)), -rng.uniform(0.5, 4.0, (ch, state)),
            rng.uniform(-1, 1, (seq, state)), rng.uniform(-1, 1, (seq, state)),
            rng.uniform(-1, 1, ch))))
        leaves = [t for t in (x, coeffs.delta, coeffs.a, coeffs.b, coeffs.c, coeffs.d_skip)
                  if t.requires_grad]
        return (lambda: ssm.selective_scan(coeffs, x),
                lambda: oracle(coeffs, x), leaves)
    return build


def _attention_case(inner, n):
    def build(rng):
        q, k, v = (_leaf(rng, (inner, n)) for _ in range(3))
        return (lambda: nn.attention(q, k, v),
                lambda: attention_composite_oracle(q, k, v), [q, k, v])
    return build


def _conv2d_case(cin, cout, k, stride, padding, size, oracle=conv2d_im2col_oracle):
    def build(rng):
        x, b = _leaf(rng, (cin, size, size)), _leaf(rng, cout, -1, 1)
        w = _leaf(rng, (cout, cin, k, k), -1, 1)
        return (lambda: nn.conv2d_raw(x, w, b, stride, padding),
                lambda: oracle(x, w, b, stride, padding), [x, w, b])
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
    **{f"scan_{seq}x{ch}x{state}": _scan_case(seq, ch, state)
       for seq, ch, state in ((1, 2, 3), (2, 1, 1), (5, 2, 3), (21, 32, 8), (64, 64, 8),
                              (256, 64, 8))},
    "scan_only_x_grad": _scan_case(5, 2, 3, coeff_grad=False),
    "scan_only_coeff_grad": _scan_case(5, 2, 3, x_grad=False),
    "conv2d_pointwise": _conv2d_case(4, 5, 1, 1, 0, 6),
    "conv2d_strided": _conv2d_case(3, 4, 3, 2, 1, 7),
}

CAPTURED_CASES = {
    "conv2d_padded": _conv2d_case(3, 4, 3, 1, 1, 7, conv2d_captured_oracle),
    "conv2d_padded_strided": _conv2d_case(3, 4, 3, 2, 1, 7, conv2d_captured_oracle),
    "conv2d_pointwise": _conv2d_case(4, 5, 1, 1, 0, 6, conv2d_captured_oracle),
    "scan_64x64x8": _scan_case(64, 64, 8, oracle=scan_captured_oracle),
    **{f"attention_{inner}x{n}": _attention_case(inner, n)
       for inner, n in ((8, 64), (8, 256), (3, 5), (1, 1))},
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


def test_sigmoid_matches_masked_formula_bitwise():
    special = np.array([0.0, np.inf, 5e-324, 1e-300, 36.0, 709.0, 745.5, 800.0])
    x = np.concatenate([np.random.default_rng(37).standard_normal(4096), special, -special])
    got = _sigmoid(x)
    assert got.dtype == x.dtype and got.tobytes() == masked_sigmoid_oracle(x).tobytes()
    assert _sigmoid(np.array(-3.0)).tobytes() == masked_sigmoid_oracle(np.array(-3.0)).tobytes()
    assert np.all(np.isnan(_sigmoid(np.array([np.nan, -np.nan]))))


@pytest.mark.parametrize("name", list(CAPTURED_CASES))
def test_rebuilt_arrays_give_the_captured_rules_gradient_bits(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    kernel, oracle, leaves = CAPTURED_CASES[name](rng)
    got, want = kernel(), oracle()
    assert np.array_equal(got.data, want.data)
    probe = Tensor(rng.uniform(-1, 1, want.shape))
    for g, w in zip(_grads(kernel, leaves, probe), _grads(oracle, leaves, probe)):
        assert np.array_equal(g, w)


def test_a_toy_batch_step_has_the_bits_of_the_composite_attention(monkeypatch):
    # the zero-initialized output projection would give q, k and v zero
    # gradients, and then no order of accumulating them could show
    net = BimanualHandNet(PipelineConfig.toy(seed=0))
    z = net.interaction.attn.z.weight
    z.data = np.random.default_rng(5).uniform(-0.5, 0.5, z.shape)
    samples = tr.synth_dataset(net.config, net.rig, 8, seed=3)

    def step():
        for _, t in net.params():
            t.zero_grad()
        root = tr.batch_loss(net, samples)[0]
        root.backward()
        return [root.data] + [t.grad for _, t in net.params()]
    got = step()
    monkeypatch.setattr(nn.NonLocalBlock, "__call__", composite_non_local)
    want = step()
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("op,dtype", [(relu, np.bool_), (silu, np.float64)])
def test_relu_keeps_only_a_mask_and_silu_only_its_derivative(op, dtype):
    x = _leaf(np.random.default_rng(7), (3, 4))
    cells = op(x)._backward.__closure__
    arrays = [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]
    assert [(a.dtype, a.shape) for a in arrays] == [(dtype, x.shape)]
