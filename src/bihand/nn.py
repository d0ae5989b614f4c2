"""Neural layers: convolution, layer norm, MLP, softmax, bilinear sampling,
and the cross-hand non-local attention block.

Feature maps are [channels, height, width] tensors. Layers are immutable
parameter holders after construction; ``Module.params()`` yields (name,
Tensor) pairs in a fixed order so the checkpoint format and the parameter
counter see identical registries.
"""

import numpy as np

from .tensor import Tensor, graph_op, matmul, reshape, transpose, _accum


class Module:
    """Parameter registry shared by every layer and network stage.

    ``params()`` walks ``vars(self)`` in declaration order, so declaration
    order is checkpoint record order. A Tensor attribute ``x`` is recorded
    as ``x``; a Module attribute ``m`` contributes its own records as
    ``m.<name>``; element i of a list attribute such as ``blocks`` is named
    ``block{i}`` (the trailing "s" dropped). An object reached a second time,
    such as a head shared by both hands, is recorded once under its first
    name. Every other attribute (ints, arrays, configs, the rig) is skipped.
    """

    def params(self):
        return self._records("", set())

    def _records(self, prefix, seen):
        out = []
        for attr, value in vars(self).items():
            items = ([(f"{attr[:-1]}{i}", v) for i, v in enumerate(value)]
                     if isinstance(value, list) else [(attr, value)])
            for name, obj in items:
                if not isinstance(obj, (Tensor, Module)) or id(obj) in seen:
                    continue
                seen.add(id(obj))
                if isinstance(obj, Tensor):
                    out.append((prefix + name, obj))
                else:
                    out += obj._records(f"{prefix}{name}.", seen)
        return out


def init_weight(rng, shape, fan_in, zero_init):
    """He-normal draw from ``rng``, or zeros when ``zero_init`` is set."""
    if zero_init:
        return np.zeros(shape)
    if rng is None:
        raise ValueError("a layer needs an rng unless it is zero-initialized")
    return rng.normal(0.0, np.sqrt(2.0 / max(fan_in, 1)), size=shape)


class Linear(Module):
    """x[n,in] @ weight[in,out] + bias[out]."""

    def __init__(self, in_features, out_features, rng=None, zero_init=False):
        self.in_features = in_features
        self.out_features = out_features
        w = init_weight(rng, (in_features, out_features), in_features, zero_init)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x):
        return linear(x, self.weight, self.bias)


def linear(x, weight, bias):
    """x[..., in] @ weight[in,out] + bias[out] as one graph node."""
    n_in, n_out = weight.shape
    if x.shape[-1] != n_in:
        raise ValueError(f"linear expects width {n_in}, got {x.shape}")
    flat = x.data.reshape(-1, n_in)
    out_data = (flat @ weight.data + bias.data).reshape(x.shape[:-1] + (n_out,))

    def bw(grad):
        g2 = grad.reshape(-1, n_out)
        if x.requires_grad:
            _accum(x, (g2 @ weight.data.T).reshape(x.shape))
        if weight.requires_grad:
            _accum(weight, flat.T @ g2)
        if bias.requires_grad:
            _accum(bias, g2.sum(axis=0))
    return graph_op(out_data, (x, weight, bias), "linear", bw)


def conv2d_raw(x, weight, bias, stride=1, padding=0):
    """Cross-correlation of x[cin,h,w] with weight[cout,cin,kh,kw] plus bias.

    im2col inside a single graph node; the backward rule is the standard
    col2im scatter. Output spatial size is floor((in + 2*pad - k)/stride) + 1.
    """
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


class Conv2dLayer(Module):
    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0,
                 rng=None, zero_init=False):
        k = kernel_size
        w = init_weight(rng, (out_channels, in_channels, k, k), in_channels * k * k,
                        zero_init)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x):
        return conv2d_raw(x, self.weight, self.bias, self.stride, self.padding)


class LayerNormLayer(Module):
    """Normalize over ``axes``, then scale and shift per feature.

    ``axes=(-1,)`` normalizes the trailing feature axis of [..., features];
    ``axes=(1, 2)`` normalizes each channel of a [features, h, w] map over
    its spatial positions, with the affine broadcast along channels.
    """

    AXES = ((-1,), (1, 2))

    def __init__(self, features, eps=1e-5, axes=(-1,)):
        self.features = features
        self.eps = float(eps)
        if self.eps <= 0:
            raise ValueError("layernorm eps must be positive")
        self.axes = tuple(axes)
        if self.axes not in self.AXES:
            raise ValueError(f"layernorm axes must be one of {self.AXES}, got {axes}")
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)

    def __call__(self, x):
        spatial = self.axes == (1, 2)
        if spatial and (x.ndim != 3 or x.shape[0] != self.features):
            raise ValueError(f"layernorm expects [{self.features},h,w], got {x.shape}")
        if not spatial and x.shape[-1] != self.features:
            raise ValueError(f"layernorm expects trailing dim {self.features}, got {x.shape}")
        return layer_norm(x, self.gamma, self.beta, self.axes, self.eps)


def layer_norm(x, gamma, beta, axes, eps):
    """(x - mean) / sqrt(var + eps) over ``axes``, then ``* gamma + beta``, as
    one graph node. ``axes=(-1,)`` puts the affine on the trailing axis;
    ``axes=(1, 2)`` puts it on the channels of a [c,h,w] map.

    The backward rule is the closed form of Ba et al. 2016: with
    gx = grad * gamma, dx = (gx - mean(gx) - xhat * mean(gx * xhat)) / sigma.
    """
    axes = tuple(sorted(a % x.ndim for a in axes))
    trailing = axes == (x.ndim - 1,)
    shape = gamma.shape if trailing else gamma.shape + (1, 1)
    mu = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    sigma = np.sqrt(var + eps)
    xhat = centered / sigma
    out_data = xhat * gamma.data.reshape(shape) + beta.data.reshape(shape)

    def bw(grad):
        # the normalized axes trail, so each normalized group is one row of a
        # [groups, n] view, reduced in one pass; gamma and beta vary along its
        # columns (trailing form) or its rows (spatial form)
        n = xhat.size // sigma.size
        g2, xh = grad.reshape(-1, n), xhat.reshape(-1, n)
        if x.requires_grad:
            gx = (grad * gamma.data.reshape(shape)).reshape(-1, n)
            dx = (gx - gx.mean(axis=1, keepdims=True)
                  - xh * (gx * xh).mean(axis=1, keepdims=True)) / sigma.reshape(-1, 1)
            _accum(x, dx.reshape(x.shape))
        across = 0 if trailing else 1
        if gamma.requires_grad:
            _accum(gamma, (g2 * xh).sum(axis=across))
        if beta.requires_grad:
            _accum(beta, g2.sum(axis=across))
    return graph_op(out_data, (x, gamma, beta), "layernorm", bw)


class MlpLayer(Module):
    """Linear -> ReLU -> Linear with equal input and output widths."""

    def __init__(self, width, ratio=2, rng=None, zero_init_out=False):
        self.width = width
        hidden = int(round(width * ratio))
        self.fc1 = Linear(width, hidden, rng=rng)
        self.fc2 = Linear(hidden, width, rng=rng, zero_init=zero_init_out)

    def __call__(self, x):
        return self.fc2(self.fc1(x).relu())


def softmax(x, axis=-1):
    """exp-normalize along ``axis`` with max subtraction for stability, as one
    graph node; the backward rule is p * (g - sum(g * p)).

    The shift is a constant; softmax is shift invariant so the gradient is
    unchanged.
    """
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    p = e / e.sum(axis=axis, keepdims=True)

    def bw(grad):
        _accum(x, p * (grad - (grad * p).sum(axis=axis, keepdims=True)))
    return graph_op(p, (x,), "softmax", bw)


def grid_sample(f, points):
    """Bilinear sample of f[c,h,w] at continuous pixel points[J,2] as (x, y).

    Out-of-range coordinates clamp to the border, which keeps values and
    gradients defined everywhere. Differentiable in both the map and the
    sampling positions; the position gradient is zero outside the map.
    """
    c, h, w = f.shape
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be [J,2], got {points.shape}")
    px = points.data[:, 0]
    py = points.data[:, 1]
    xc = np.clip(px, 0.0, w - 1.0)
    yc = np.clip(py, 0.0, h - 1.0)
    # non-finite coordinates must not crash the gather; the fractional parts
    # keep the NaN so the output (and any loss) reports it honestly
    x0 = np.clip(np.floor(np.nan_to_num(xc)), 0, max(w - 2, 0)).astype(np.int64)
    y0 = np.clip(np.floor(np.nan_to_num(yc)), 0, max(h - 2, 0)).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0

    f00 = f.data[:, y0, x0]  # [c, J]
    f01 = f.data[:, y0, x1]
    f10 = f.data[:, y1, x0]
    f11 = f.data[:, y1, x1]
    top = f00 * (1 - fx) + f01 * fx
    bot = f10 * (1 - fx) + f11 * fx
    out_data = (top * (1 - fy) + bot * fy).T  # [J, c]

    def bw(grad):
        g = grad.T  # [c, J]
        if f.requires_grad:
            df = np.zeros_like(f.data)
            np.add.at(df, (slice(None), y0, x0), g * ((1 - fx) * (1 - fy)))
            np.add.at(df, (slice(None), y0, x1), g * (fx * (1 - fy)))
            np.add.at(df, (slice(None), y1, x0), g * ((1 - fx) * fy))
            np.add.at(df, (slice(None), y1, x1), g * (fx * fy))
            _accum(f, df)
        if points.requires_grad:
            dxc = (1 - fy) * (f01 - f00) + fy * (f11 - f10)
            dyc = bot - top
            in_x = (px >= 0.0) & (px <= w - 1.0)
            in_y = (py >= 0.0) & (py <= h - 1.0)
            dp = np.stack([(g * dxc).sum(axis=0) * in_x,
                           (g * dyc).sum(axis=0) * in_y], axis=1)
            _accum(points, dp)
    return graph_op(out_data, (f, points), "grid_sample", bw)


class NonLocalBlock(Module):
    """Embedded-Gaussian non-local attention with a residual connection.

    Queries come from ``x`` and keys/values from ``context``, so calling it
    with the two hands' maps in either order realizes cross-hand attention.
    The output projection starts at zero, making the block an exact identity
    at initialization.
    """

    def __init__(self, channels, rng, zero_init_out=True):
        self.channels = channels
        inner = max(1, channels // 2)
        self.inner = inner
        self.theta = Conv2dLayer(channels, inner, 1, rng=rng)
        self.phi = Conv2dLayer(channels, inner, 1, rng=rng)
        self.g = Conv2dLayer(channels, inner, 1, rng=rng)
        self.z = Conv2dLayer(inner, channels, 1, rng=rng, zero_init=zero_init_out)

    def __call__(self, x, context):
        if x.shape != context.shape:
            raise ValueError(f"non_local shape mismatch: {x.shape} vs {context.shape}")
        c, h, w = x.shape
        n = h * w
        q = reshape(self.theta(x), (self.inner, n))
        k = reshape(self.phi(context), (self.inner, n))
        v = reshape(self.g(context), (self.inner, n))
        attn = softmax(matmul(transpose(q), k), axis=1)  # [n, n], rows sum to 1
        y = matmul(v, transpose(attn))                   # [inner, n]
        return self.z(reshape(y, (self.inner, h, w))) + x
