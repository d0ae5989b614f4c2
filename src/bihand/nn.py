"""Neural layers: convolution, layer norm, MLP, softmax, attention, bilinear
sampling, and the cross-hand non-local attention block.

Feature maps are [channels, height, width] tensors. Layers are immutable
parameter holders after construction; ``Module.params()`` yields (name,
Tensor) pairs in a fixed order so the checkpoint format and the parameter
counter see identical registries.
"""

import numpy as np

from .tensor import Tensor, graph_op, reshape, _accum, _contig, _node_of


class Module:
    """Parameter registry shared by every layer and network stage.

    ``params()`` walks ``vars(self)`` in declaration order, so declaration
    order is checkpoint record order. A Tensor attribute ``x`` is recorded
    as ``x``; a Module attribute ``m`` contributes its own records as
    ``m.<name>``; element i of a list attribute such as ``blocks`` is named
    ``block{i}`` (the trailing "s" dropped). Every other attribute (ints,
    arrays, configs, the rig, None) is skipped.
    """

    def params(self):
        return self._records("")

    def _records(self, prefix):
        out = []
        for attr, value in vars(self).items():
            items = ([(f"{attr[:-1]}{i}", v) for i, v in enumerate(value)]
                     if isinstance(value, list) else [(attr, value)])
            for name, obj in items:
                if isinstance(obj, Tensor):
                    out.append((prefix + name, obj))
                elif isinstance(obj, Module):
                    out += obj._records(f"{prefix}{name}.")
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
        w = init_weight(rng, (in_features, out_features), in_features, zero_init)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x):
        return linear(x, self.weight, self.bias)


def linear(x, weight, bias):
    """x[..., in] @ weight[in,out] + bias[out] as one graph node. Each leading
    index's matrix is multiplied alone, so a stack of inputs gets each one's bits."""
    n_in, n_out = weight.shape
    if x.shape[-1] != n_in:
        raise ValueError(f"linear expects width {n_in}, got {x.shape}")
    out_data = x.data @ weight.data + bias.data
    nx, nw, nb = _node_of(x), _node_of(weight), _node_of(bias)
    flat = x.data.reshape(-1, n_in) if weight.requires_grad else None
    wd = weight.data

    def bw(grad):
        g2 = grad.reshape(-1, n_out)
        if nx.requires_grad:
            _accum(nx, (g2 @ wd.T).reshape(nx.shape))
        if nw.requires_grad:
            _accum(nw, flat.T @ g2)
        if nb.requires_grad:
            _accum(nb, g2.sum(axis=0))
    return graph_op(out_data, (x, weight, bias), "linear", bw)


def conv2d_raw(x, weight, bias, stride=1, padding=0):
    """Cross-correlation of x[cin,h,w] with weight[cout,cin,kh,kw] plus bias, unless None.

    im2col inside a single graph node; the backward rule is the standard
    col2im scatter. Output spatial size is floor((in + 2*pad - k)/stride) + 1.
    A 1x1, stride-1, unpadded kernel skips both, since there both are identities.
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
    pointwise = kh == kw == s == 1 and p == 0
    if pointwise:
        cols = xp.reshape(cin, h * w)
    else:
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        cols = np.ascontiguousarray(
            win[:, ::s, ::s].transpose(0, 3, 4, 1, 2)).reshape(cin * kh * kw, oh * ow)
    w2 = weight.data.reshape(cout, cin * kh * kw)
    out_data = w2 @ cols
    parents = (x, weight) if bias is None else (x, weight, bias)
    if bias is not None:
        out_data += bias.data[:, None]
    nx, nw = _node_of(x), _node_of(weight)
    nb = None if bias is None else _node_of(bias)
    if not weight.requires_grad:
        cols = None  # only the weight's gradient reads the columns

    def bw(grad):
        g2 = grad.reshape(cout, oh * ow)
        if nb is not None and nb.requires_grad:
            _accum(nb, g2.sum(axis=1))
        if nw.requires_grad:
            _accum(nw, (g2 @ cols.T).reshape(nw.shape))
        if nx.requires_grad and pointwise:
            _accum(nx, (w2.T @ g2).reshape(nx.shape))
        elif nx.requires_grad:
            dcols = (w2.T @ g2).reshape(cin, kh, kw, oh, ow)
            dxp = np.zeros((cin, h + 2 * p, w + 2 * p))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + s * oh:s, j:j + s * ow:s] += dcols[:, i, j]
            _accum(nx, dxp[:, p:p + h, p:p + w] if p else dxp)
    return graph_op(out_data.reshape(cout, oh, ow), parents, "conv2d", bw)


class Conv2dLayer(Module):
    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0,
                 rng=None, zero_init=False, bias=True):
        k = kernel_size
        w = init_weight(rng, (out_channels, in_channels, k, k), in_channels * k * k,
                        zero_init)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None
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
    Each pass works in place in two full-size arrays, with the plain formulas' bits.
    """
    axes = tuple(sorted(a % x.ndim for a in axes))
    trailing = axes == (x.ndim - 1,)
    shape = gamma.shape if trailing else gamma.shape + (1, 1)
    xhat = x.data - x.data.mean(axis=axes, keepdims=True)
    out_data = xhat * xhat
    sigma = np.sqrt(out_data.mean(axis=axes, keepdims=True) + eps)
    xhat /= sigma
    np.multiply(xhat, gamma.data.reshape(shape), out=out_data)
    out_data += beta.data.reshape(shape)
    nx, ng, nb = _node_of(x), _node_of(gamma), _node_of(beta)
    gd = gamma.data

    def bw(grad):
        # the normalized axes trail, so each normalized group is one row of a
        # [groups, n] view, reduced in one pass; gamma and beta vary along its
        # columns (trailing form) or its rows (spatial form)
        n = xhat.size // sigma.size
        g2, xh = grad.reshape(-1, n), xhat.reshape(-1, n)
        if nx.requires_grad:
            dx = (grad * gd.reshape(shape)).reshape(-1, n)
            t = dx * xh
            dx -= dx.mean(axis=1, keepdims=True)
            dx -= np.multiply(xh, t.mean(axis=1, keepdims=True), out=t)
            dx /= sigma.reshape(-1, 1)
            _accum(nx, dx.reshape(nx.shape))
        across = 0 if trailing else 1
        if ng.requires_grad:
            _accum(ng, (g2 * xh).sum(axis=across))
        if nb.requires_grad:
            _accum(nb, g2.sum(axis=across))
    return graph_op(out_data, (x, gamma, beta), "layernorm", bw)


class MlpLayer(Module):
    """Linear -> ReLU -> Linear with equal input and output widths."""

    def __init__(self, width, ratio=2, rng=None, zero_init_out=False):
        hidden = int(round(width * ratio))
        self.fc1 = Linear(width, hidden, rng=rng)
        self.fc2 = Linear(hidden, width, rng=rng, zero_init=zero_init_out)

    def __call__(self, x):
        return self.fc2(self.fc1(x).relu())


def _softmax(x, axis):
    """The probabilities along ``axis``, and their rule g -> p * (g - sum(g * p))."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    p = e / e.sum(axis=axis, keepdims=True)
    return p, lambda g: p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax(x, axis=-1):
    """exp-normalize along ``axis`` with max subtraction for stability, as one
    graph node; the backward rule is p * (g - sum(g * p)).

    The shift is a constant; softmax is shift invariant so the gradient is
    unchanged.
    """
    p, dsoftmax = _softmax(x.data, axis)
    nx = _node_of(x)

    def bw(grad):
        _accum(nx, dsoftmax(grad))
    return graph_op(p, (x,), "softmax", bw)


def attention(q, k, v):
    """v[e,n] @ softmax(q[d,n].T @ k[d,n], axis=1).T as one graph node. Its rule
    keeps q.T, k, v and the probabilities p, and rebuilds p.T as the forward
    made it, so each product rounds as the transpose, matmul and softmax ops do;
    the parents (q, v, k) replay those ops' order of accumulation into a map."""
    qt, kd, vd = _contig(q.data.T), k.data, v.data
    p, dsoftmax = _softmax(qt @ kd, axis=1)  # [n, n], rows sum to 1
    nq, nk, nv = _node_of(q), _node_of(k), _node_of(v)
    def bw(g):
        if nv.requires_grad:
            _accum(nv, g @ _contig(p.T).T)
        dlogits = dsoftmax(_contig((vd.T @ g).T))
        if nq.requires_grad:
            _accum(nq, _contig((dlogits @ kd.T).T))
        if nk.requires_grad:
            _accum(nk, qt.T @ dlogits)
    return graph_op(vd @ _contig(p.T), (q, v, k), "attention", bw)


def grid_sample(f, points):
    """Bilinear sample of f[c,h,w] at continuous pixel points[J,2] as (x, y),
    giving [J,c]; or of each map of f[n,c,h,w] at its points[n,J,2], giving [n,J,c].

    Out-of-range coordinates clamp to the border, which keeps values and
    gradients defined everywhere. Differentiable in both the map and the
    sampling positions; the position gradient is zero outside the map.
    """
    c, h, w = f.shape[-3:]
    if f.ndim not in (3, 4) or points.shape != f.shape[:-3] + points.shape[-2:-1] + (2,):
        raise ValueError(f"points must be [J,2] per map of {f.shape}, got {points.shape}")
    fm = np.moveaxis(f.data, -3, -1)  # channels last: a corner gather gives [..., J, c]
    lead = (np.arange(f.shape[0])[:, None],) if f.ndim == 4 else ()
    px = points.data[..., 0]
    py = points.data[..., 1]
    xc = np.clip(px, 0.0, w - 1.0)
    yc = np.clip(py, 0.0, h - 1.0)
    # non-finite coordinates must not crash the gather; the fractional parts
    # keep the NaN so the output (and any loss) reports it honestly
    x0 = np.clip(np.floor(np.nan_to_num(xc)), 0, max(w - 2, 0)).astype(np.int64)
    y0 = np.clip(np.floor(np.nan_to_num(yc)), 0, max(h - 2, 0)).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xc - x0)[..., None]
    fy = (yc - y0)[..., None]
    corners = [lead + (y0, x0), lead + (y0, x1), lead + (y1, x0), lead + (y1, x1)]
    f00, f01, f10, f11 = (fm[k] for k in corners)  # [..., J, c]
    top = f00 * (1 - fx) + f01 * fx
    bot = f10 * (1 - fx) + f11 * fx
    out_data = top * (1 - fy) + bot * fy
    nf, npts = _node_of(f), _node_of(points)

    def bw(g):
        if nf.requires_grad:
            df = np.zeros(nf.shape)
            dfm = np.moveaxis(df, -3, -1)
            weights = ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)
            for k, wk in zip(corners, weights):
                np.add.at(dfm, k, g * wk)
            _accum(nf, df)
        if npts.requires_grad:
            dxc = (1 - fy) * (f01 - f00) + fy * (f11 - f10)
            dyc = bot - top
            in_x = (px >= 0.0) & (px <= w - 1.0)
            in_y = (py >= 0.0) & (py <= h - 1.0)
            dp = np.stack([(g * dxc).sum(axis=-1) * in_x,
                           (g * dyc).sum(axis=-1) * in_y], axis=-1)
            _accum(npts, dp)
    return graph_op(out_data, (f, points), "grid_sample", bw)


class NonLocalBlock(Module):
    """Embedded-Gaussian non-local attention with a residual connection.

    Queries come from ``x`` and keys/values from ``context``, so calling it
    with the two hands' maps in either order realizes cross-hand attention.
    The output projection starts at zero, making the block an exact identity
    at initialization.
    """

    def __init__(self, channels, rng, zero_init_out=True):
        inner = max(1, channels // 2)
        self.inner = inner
        self.theta = Conv2dLayer(channels, inner, 1, rng=rng)
        # a key bias adds q_i.b to every logit of query row i: softmax cancels it
        self.phi = Conv2dLayer(channels, inner, 1, rng=rng, bias=False)
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
        return self.z(reshape(attention(q, k, v), (self.inner, h, w))) + x
