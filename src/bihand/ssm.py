"""Selective state-space scan and the gated sequence block built around it.

The scan is a per-channel diagonal linear recurrence whose step size, input
and output couplings are functions of the sequence being processed:

    h_t = exp(delta_t * a) * h_{t-1} + delta_t * b_t * x_t      (per channel, state)
    y_t = sum_s c_t[s] * h_t[s] + d_skip * x_t

``a`` is stored as ``-exp(a_log)`` so it is strictly negative and the decay
factor stays inside (0, 1) for any positive ``delta``, so the recurrence is
unconditionally stable. ``selective_scan`` is a single graph node with a
hand-derived reverse recurrence, so sequence length adds steps, not graph
depth. Work per step is constant, so the scan's cost is linear in sequence
length (``scan_flops``).
"""

import numpy as np

from .nn import Linear, LayerNormLayer, MlpLayer, Module
from .tensor import Tensor, graph_op, reshape, stack, transpose, _accum, _node_of

# softplus(bias) spans roughly [0.01, 0.1]: slow-to-fast step sizes at init
_DT_BIAS_LO = float(np.log(np.expm1(0.01)))
_DT_BIAS_HI = float(np.log(np.expm1(0.1)))


class ScanCoeffs:
    """Frozen per-sequence scan coefficients (already computed from the input)."""

    def __init__(self, delta, a, b, c, d_skip):
        self.delta = delta  # [seq, channels], positive
        self.a = a          # [channels, state], negative
        self.b = b          # [seq, state]
        self.c = c          # [seq, state]
        self.d_skip = d_skip  # [channels]


def _decay(delta, a):
    """exp(delta_t * a), the decay factors [T, C, S]; einsum forms the same products as
    broadcasting, whose inner loop over the short state axis took ~1.5x as long."""
    abar = np.einsum("td,ds->tds", delta, a)
    return np.exp(abar, out=abar)


def selective_scan(coeffs, x):
    """Run the recurrence over x[seq, channels]; differentiable in all inputs.

    In each direction the Python loop over the sequence carries only the
    recurrence, two in-place array ops per step; every other term is one
    whole-array pass, and the backward shares its products between gradients.
    """
    delta, a, b, c, d_skip = coeffs.delta, coeffs.a, coeffs.b, coeffs.c, coeffs.d_skip
    seq, ch = x.shape
    state = a.shape[1]
    if delta.shape != x.shape:
        raise ValueError(f"delta shape {delta.shape} must match input {x.shape}")
    if b.shape != (seq, state) or c.shape != (seq, state):
        raise ValueError(f"b/c must be [{seq}, {state}], got {b.shape} and {c.shape}")
    if a.shape[0] != ch or d_skip.shape != (ch,):
        raise ValueError(f"a {a.shape} / d_skip {d_skip.shape} disagree with {ch} channels")
    if not np.all(delta.data > 0.0):  # NaN fails this comparison too
        t, k = np.argwhere(~(delta.data > 0.0))[0]  # softplus(x) is 0.0 below about -745
        underflow = delta.data[t, k] == 0 and not np.isnan(delta.data).any()
        why = ", a softplus underflow" if underflow else ""
        raise RuntimeError(f"selective_scan requires strictly positive delta, got "
                           f"delta[{t}, {k}] = {float(delta.data[t, k])!r}{why}")

    abar = _decay(delta.data, a.data)
    hs = np.einsum("td,ts->tds", delta.data, b.data)    # input term, then the states
    hs *= x.data[:, :, None]
    step = np.empty((ch, state))
    for t in range(1, seq):
        np.multiply(abar[t], hs[t - 1], out=step)
        hs[t] += step
    y = np.einsum("ts,tds->td", c.data, hs) + d_skip.data[None, :] * x.data
    nx, ndelta, na, nb, nc, nd = (_node_of(t) for t in (x, delta, a, b, c, d_skip))
    # with every input taking gradients, every input's array is read
    xd, dt, ad, bd, cd, skip = x.data, delta.data, a.data, b.data, c.data, d_skip.data

    def bw(gy):
        abar = _decay(dt, ad)  # rebuilt: kept, it would hold [T, C, S] until here
        gh = np.einsum("td,ts->tds", gy, cd)  # becomes dL/dh_t in the reverse loop
        for t in range(seq - 2, -1, -1):
            np.multiply(abar[t + 1], gh[t + 1], out=step)
            gh[t] += step
        if nx.requires_grad or ndelta.requires_grad:
            gb = np.einsum("tds,ts->td", gh, bd)
        if nx.requires_grad:
            _accum(nx, gb * dt + gy * skip[None, :])
        if nb.requires_grad:
            _accum(nb, np.einsum("tds,td->ts", gh, dt * xd))
        if nc.requires_grad:
            _accum(nc, np.einsum("td,tds->ts", gy, hs))
        if nd.requires_grad:
            _accum(nd, np.einsum("td,td->d", gy, xd))
        if ndelta.requires_grad or na.requires_grad:
            q = gh[1:]  # gh is spent: q becomes dL/d(delta_t * a) for t >= 1, zero at t = 0
            q *= hs[:-1]
            q *= abar[1:]
            if ndelta.requires_grad:
                dd = gb * xd
                dd[1:] += np.einsum("tds,ds->td", q, ad)
                _accum(ndelta, dd)
            if na.requires_grad:
                _accum(na, np.einsum("tds,td->ds", q, dt[1:]))
    return graph_op(y, (x, delta, a, b, c, d_skip), "scan", bw)


def scan_each(coeffs, x):
    """``selective_scan`` of x[seq, ch], or of each x[i] of x[n, seq, ch], stacked: the kernel
    keeps the [seq, ch] input that perfbench's tracer unpacks (ROADMAP, benchmark follow-ups)."""
    if x.ndim == 2:
        return selective_scan(coeffs, x)
    return stack([selective_scan(ScanCoeffs(coeffs.delta[i], coeffs.a, coeffs.b[i],
                                            coeffs.c[i], coeffs.d_skip), x[i])
                  for i in range(x.shape[0])])


class SsmParams(Module):
    """Learnable scan parameters plus the input-dependent coefficient heads."""

    def __init__(self, channels, state_dim, rng):
        # -a spans [1, state_dim] per channel: a classic stable spectrum init
        a_log = np.tile(np.log(np.arange(1, state_dim + 1, dtype=np.float64)),
                        (channels, 1))
        self.a_log = Tensor(a_log, requires_grad=True)
        self.d_skip = Tensor(np.ones(channels), requires_grad=True)
        self.dt_proj = Linear(channels, channels, rng=rng)
        self.dt_proj.weight.data *= 0.1  # keep initial step sizes near their bias
        self.dt_proj.bias.data[:] = rng.uniform(_DT_BIAS_LO, _DT_BIAS_HI, channels)
        self.b_proj = Linear(channels, state_dim, rng=rng)
        self.c_proj = Linear(channels, state_dim, rng=rng)

    def coeffs(self, u):
        """Coefficients for prepared main-branch sequences u[..., seq, channels]."""
        delta = self.dt_proj(u).softplus()
        a = -(self.a_log.exp())
        return ScanCoeffs(delta, a, self.b_proj(u), self.c_proj(u), self.d_skip)


def depthwise_conv1d_causal(x, weight, bias):
    """Per-channel causal 1-D convolution over the sequence axis.

    x[..., seq, ch] with taps weight[ch, k]; the sequence is left-padded by k-1
    zeros so position t sees only positions <= t and length is preserved.
    One graph node: the input gradient correlates the output gradient,
    right-padded by k-1 zeros, with the taps in reverse order.
    """
    seq, ch = x.shape[-2:]
    k = weight.shape[1]
    xp = np.zeros(x.shape[:-2] + (seq + k - 1, ch))  # np.pad costs more than the taps here
    xp[..., k - 1:, :] = x.data
    w = weight.data
    acc = xp[..., 0:seq, :] * w[:, 0]
    for j in range(1, k):
        acc = acc + xp[..., j:j + seq, :] * w[:, j]
    nx, nw, nb = _node_of(x), _node_of(weight), _node_of(bias)
    padded = xp.shape
    if not weight.requires_grad:
        xp = None  # only the taps' gradient reads the padded input

    def bw(grad):
        if nx.requires_grad:
            gp = np.zeros(padded)
            gp[..., :seq, :] = grad
            dx = gp[..., k - 1:k - 1 + seq, :] * w[:, 0]
            for j in range(1, k):
                dx = dx + gp[..., k - 1 - j:k - 1 - j + seq, :] * w[:, j]
            _accum(nx, dx)
        if nw.requires_grad:
            dw = np.empty((ch, k))
            for j in range(k):
                dw[:, j] = np.einsum("tc,tc->c", grad.reshape(-1, ch),
                                     xp[..., j:j + seq, :].reshape(-1, ch))
            _accum(nw, dw)
        if nb.requires_grad:
            _accum(nb, grad.reshape(-1, ch).sum(axis=0))
    return graph_op(acc + bias.data, (x, weight, bias), "conv1d", bw)


class CausalConv1d(Module):
    """Depthwise causal convolution layer: taps weight[ch, k], bias[ch]."""

    def __init__(self, channels, width, rng):
        self.weight = Tensor(rng.normal(0.0, 1.0 / np.sqrt(width), (channels, width)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)

    def __call__(self, x):
        return depthwise_conv1d_causal(x, self.weight, self.bias)


class VmBlockLayer(Module):
    """Residual sequence block: gated selective scan plus an MLP sub-block.

    Layout: LN -> (expand, depthwise causal conv, SiLU, scan) gated by a
    SiLU branch -> output projection -> residual; then LN -> MLP -> residual.
    Both output projections start at zero, so a fresh block is an exact
    identity and training perturbs it smoothly.
    """

    def __init__(self, width, rng, state_dim=8, expand=2, conv_width=4, mlp_ratio=2):
        self.width = width
        inner = width * expand
        self.ln1 = LayerNormLayer(width)
        self.in_proj = Linear(width, inner, rng=rng)
        self.gate_proj = Linear(width, inner, rng=rng)
        self.conv = CausalConv1d(inner, conv_width, rng)
        self.ssm = SsmParams(inner, state_dim, rng)
        self.out_proj = Linear(inner, width, zero_init=True)
        self.ln2 = LayerNormLayer(width)
        self.mlp = MlpLayer(width, ratio=mlp_ratio, rng=rng, zero_init_out=True)

    def __call__(self, x):
        if x.ndim not in (2, 3) or x.shape[-1] != self.width:
            raise ValueError(f"vmblock expects [(n,) seq, {self.width}], got {x.shape}")
        u = self.ln1(x)
        main = self.conv(self.in_proj(u)).silu()
        y = scan_each(self.ssm.coeffs(main), main)
        y = y * self.gate_proj(u).silu()
        x = x + self.out_proj(y)
        return x + self.mlp(self.ln2(x))


def featuremap_to_sequence(f):
    """Flatten f[c,h,w] into a [h*w, c] sequence, visiting pixels row-major."""
    c, h, w = f.shape
    return transpose(reshape(f, (c, h * w)), (1, 0))


def sequence_to_featuremap(seq, h, w):
    """Exact inverse of featuremap_to_sequence."""
    return reshape(transpose(seq, (1, 0)), (seq.shape[1], h, w))


# -- work accounting -------------------------------------------------------------

def scan_flops(seq, channels, state):
    """Floating-point work of the sequential scan, counted off its own steps."""
    # decay factors (mul+exp), input increments (2 mul), recurrence (mul+add),
    # readout (mul+add) -> 8 per (t, channel, state); skip path -> 2 per (t, channel)
    return seq * channels * (8 * state + 2)
