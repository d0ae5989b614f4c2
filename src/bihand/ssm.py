"""Selective state-space scan and the gated sequence block built around it.

The scan is a per-channel diagonal linear recurrence whose step size, input
and output couplings are functions of the sequence being processed:

    h_t = exp(delta_t * a) * h_{t-1} + delta_t * b_t * x_t      (per channel, state)
    y_t = sum_s c_t[s] * h_t[s] + d_skip * x_t

``a`` is stored as ``-exp(a_log)`` so it is strictly negative and the decay
factor stays inside (0, 1) for any positive ``delta``, so the recurrence is
unconditionally stable. ``selective_scan`` is a single graph node with a
hand-derived reverse recurrence, so sequence length adds steps, not graph
depth. Work per step is constant; a dense materialization of the same linear
operator (``dense_scan_reference``) costs quadratic work and serves as both
correctness oracle and efficiency baseline.
"""

import numpy as np

from .nn import Linear, LayerNormLayer, MlpLayer, Module
from .tensor import Tensor, graph_op, reshape, transpose, _accum

SCAN_ORDERS = ("row_major", "column_major")

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


def selective_scan(coeffs, x):
    """Run the recurrence over x[seq, channels]; differentiable in all inputs."""
    delta, a, b, c, d_skip = coeffs.delta, coeffs.a, coeffs.b, coeffs.c, coeffs.d_skip
    seq, ch = x.shape
    state = a.shape[1]
    if delta.shape != x.shape:
        raise ValueError(f"delta shape {delta.shape} must match input {x.shape}")
    if b.shape != (seq, state) or c.shape != (seq, state):
        raise ValueError(f"b/c must be [{seq}, {state}], got {b.shape} and {c.shape}")
    if a.shape[0] != ch or d_skip.shape != (ch,):
        raise ValueError(f"a {a.shape} / d_skip {d_skip.shape} disagree with {ch} channels")
    if np.any(delta.data <= 0.0):
        raise RuntimeError("selective_scan requires strictly positive delta "
                           "(softplus upstream should guarantee this)")

    abar = np.exp(delta.data[:, :, None] * a.data[None, :, :])       # [T, C, S]
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


class SsmParams(Module):
    """Learnable scan parameters plus the input-dependent coefficient heads."""

    def __init__(self, channels, state_dim, rng):
        self.channels = channels
        self.state_dim = state_dim
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
        """Coefficients for a prepared main-branch sequence u[seq, channels]."""
        delta = self.dt_proj(u).softplus()
        a = -(self.a_log.exp())
        return ScanCoeffs(delta, a, self.b_proj(u), self.c_proj(u), self.d_skip)


def depthwise_conv1d_causal(x, weight, bias):
    """Per-channel causal 1-D convolution over the sequence axis.

    x[seq, ch] with taps weight[ch, k]; the sequence is left-padded by k-1
    zeros so position t sees only positions <= t and length is preserved.
    One graph node: the input gradient correlates the output gradient,
    right-padded by k-1 zeros, with the taps in reverse order.
    """
    seq, ch = x.shape
    k = weight.shape[1]
    xp = np.zeros((seq + k - 1, ch))  # np.pad costs more than the taps here
    xp[k - 1:] = x.data
    w = weight.data
    acc = xp[0:seq] * w[:, 0]
    for j in range(1, k):
        acc = acc + xp[j:j + seq] * w[:, j]

    def bw(grad):
        if x.requires_grad:
            gp = np.zeros((seq + k - 1, ch))
            gp[:seq] = grad
            dx = gp[k - 1:k - 1 + seq] * w[:, 0]
            for j in range(1, k):
                dx = dx + gp[k - 1 - j:k - 1 - j + seq] * w[:, j]
            _accum(x, dx)
        if weight.requires_grad:
            dw = np.empty((ch, k))
            for j in range(k):
                dw[:, j] = np.einsum("tc,tc->c", grad, xp[j:j + seq])
            _accum(weight, dw)
        if bias.requires_grad:
            _accum(bias, grad.sum(axis=0))
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
        self.inner = inner
        self.ln1 = LayerNormLayer(width)
        self.in_proj = Linear(width, inner, rng=rng)
        self.gate_proj = Linear(width, inner, rng=rng)
        self.conv = CausalConv1d(inner, conv_width, rng)
        self.ssm = SsmParams(inner, state_dim, rng)
        self.out_proj = Linear(inner, width, zero_init=True)
        self.ln2 = LayerNormLayer(width)
        self.mlp = MlpLayer(width, ratio=mlp_ratio, rng=rng, zero_init_out=True)

    def __call__(self, x):
        if x.ndim != 2 or x.shape[1] != self.width:
            raise ValueError(f"vmblock expects [seq, {self.width}], got {x.shape}")
        u = self.ln1(x)
        main = self.conv(self.in_proj(u)).silu()
        y = selective_scan(self.ssm.coeffs(main), main)
        y = y * self.gate_proj(u).silu()
        x = x + self.out_proj(y)
        return x + self.mlp(self.ln2(x))


def featuremap_to_sequence(f, order="row_major"):
    """Flatten f[c,h,w] into a [h*w, c] sequence; bijective per order."""
    if order not in SCAN_ORDERS:
        raise ValueError(f"unknown scan order {order!r}; choose from {SCAN_ORDERS}")
    c, h, w = f.shape
    if order == "column_major":
        f = transpose(f, (0, 2, 1))
    return transpose(reshape(f, (c, h * w)), (1, 0))


def sequence_to_featuremap(seq, h, w, order="row_major"):
    """Exact inverse of featuremap_to_sequence."""
    if order not in SCAN_ORDERS:
        raise ValueError(f"unknown scan order {order!r}; choose from {SCAN_ORDERS}")
    c = seq.shape[1]
    f = reshape(transpose(seq, (1, 0)), (c, w, h) if order == "column_major" else (c, h, w))
    if order == "column_major":
        f = transpose(f, (0, 2, 1))
    return f


# -- quadratic reference operator and work accounting -------------------------

def dense_scan_reference(delta, a, b, c, d_skip, x):
    """Materialize the scan as one lower-triangular matrix per channel.

    Same linear map as ``selective_scan`` built along a completely different
    route: cumulative log-decays, an explicit [seq, seq] kernel, then a
    matvec. Quadratic in sequence length; used as oracle and as the
    efficiency baseline. Inputs and output are plain numpy arrays.
    """
    seq, ch = x.shape
    y = np.empty_like(x)
    logdecay = np.cumsum(delta[:, :, None] * a[None, :, :], axis=0)  # [T, C, S]
    tril = np.tril(np.ones((seq, seq)))
    for d in range(ch):
        decay = np.exp(logdecay[:, None, d, :] - logdecay[None, :, d, :])  # [t, tau, S]
        kernel = np.einsum("ts,tus,us->tu", c, decay,
                           delta[:, d, None] * b)                   # [t, tau]
        kernel *= tril
        y[:, d] = kernel @ x[:, d] + d_skip[d] * x[:, d]
    return y


def scan_flops(seq, channels, state):
    """Floating-point work of the sequential scan, counted off its own steps."""
    # decay factors (mul+exp), input increments (2 mul), recurrence (mul+add),
    # readout (mul+add) -> 8 per (t, channel, state); skip path -> 2 per (t, channel)
    return seq * channels * (8 * state + 2)


def dense_scan_flops(seq, channels, state):
    """Floating-point work of the dense materialized operator."""
    # per channel: decay exponentials (sub+exp), kernel contraction (3), mask,
    # matvec (2) -> seq^2 * (3*state + ...) dominated terms counted explicitly
    per_channel = (seq * seq * state * 2      # pairwise decay: subtract + exp
                   + seq * seq * state * 3    # kernel einsum: 2 mul + accumulate
                   + seq * seq               # triangular mask multiply
                   + 2 * seq * seq)          # kernel @ x
    return channels * (per_channel + 2 * seq * state + 2 * seq)
