"""Gradient verification: ``fd_check``, the registry of checks that
``bihand gradcheck`` runs, and its negative control ``corrupt_gradients``.

``fd_check`` rebuilds a scalar-valued computation while nudging one input
coordinate at a time by ±EPS and compares the resulting slope against the
gradient accumulated by ``backward()``. Everything runs in float64, where
central differences are good to roughly 1e-10 relative, so the pass
tolerance of 1e-6 has real margin.
"""

import contextlib
import dataclasses

import numpy as np

from . import handmodel, ssm, train as tr
from .nn import (Conv2dLayer, LayerNormLayer, MlpLayer, NonLocalBlock,
                 grid_sample, linear, softmax)
from .pipeline import BimanualHandNet, PipelineConfig, soft_argmax
from .tensor import (Tensor, _toposort, exp, mul, no_grad, reduce_mean, reduce_sum,
                     reset_grads, reshape, silu, softplus, sub)

EPS = 1e-6
RTOL = 1e-6
FLOOR = 1e-9
OP_TOLERANCE = 1e-6
END_TO_END_TOLERANCE = 1e-5

_corrupt_tag = None


@contextlib.contextmanager
def corrupt_gradients(op_tag):
    """Negative control: inside the block, ``fd_check`` scales the output
    gradient of every node tagged ``op_tag`` by 1.5 before its rule runs, so
    a check of that op must fail; ``None`` corrupts nothing. The previous tag
    comes back on exit, also when the block raises."""
    global _corrupt_tag
    prev, _corrupt_tag = _corrupt_tag, op_tag
    try:
        yield
    finally:
        _corrupt_tag = prev


def rel_error(analytic, numeric):
    """Worst relative disagreement, with an absolute floor for tiny entries.

    Defined so that ``rel_error(...) <= RTOL`` holds exactly when every entry
    satisfies |a - n| <= max(RTOL * max(|a|,|n|), FLOOR).
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), FLOOR / RTOL)
    return float(np.max(np.abs(analytic - numeric) / scale)) if analytic.size else 0.0


def numeric_grad(fn, leaf, coords):
    """d fn() / d leaf at the flat indices ``coords`` by central differences,
    perturbing ``leaf.data`` in place."""
    flat = leaf.data.reshape(-1)
    grad = np.zeros(len(coords))
    with no_grad():
        for k, i in enumerate(coords):
            orig = flat[i]
            flat[i] = orig + EPS
            f_plus = fn().item()
            flat[i] = orig - EPS
            f_minus = fn().item()
            flat[i] = orig
            grad[k] = (f_plus - f_minus) / (2.0 * EPS)
    return grad


def fd_check(fn, leaves, max_coords_per_leaf=None, rng=None):
    """Compare analytic and numeric gradients of ``fn`` w.r.t. ``leaves``.

    ``fn`` must rebuild the graph on every call and return a scalar Tensor.
    Returns the worst relative error across all checked coordinates; a leaf
    that ``fn`` gives no gradient is a ValueError, not a check of zeros.
    """
    for leaf in leaves:
        leaf.zero_grad()
        leaf.requires_grad = True
    out = fn()
    for node in _toposort(out):
        if node._op == _corrupt_tag:  # a tag of None matches no node
            node._backward = lambda g, rule=node._backward: rule(g * 1.5)
    out.backward()
    for index, leaf in enumerate(leaves):
        if leaf.grad is None:
            raise ValueError(f"leaf {index} of shape {leaf.shape} gets no gradient from fn")
    analytic = [leaf.grad.copy() for leaf in leaves]
    reset_grads(out)

    worst = 0.0
    for leaf, a in zip(leaves, analytic):
        coords = list(range(leaf.data.size))  # every coordinate of a small leaf
        if max_coords_per_leaf is not None and leaf.data.size > max_coords_per_leaf:
            r = rng if rng is not None else np.random.default_rng(0)
            coords = sorted(r.choice(leaf.data.size, size=max_coords_per_leaf,
                                     replace=False).tolist())
        worst = max(worst, rel_error(a.reshape(-1)[coords], numeric_grad(fn, leaf, coords)))
    return worst


# -- gradient-check registry -------------------------------------------------

GRADCHECK_REGISTRY = []  # (name, check, tol) in definition order


def _gradcheck(name, seed, tol=OP_TOLERANCE):
    """Register the decorated ``check(rng)`` as ``name``; every run of it
    gets a fresh ``default_rng(seed)``."""
    def register(check):
        GRADCHECK_REGISTRY.append((name, lambda: check(np.random.default_rng(seed)), tol))
        return check
    return register


def _probed(rng, fn, leaves, scale=1.0, **kw):
    """fd_check of sum(fn() * probe), the U(-1, 1) probe times ``scale`` drawn
    from ``rng`` after every input; ``rng`` then picks fd_check's coordinates."""
    with no_grad():
        shape = fn().shape
    probe = Tensor(rng.uniform(-1, 1, shape) * scale)
    return fd_check(lambda: (fn() * probe).sum(), leaves, rng=rng, **kw)


@_gradcheck("matmul", 11)
def _check_matmul(rng):
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    pair = Tensor(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)  # w serves both
    return max(_probed(rng, lambda: x @ w, [x, w]), _probed(rng, lambda: pair @ w, [pair, w]))


@_gradcheck("linear", 73)
def _check_linear(rng):
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    v = Tensor(rng.uniform(-2, 2, 4), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
    return max(_probed(rng, lambda: linear(x, w, b), [x, w, b]),
               _probed(rng, lambda: linear(v, w, b), [v, w, b]))


@_gradcheck("elementwise", 13)
def _check_elementwise(rng):
    a = Tensor(rng.uniform(0.2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.2, 2, (3, 4)), requires_grad=True)

    def run():
        h = mul(silu(a), softplus(b))
        return sub(h, exp(a * 0.3)).sum()

    return fd_check(run, [a, b])


@_gradcheck("abs", 79)
def _check_abs(rng):
    # away from the kink at 0, where the central difference is not the slope
    x = Tensor(rng.uniform(0.1, 2, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
               requires_grad=True)
    return _probed(rng, lambda: abs(x), [x])


@_gradcheck("reduce", 17)
def _check_reduce(rng):
    x = Tensor(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, 3))

    def run():
        return (reduce_mean(x, 1) * w).sum() + reduce_sum(x).sum() * 0.1

    return fd_check(run, [x])


@_gradcheck("conv2d", 19)
def _check_conv2d(rng):
    layer = Conv2dLayer(2, 3, 3, stride=2, padding=1, rng=rng)
    x = Tensor(rng.uniform(-2, 2, (2, 5, 5)), requires_grad=True)
    point = Conv2dLayer(2, 3, 1, rng=rng)  # 1x1: im2col is a view of x
    return max(_probed(rng, lambda: m(x), [x, m.weight, m.bias]) for m in (layer, point))


@_gradcheck("conv1d", 83)
def _check_conv1d(rng):
    x = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    return _probed(rng, lambda: ssm.depthwise_conv1d_causal(x, w, b), [x, w, b])


@_gradcheck("layernorm", 23)
def _check_layernorm(rng):
    layer = LayerNormLayer(6)
    x = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    trailing = _probed(rng, lambda: layer(x), [x, layer.gamma, layer.beta])

    # spatial norm of a [c,h,w] map, with a non-trivial channel affine
    norm = LayerNormLayer(3, axes=(1, 2))
    norm.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
    norm.beta.data[:] = rng.uniform(-1, 1, 3)
    fmap = Tensor(rng.uniform(-2, 2, (3, 4, 5)), requires_grad=True)
    spatial = _probed(rng, lambda: norm(fmap), [fmap, norm.gamma, norm.beta])
    return max(trailing, spatial)


@_gradcheck("softmax", 29)
def _check_softmax(rng):
    x = Tensor(rng.uniform(-3, 3, (3, 5)), requires_grad=True)
    return _probed(rng, lambda: softmax(x, axis=1), [x])


@_gradcheck("grid_sample", 31)
def _check_grid_sample(rng):
    f = Tensor(rng.uniform(-2, 2, (2, 5, 6)), requires_grad=True)
    pts = Tensor(np.stack([rng.uniform(0.3, 4.2, 5), rng.uniform(0.3, 3.2, 5)],
                          axis=1) + 0.13, requires_grad=True)
    single = _probed(rng, lambda: grid_sample(f, pts), [f, pts])
    fs = Tensor(rng.uniform(-2, 2, (2, 2, 5, 6)), requires_grad=True)
    ps = Tensor(np.stack([rng.uniform(0.3, 4.2, (2, 5)), rng.uniform(0.3, 3.2, (2, 5))],
                         axis=-1) + 0.13, requires_grad=True)
    return max(single, _probed(rng, lambda: grid_sample(fs, ps), [fs, ps]))


@_gradcheck("non_local", 37)
def _check_non_local(rng):
    block = NonLocalBlock(3, rng, zero_init_out=False)
    block.z.weight.data[:] = rng.uniform(-0.5, 0.5, block.z.weight.shape)
    x = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
    ctx = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
    leaves = [x, ctx] + [t for _, t in block.params()]
    return _probed(rng, lambda: block(x, ctx), leaves)


@_gradcheck("mlp", 41)
def _check_mlp(rng):
    layer = MlpLayer(4, ratio=2, rng=rng)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    return _probed(rng, lambda: layer(x), [x] + [t for _, t in layer.params()])


@_gradcheck("selective_scan", 43)
def _check_selective_scan(rng):
    seq, ch, state = 5, 2, 3
    delta = Tensor(rng.uniform(0.02, 0.3, (seq, ch)), requires_grad=True)
    a = Tensor(-rng.uniform(0.5, 3.0, (ch, state)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (seq, state)), requires_grad=True)
    c = Tensor(rng.uniform(-1, 1, (seq, state)), requires_grad=True)
    d = Tensor(rng.uniform(-1, 1, ch), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (seq, ch)), requires_grad=True)
    return _probed(rng, lambda: ssm.selective_scan(ssm.ScanCoeffs(delta, a, b, c, d), x),
                   [x, delta, a, b, c, d])


@_gradcheck("vmblock", 47)
def _check_vmblock(rng):
    block = ssm.VmBlockLayer(6, state_dim=3, conv_width=3, rng=np.random.default_rng(2))
    block.out_proj.weight.data[:] = rng.normal(0, 0.2, block.out_proj.weight.shape)
    block.mlp.fc2.weight.data[:] = rng.normal(0, 0.2, block.mlp.fc2.weight.shape)
    x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    return _probed(rng, lambda: block(x), [x] + [t for _, t in block.params()],
                   max_coords_per_leaf=8)


@_gradcheck("soft_argmax", 53)
def _check_soft_argmax(rng):
    logits = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    return _probed(rng, lambda: soft_argmax(logits, np.linspace(0.0, 5.0, 6)), [logits])


@_gradcheck("rodrigues", 59)
def _check_rodrigues(rng):
    worst = 0.0
    probe = Tensor(rng.uniform(-1, 1, (3, 3)))  # one probe, drawn before the inputs
    for scale in (1.2, 1e-3, 5e-9):
        aa = Tensor(rng.uniform(-1, 1, 3) * scale, requires_grad=True)
        worst = max(worst, fd_check(
            lambda: (reshape(handmodel.rodrigues_batch(reshape(aa, (1, 3))), (3, 3))
                     * probe).sum(), [aa]))
    return worst


@_gradcheck("lbs", 61)
def _check_lbs(rng):
    rig = handmodel.make_default_rig(seed=0)
    worst = 0.0
    for lead in ((), (2,)):  # one hand, and the hand pair in one pass
        theta = Tensor(rng.normal(0, 0.3, lead + (16, 3)), requires_grad=True)
        beta = Tensor(rng.normal(0, 1, lead + (10,)), requires_grad=True)
        worst = max(worst, _probed(rng, lambda: handmodel.lbs(rig, theta, beta).vertices,
                                   [theta, beta], scale=0.02, max_coords_per_leaf=16))
    return worst


@_gradcheck("loss", 67)
def _check_loss(rng):
    cfg = PipelineConfig.toy(seed=1)
    net = BimanualHandNet(cfg)
    sample = tr.synth_dataset(cfg, net.rig, 1, seed=4)[0]
    preds = {
        "theta": Tensor(rng.normal(0, 0.3, (2, 16, 3)), requires_grad=True),
        "beta": Tensor(rng.normal(0, 1, (2, 10)), requires_grad=True),
        "t_rel": Tensor(rng.uniform(-20, 20, 3), requires_grad=True),
        "vertices": Tensor(rng.normal(0, 20, (2, cfg.vertices, 3)), requires_grad=True),
    }
    out = dataclasses.replace(net.forward(Tensor(sample.image)), **preds)
    return fd_check(lambda: tr.loss(out, sample) * 0.05, list(preds.values()),
                    max_coords_per_leaf=12, rng=rng)


@_gradcheck("end_to_end", 71, tol=END_TO_END_TOLERANCE)
def _check_end_to_end(rng):
    net = BimanualHandNet(PipelineConfig.toy(seed=2))
    for _, t in net.params():
        if np.all(t.data == 0.0):
            t.data[:] = rng.normal(0, 0.1, t.data.shape)
    img = Tensor(rng.uniform(0, 1, (3, 64, 64)))
    scales = {"theta": 1.0, "beta": 0.1, "joints_uvd": 0.05, "vertices": 0.005, "t_rel": 0.03}
    probes = {}

    def run():
        out = net.forward(img)
        if not probes:
            for name, s in scales.items():
                probes[name] = Tensor(rng.uniform(-1, 1, getattr(out, name).shape) * s)
        total = None
        for name, p in probes.items():
            term = (getattr(out, name) * p).mean()
            total = term if total is None else total + term
        return total

    leaves = [t for _, t in net.params()]
    return fd_check(run, leaves, max_coords_per_leaf=2, rng=rng)


def run_gradcheck(corrupt=None):
    """Run every registered check once, under ``corrupt_gradients(corrupt)``;
    returns (all_passed, report rows)."""
    rows = []
    with corrupt_gradients(corrupt):
        for name, check, tol in GRADCHECK_REGISTRY:
            err = check()
            ok = err <= tol
            rows.append((name, err, tol, ok))
            print(f"{name:16s} max_rel_err={err:.3e}  tol={tol:.0e}  "
                  f"{'ok' if ok else 'FAIL'}")
    return all(r[3] for r in rows), rows
