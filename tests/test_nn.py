import math

import numpy as np
import numpy.testing as npt
import pytest

from bihand import nn
from bihand.tensor import Tensor, matmul, reshape, transpose
from bihand.gradcheck import fd_check


def conv1x1_as_matmul(x, weight, bias):
    """Reference path: a 1x1 convolution is a per-pixel matmul."""
    c, h, w = x.shape
    cout = weight.shape[0]
    flat = reshape(x, (c, h * w))
    out = matmul(reshape(weight, (cout, c)), flat) + reshape(bias, (cout, 1))
    return reshape(out, (cout, h, w))


def attention_weights(block, x, context):
    """Attention matrix [query, key] of a NonLocalBlock alone, for verification."""
    c, h, w = x.shape
    n = h * w
    q = reshape(block.theta(x), (block.inner, n))
    k = reshape(block.phi(context), (block.inner, n))
    return nn.softmax(matmul(transpose(q), k), axis=1)


def conv_oracle(x, w, b, stride, pad):
    """Six nested loops, no vectorization."""
    cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wid + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, oh, ow))
    for o in range(cout):
        for y in range(oh):
            for xx in range(ow):
                acc = b[o]
                for c in range(cin):
                    for i in range(kh):
                        for j in range(kw):
                            acc += w[o, c, i, j] * xp[c, y * stride + i, xx * stride + j]
                out[o, y, xx] = acc
    return out


def test_conv1x1_identity():
    layer = nn.Conv2dLayer(1, 1, 1, zero_init=True)
    layer.weight.data[:] = 1.0
    x = Tensor(np.arange(12.0).reshape(1, 3, 4))
    npt.assert_array_equal(layer(x).data, x.data)


def test_conv1x1_channel_sum():
    layer = nn.Conv2dLayer(2, 1, 1, zero_init=True)
    layer.weight.data[:] = 1.0
    x = Tensor(np.stack([np.full((2, 2), 3.0), np.full((2, 2), 4.0)]))
    npt.assert_array_equal(layer(x).data, np.full((1, 2, 2), 7.0))


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv3x3_against_loop_oracle(stride, pad):
    rng = np.random.default_rng(101 + stride * 10 + pad)
    x = rng.uniform(-2, 2, (3, 6, 5))
    w = rng.uniform(-1, 1, (4, 3, 3, 3))
    b = rng.uniform(-1, 1, 4)
    layer = nn.Conv2dLayer(3, 4, 3, stride=stride, padding=pad, zero_init=True)
    layer.weight.data[:] = w
    layer.bias.data[:] = b
    got = layer(Tensor(x)).data
    assert np.max(np.abs(got - conv_oracle(x, w, b, stride, pad))) <= 1e-12


def test_conv_channel_mismatch():
    layer = nn.Conv2dLayer(3, 4, 3, zero_init=True)
    with pytest.raises(ValueError, match="channel"):
        layer(Tensor(np.zeros((2, 5, 5))))


def test_conv1x1_equals_per_pixel_matmul():
    rng = np.random.default_rng(7)
    layer = nn.Conv2dLayer(5, 3, 1, rng=rng)
    x = Tensor(rng.uniform(-2, 2, (5, 4, 6)))
    a = layer(x).data
    b = conv1x1_as_matmul(x, layer.weight, layer.bias).data
    assert np.max(np.abs(a - b)) <= 1e-12


def test_conv_gradients():
    rng = np.random.default_rng(13)
    layer = nn.Conv2dLayer(2, 3, 3, stride=2, padding=1, rng=rng)
    x = Tensor(rng.uniform(-2, 2, (2, 5, 5)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (3, 3, 3)))
    err = fd_check(lambda: (layer(x) * probe).sum(),
                   [x, layer.weight, layer.bias])
    assert err <= 1e-6


def test_layernorm_constant_row_is_zero():
    layer = nn.LayerNormLayer(3)
    out = layer(Tensor([5.0, 5.0, 5.0]))
    npt.assert_allclose(out.data, [0.0, 0.0, 0.0], atol=1e-9)


def test_layernorm_unit_variance_pair():
    layer = nn.LayerNormLayer(2, eps=1e-14)
    out = layer(Tensor([1.0, -1.0]))
    npt.assert_allclose(out.data, [1.0, -1.0], atol=1e-7)


def test_layernorm_moments():
    rng = np.random.default_rng(19)
    layer = nn.LayerNormLayer(64, eps=1e-12)
    x = Tensor(rng.uniform(-2, 2, (8, 64)))
    out = layer(x).data
    assert np.max(np.abs(out.mean(axis=-1))) <= 1e-12
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-6


def test_layernorm_gradients():
    rng = np.random.default_rng(23)
    layer = nn.LayerNormLayer(6)
    x = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (3, 6)))
    err = fd_check(lambda: (layer(x) * probe).sum(), [x, layer.gamma, layer.beta])
    assert err <= 1e-6


def test_softmax_uniform():
    out = nn.softmax(Tensor([0.0, 0.0, 0.0]))
    npt.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_large_logits_no_overflow():
    out = nn.softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    npt.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(29)
    for _ in range(20):
        x = Tensor(rng.uniform(-5, 5, (4, 7)))
        s = nn.softmax(x, axis=1).data.sum(axis=1)
        assert np.max(np.abs(s - 1.0)) <= 1e-12


def test_softmax_gradients():
    rng = np.random.default_rng(31)
    x = Tensor(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (3, 5)))
    assert fd_check(lambda: (nn.softmax(x, axis=1) * probe).sum(), [x]) <= 1e-6


def bilinear_oracle(f, x, y):
    c, h, w = f.shape
    xc = min(max(x, 0.0), w - 1.0)
    yc = min(max(y, 0.0), h - 1.0)
    x0 = min(int(math.floor(xc)), max(w - 2, 0))
    y0 = min(int(math.floor(yc)), max(h - 2, 0))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx, fy = xc - x0, yc - y0
    return ((1 - fx) * (1 - fy) * f[:, y0, x0] + fx * (1 - fy) * f[:, y0, x1]
            + (1 - fx) * fy * f[:, y1, x0] + fx * fy * f[:, y1, x1])


def test_grid_sample_integer_point():
    rng = np.random.default_rng(37)
    f = Tensor(rng.uniform(-2, 2, (3, 5, 6)))
    out = nn.grid_sample(f, Tensor([[2.0, 3.0]]))
    npt.assert_array_equal(out.data[0], f.data[:, 3, 2])


def test_grid_sample_midpoint_average():
    rng = np.random.default_rng(41)
    f = Tensor(rng.uniform(-2, 2, (2, 4, 4)))
    out = nn.grid_sample(f, Tensor([[1.5, 2.0]]))
    want = 0.5 * (f.data[:, 2, 1] + f.data[:, 2, 2])
    assert np.max(np.abs(out.data[0] - want)) <= 1e-12


def test_grid_sample_random_points_match_oracle():
    rng = np.random.default_rng(43)
    for _ in range(100):
        f = rng.uniform(-2, 2, (3, 5, 7))
        pts = np.stack([rng.uniform(-1, 8, 6), rng.uniform(-1, 6, 6)], axis=1)
        got = nn.grid_sample(Tensor(f), Tensor(pts)).data
        want = np.stack([bilinear_oracle(f, x, y) for x, y in pts])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_grid_sample_planar_field_is_exact():
    # f(x, y) = a*x + b*y + c is reproduced exactly inside the grid
    a, b, c = 0.7, -1.3, 0.25
    h, w = 5, 6
    ys, xs = np.mgrid[0:h, 0:w]
    f = Tensor((a * xs + b * ys + c)[None, :, :])
    rng = np.random.default_rng(47)
    pts = np.stack([rng.uniform(0, w - 1, 50), rng.uniform(0, h - 1, 50)], axis=1)
    got = nn.grid_sample(f, Tensor(pts)).data[:, 0]
    want = a * pts[:, 0] + b * pts[:, 1] + c
    assert np.max(np.abs(got - want)) <= 1e-12


def test_grid_sample_out_of_range_clamps():
    rng = np.random.default_rng(53)
    f = Tensor(rng.uniform(-2, 2, (2, 3, 3)))
    out = nn.grid_sample(f, Tensor([[-5.0, 1.0], [10.0, 10.0]]))
    npt.assert_array_equal(out.data[0], f.data[:, 1, 0])
    npt.assert_array_equal(out.data[1], f.data[:, 2, 2])


def test_grid_sample_gradients():
    rng = np.random.default_rng(59)
    f = Tensor(rng.uniform(-2, 2, (2, 5, 6)), requires_grad=True)
    # interior, non-integer points so the bilinear cell is locally stable
    pts = Tensor(np.stack([rng.uniform(0.2, 4.3, 5) + 0.37,
                           rng.uniform(0.2, 3.3, 5) + 0.21], axis=1),
                 requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (5, 2)))
    assert fd_check(lambda: (nn.grid_sample(f, pts) * probe).sum(), [f, pts]) <= 1e-6


def nonlocal_oracle(block, x, ctx):
    """O(n^2) double loop over positions, own softmax."""
    c, h, w = x.shape
    n = h * w

    def conv1x1(layer, m):
        wgt = layer.weight.data.reshape(layer.weight.shape[0], layer.weight.shape[1])
        return (wgt @ m.reshape(m.shape[0], n)) + layer.bias.data[:, None]

    q = conv1x1(block.theta, x)
    k = conv1x1(block.phi, ctx)
    v = conv1x1(block.g, ctx)
    y = np.zeros_like(v)
    for i in range(n):
        logits = np.array([q[:, i] @ k[:, j] for j in range(n)])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        for j in range(n):
            y[:, i] += weights[j] * v[:, j]
    zw = block.z.weight.data.reshape(c, block.inner)
    out = (zw @ y) + block.z.bias.data[:, None]
    return out.reshape(c, h, w) + x


def test_non_local_single_position():
    rng = np.random.default_rng(61)
    block = nn.NonLocalBlock(4, rng, zero_init_out=False)
    block.z.weight.data[:] = rng.uniform(-1, 1, block.z.weight.shape)
    x = Tensor(rng.uniform(-1, 1, (4, 1, 1)))
    ctx = Tensor(rng.uniform(-1, 1, (4, 1, 1)))
    got = block(x, ctx).data
    want = nonlocal_oracle(block, x.data, ctx.data)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_non_local_zero_out_projection_is_identity():
    rng = np.random.default_rng(67)
    block = nn.NonLocalBlock(6, rng)  # z zero-initialized by default
    x = Tensor(rng.uniform(-1, 1, (6, 3, 3)))
    ctx = Tensor(rng.uniform(-1, 1, (6, 3, 3)))
    assert np.array_equal(block(x, ctx).data, x.data)


def test_non_local_against_brute_force():
    rng = np.random.default_rng(71)
    for trial in range(100):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        block = nn.NonLocalBlock(c, rng, zero_init_out=False)
        block.z.weight.data[:] = rng.uniform(-1, 1, block.z.weight.shape)
        block.z.bias.data[:] = rng.uniform(-1, 1, block.z.bias.shape)
        x = Tensor(rng.uniform(-2, 2, (c, h, w)))
        ctx = Tensor(rng.uniform(-2, 2, (c, h, w)))
        got = block(x, ctx).data
        want = nonlocal_oracle(block, x.data, ctx.data)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_non_local_attention_rows_sum_to_one():
    rng = np.random.default_rng(73)
    block = nn.NonLocalBlock(5, rng)
    x = Tensor(rng.uniform(-3, 3, (5, 3, 2)))
    ctx = Tensor(rng.uniform(-3, 3, (5, 3, 2)))
    attn = attention_weights(block, x, ctx).data
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) <= 1e-12


def test_non_local_shape_mismatch():
    rng = np.random.default_rng(79)
    block = nn.NonLocalBlock(4, rng)
    with pytest.raises(ValueError):
        block(Tensor(np.zeros((4, 2, 2))), Tensor(np.zeros((4, 3, 2))))


def test_non_local_gradients():
    rng = np.random.default_rng(83)
    block = nn.NonLocalBlock(3, rng, zero_init_out=False)
    block.z.weight.data[:] = rng.uniform(-0.5, 0.5, block.z.weight.shape)
    x = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
    ctx = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (3, 2, 2)))
    leaves = [x, ctx] + [t for _, t in block.params()]
    assert fd_check(lambda: (block(x, ctx) * probe).sum(), leaves) <= 1e-6


def test_mlp_zero_weights_give_bias():
    layer = nn.MlpLayer(3, ratio=2, rng=np.random.default_rng(0), zero_init_out=True)
    layer.fc2.bias.data[:] = [1.0, 2.0, 3.0]
    out = layer(Tensor(np.zeros((4, 3))))
    npt.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))


def test_mlp_identity_on_positive_input():
    layer = nn.MlpLayer(3, ratio=1, rng=np.random.default_rng(0))
    layer.fc1.weight.data[:] = np.eye(3)
    layer.fc2.weight.data[:] = np.eye(3)
    x = np.array([[0.5, 1.0, 2.0]])
    npt.assert_array_equal(layer(Tensor(x)).data, x)


def test_mlp_gradients():
    rng = np.random.default_rng(89)
    layer = nn.MlpLayer(4, ratio=2, rng=rng)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (3, 4)))
    leaves = [x] + [t for _, t in layer.params()]
    assert fd_check(lambda: (layer(x) * probe).sum(), leaves) <= 1e-6


def test_mlp_width_mismatch():
    layer = nn.MlpLayer(4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        layer(Tensor(np.zeros((2, 5))))


def test_layers_require_rng_unless_zero_init():
    with pytest.raises(ValueError, match="rng"):
        nn.Linear(3, 2)
    with pytest.raises(ValueError, match="rng"):
        nn.Conv2dLayer(2, 3, 1)
    with pytest.raises(ValueError, match="rng"):
        nn.MlpLayer(4, zero_init_out=True)  # the hidden layer is never zero
    assert not np.any(nn.Linear(3, 2, zero_init=True).weight.data)
    assert not np.any(nn.Conv2dLayer(2, 3, 1, zero_init=True).weight.data)


def test_spatial_layernorm_matches_per_channel_formula():
    rng = np.random.default_rng(29)
    layer = nn.LayerNormLayer(4, axes=(1, 2))
    layer.gamma.data[:] = rng.uniform(0.5, 2, 4)
    layer.beta.data[:] = rng.uniform(-1, 1, 4)
    x = rng.uniform(-3, 3, (4, 5, 3))
    centered = x - x.mean(axis=(1, 2), keepdims=True)
    normed = centered / np.sqrt((centered ** 2).mean(axis=(1, 2), keepdims=True) + 1e-5)
    want = normed * layer.gamma.data[:, None, None] + layer.beta.data[:, None, None]
    assert np.max(np.abs(layer(Tensor(x)).data - want)) <= 1e-12


def test_layernorm_rejects_bad_axes_and_shapes():
    with pytest.raises(ValueError, match="axes"):
        nn.LayerNormLayer(4, axes=(0,))
    with pytest.raises(ValueError, match=r"\[4,h,w\]"):
        nn.LayerNormLayer(4, axes=(1, 2))(Tensor(np.zeros((3, 2, 2))))
    with pytest.raises(ValueError, match="trailing dim"):
        nn.LayerNormLayer(4)(Tensor(np.zeros((2, 3))))


class _Tree(nn.Module):
    def __init__(self, rng):
        self.width = 3                            # ints are not parameters
        self.table = np.ones(3)                   # nor are plain arrays
        self.scale = Tensor(np.ones(3), requires_grad=True)
        self.blocks = [nn.Linear(3, 3, rng=rng), nn.LayerNormLayer(3)]
        self.head_l = nn.Linear(3, 1, zero_init=True)
        self.head_r = self.head_l                 # alias: registered once


def test_module_registry_walks_declaration_order():
    tree = _Tree(np.random.default_rng(3))
    names = [n for n, _ in tree.params()]
    assert names == ["scale", "block0.weight", "block0.bias", "block1.gamma",
                     "block1.beta", "head_l.weight", "head_l.bias"]
    assert tree.params()[-1][1] is tree.head_r.bias
