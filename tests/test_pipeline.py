import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from bihand import pipeline as pl
from bihand.tensor import Tensor, concat, no_grad, reshape, stack
from bihand.gradcheck import fd_check


def small_config(**over):
    base = dict(image_h=16, image_w=16, backbone_channels=8, backbone_stages=3,
                joints=4, depth_bins=4, vertices=244, vm_ife_depth=1, jvm_depth=1,
                state_dim=3, expand=2, conv_width=2, mlp_ratio=1, seed=3)
    base.update(over)
    return pl.PipelineConfig(**base)


@pytest.fixture(scope="module")
def toy_net():
    return pl.BimanualHandNet(pl.PipelineConfig.toy())


def identity_trunk(block):
    """Shared-initialization regime: pass-through trunk, per-hand heads shared."""
    c2 = block.initial_conv.weight.shape[0]
    block.initial_conv.weight.data[:] = np.eye(c2).reshape(c2, c2, 1, 1)
    block.initial_conv.bias.data[:] = 0.0


def passthrough_fusion(block):
    c = block.fuse.weight.shape[0]
    w = np.zeros((c, 2 * c, 1, 1))
    w[:, :c, 0, 0] = np.eye(c)
    block.fuse.weight.data[:] = w
    block.fuse.bias.data[:] = 0.0


def pair_map(rng, c, h, w):
    """The left and right hands' maps [c,h,w], and their pair map [2c,h,w]."""
    f_l, f_r = (Tensor(rng.uniform(-1, 1, (c, h, w))) for _ in "lr")
    return f_l, f_r, concat([f_l, f_r], axis=0)


# -- backbone ---------------------------------------------------------------

def test_backbone_toy_shapes(toy_net):
    rng = np.random.default_rng(0)
    f = toy_net.backbone(Tensor(rng.uniform(0, 1, (3, 64, 64))))
    assert f.shape == (32, 8, 8)  # both hands' 16 channels


def test_backbone_full_profile_shapes():
    cfg = pl.PipelineConfig.full()
    assert cfg.map_h == cfg.image_h // 32
    assert cfg.hand_channels == cfg.backbone_channels // 4
    backbone = pl.Backbone(cfg, np.random.default_rng(0))
    with no_grad():
        f = backbone(Tensor(np.random.default_rng(1).uniform(0, 1, (3, 256, 256))))
    assert f.shape == (1024, 8, 8)


def test_backbone_zero_image_gives_zero_maps(toy_net):
    f = toy_net.backbone(Tensor(np.zeros((3, 64, 64))))
    assert np.all(f.data == 0.0)


def test_backbone_rejects_wrong_shape(toy_net):
    with pytest.raises(ValueError):
        toy_net.backbone(Tensor(np.zeros((3, 32, 64))))


# -- interaction block --------------------------------------------------------

def test_interaction_identity_composition():
    cfg = small_config()
    block = pl.InteractionFeatureBlock(cfg, np.random.default_rng(5))
    identity_trunk(block)
    passthrough_fusion(block)
    rng = np.random.default_rng(7)
    f_l, _, f = pair_map(rng, cfg.hand_channels, 2, 2)
    starred_l, _ = block(f)
    assert np.array_equal(starred_l.data, f_l.data)


def test_interaction_output_shapes():
    cfg = small_config()
    block = pl.InteractionFeatureBlock(cfg, np.random.default_rng(11))
    rng = np.random.default_rng(13)
    c = cfg.hand_channels
    for m in block(pair_map(rng, c, 3, 2)[2]):
        assert m.shape == (c, 3, 2)


def test_interaction_mismatched_hands():
    # a map whose width is not both hands' channels is refused by name
    cfg = small_config()
    block = pl.InteractionFeatureBlock(cfg, np.random.default_rng(17))
    for width in (cfg.hand_channels, 2 * cfg.hand_channels + 1):
        with pytest.raises(ValueError, match=r"conv2d channel mismatch: input "
                                             rf"\({width}, 2, 2\)"):
            block(Tensor(np.zeros((width, 2, 2))))


def test_interaction_gradients():
    cfg = small_config()
    block = pl.InteractionFeatureBlock(cfg, np.random.default_rng(19))
    rng = np.random.default_rng(23)
    # give the zero-initialized residual projections signal
    for _, t in block.params():
        if np.all(t.data == 0.0):
            t.data[:] = rng.normal(0, 0.15, t.data.shape)
    c = cfg.hand_channels
    f_l = Tensor(rng.uniform(-1, 1, (c, 2, 2)), requires_grad=True)
    f_r = Tensor(rng.uniform(-1, 1, (c, 2, 2)), requires_grad=True)
    probe_l = Tensor(rng.uniform(-1, 1, (c, 2, 2)))
    probe_r = Tensor(rng.uniform(-1, 1, (c, 2, 2)))

    def run():
        s_l, s_r = block(concat([f_l, f_r], axis=0))
        return (s_l * probe_l).sum() + (s_r * probe_r).sum()

    leaves = [f_l, f_r] + [t for _, t in block.params()]
    assert fd_check(run, leaves, max_coords_per_leaf=6, rng=rng) <= 1e-6


def test_hand_swap_equivariance_with_shared_heads():
    # identity trunk and shared per-hand heads: swapping the halves of the
    # pair map must swap the starred outputs bitwise
    cfg = small_config()
    block = pl.InteractionFeatureBlock(cfg, np.random.default_rng(29))
    identity_trunk(block)
    rng = np.random.default_rng(31)
    f_l, f_r, f = pair_map(rng, cfg.hand_channels, 2, 2)
    s_l, s_r = block(f)
    s_l_swap, s_r_swap = block(concat([f_r, f_l], axis=0))
    assert np.array_equal(s_l_swap.data, s_r.data)
    assert np.array_equal(s_r_swap.data, s_l.data)


# -- soft-argmax and joint extraction ------------------------------------------

def test_soft_argmax_single_position():
    out = pl.soft_argmax(Tensor([3.7]), np.array([2.0]))
    assert out.data[()] == 2.0


def test_soft_argmax_two_equal_logits():
    out = pl.soft_argmax(Tensor([1.0, 1.0]), np.array([0.0, 1.0]))
    npt.assert_allclose(out.data, 0.5, atol=1e-15)


def test_soft_argmax_sharp_logits_closed_form():
    out = pl.soft_argmax(Tensor([10.0, 0.0]), np.array([0.0, 1.0]))
    want = 1.0 / (1.0 + math.exp(10.0))  # sigmoid(-10)
    npt.assert_allclose(out.data, want, rtol=1e-12)


def test_soft_argmax_stays_in_hull():
    rng = np.random.default_rng(37)
    positions = np.arange(7.0)
    for _ in range(10_000):
        logits = Tensor(rng.uniform(-50, 50, 7))
        v = pl.soft_argmax(logits, positions).data[()]
        assert 0.0 <= v <= 6.0


def test_soft_argmax_gradients():
    rng = np.random.default_rng(41)
    logits = Tensor(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
    pos = np.arange(5.0)
    probe = Tensor(rng.uniform(-1, 1, 3))
    assert fd_check(lambda: (pl.soft_argmax(logits, pos) * probe).sum(), [logits]) <= 1e-6


def test_extractor_near_delta_logits(toy_net):
    cfg = toy_net.config
    ext = pl.JointFeatureExtractor(cfg, np.random.default_rng(43))
    ext.heat_conv.weight.data[:] = 0.0
    ext.heat_conv.weight.data[0, 0, 0, 0] = 1.0  # joint 0 reads input channel 0
    f = np.zeros((cfg.hand_channels, 8, 8))
    f[0, 2, 5] = 1000.0
    _, uvd, _, _ = ext([Tensor(f), Tensor(f)])
    npt.assert_allclose(uvd.data[:, 0, :2], [[5.0, 2.0]] * 2, atol=1e-6)


def test_extractor_uniform_logits_give_center(toy_net):
    cfg = toy_net.config
    ext = pl.JointFeatureExtractor(cfg, np.random.default_rng(47))
    ext.heat_conv.weight.data[:] = 0.0
    ext.heat_conv.weight.data[:, 0, 0, 0] = np.arange(cfg.joints)  # constant per joint
    f = Tensor(np.ones((cfg.hand_channels, 8, 8)))
    _, uvd, _, _ = ext([f, f])
    assert np.all(uvd.data[..., 0] == 3.5)
    assert np.all(uvd.data[..., 1] == 3.5)


def test_extractor_coords_match_expectation_loops(toy_net):
    cfg = toy_net.config
    ext = pl.JointFeatureExtractor(cfg, np.random.default_rng(53))
    rng = np.random.default_rng(59)
    f = Tensor(rng.uniform(-2, 2, (cfg.hand_channels, 8, 8)))
    heat, uvd, _, _ = ext([f, Tensor(np.zeros(f.shape))])
    logits = heat.spatial_logits.data[0]
    for j in range(cfg.joints):
        w = np.exp(logits[j] - logits[j].max())
        w /= w.sum()
        ex = sum(w[y, x] * x for y in range(8) for x in range(8))
        ey = sum(w[y, x] * y for y in range(8) for x in range(8))
        assert abs(uvd.data[0, j, 0] - ex) <= 1e-12
        assert abs(uvd.data[0, j, 1] - ey) <= 1e-12
    dz = heat.depth_logits.data[0]
    for j in range(cfg.joints):
        w = np.exp(dz[j] - dz[j].max())
        w /= w.sum()
        ez = (w * np.arange(cfg.depth_bins)).sum()
        assert abs(uvd.data[0, j, 2] - ez) <= 1e-12


def test_extractor_feature_hull(toy_net):
    cfg = toy_net.config
    rng = np.random.default_rng(61)
    with no_grad():
        for _ in range(50):
            f_l, f_r = (Tensor(rng.uniform(-9, 9, (cfg.hand_channels, 8, 8))) for _ in "lr")
            _, uvd, _, _ = toy_net.extractor([f_l, f_r])
            assert np.all(uvd.data[..., 0] >= 0) and np.all(uvd.data[..., 0] <= 7)
            assert np.all(uvd.data[..., 1] >= 0) and np.all(uvd.data[..., 1] <= 7)
            assert np.all(uvd.data[..., 2] >= 0) and np.all(uvd.data[..., 2] <= cfg.depth_bins - 1)


# -- joint refiner --------------------------------------------------------------

def test_refiner_identity_at_init():
    cfg = small_config()
    refiner = pl.JointSequenceRefiner(cfg, np.random.default_rng(67))
    rng = np.random.default_rng(71)
    a = Tensor(rng.uniform(-1, 1, (cfg.joints, cfg.hand_channels)))
    b = Tensor(rng.uniform(-1, 1, (cfg.joints, cfg.hand_channels)))
    out_a, out_b = refiner(stack([a, b]))
    assert np.array_equal(out_a.data, a.data)
    assert np.array_equal(out_b.data, b.data)


def test_refiner_shape_for_any_joint_count():
    cfg = small_config()
    refiner = pl.JointSequenceRefiner(cfg, np.random.default_rng(73))
    for j in (1, 2, 9):
        a = Tensor(np.random.default_rng(j).uniform(-1, 1, (j, cfg.hand_channels)))
        out_a, out_b = refiner(stack([a, a]))
        assert out_a.shape == (j, cfg.hand_channels)


def test_refiner_is_order_sensitive():
    cfg = small_config(joints=6)
    refiner = pl.JointSequenceRefiner(cfg, np.random.default_rng(79))
    rng = np.random.default_rng(83)
    for block in refiner.blocks:
        block.out_proj.weight.data[:] = rng.normal(0, 0.3, block.out_proj.weight.shape)
    a = Tensor(rng.uniform(-1, 1, (6, cfg.hand_channels)))
    out, _ = refiner(stack([a, a]))
    perm = np.array([3, 1, 5, 0, 4, 2])
    out_perm, _ = refiner(stack([Tensor(a.data[perm]), a]))
    assert np.max(np.abs(out_perm.data - out.data[perm])) > 1e-8


# -- regressor -------------------------------------------------------------------

def test_regressor_zero_weights_zero_outputs():
    cfg = small_config()
    reg = pl.DualHandRegressor(cfg, np.random.default_rng(97))
    for _, t in reg.params():
        t.data[:] = 0.0
    rng = np.random.default_rng(101)
    c, j = cfg.hand_channels, cfg.joints
    xy, z = rng.uniform(0, 1, (j, 2)), rng.uniform(0, 1, j)
    refined = Tensor(rng.uniform(-1, 1, (j, c)))
    starred = Tensor(rng.uniform(-1, 1, (c, 2, 2)))
    uvd = Tensor(np.stack([np.concatenate([xy, z[:, None]], axis=-1)] * 2))
    theta, beta, t_rel = reg(stack([refined, refined]), uvd, stack([starred, starred]))
    assert theta.shape == (2, 16, 3) and theta.data.size == 96
    assert beta.shape == (2, 10)
    assert t_rel.shape == (3,)
    assert np.all(theta.data == 0) and np.all(beta.data == 0) and np.all(t_rel.data == 0)


def test_regressor_gradients():
    cfg = small_config()
    reg = pl.DualHandRegressor(cfg, np.random.default_rng(103))
    rng = np.random.default_rng(107)
    for _, t in reg.params():
        t.data[:] = rng.normal(0, 0.2, t.data.shape)  # heads start at zero
    c, j = cfg.hand_channels, cfg.joints
    xy_l = Tensor(rng.uniform(0, 1, (j, 2)), requires_grad=True)
    z_l = Tensor(rng.uniform(0, 1, j), requires_grad=True)
    xy_r, z_r = Tensor(rng.uniform(0, 1, (j, 2))), Tensor(rng.uniform(0, 1, j))
    ref_l = Tensor(rng.uniform(-1, 1, (j, c)), requires_grad=True)
    ref_r = Tensor(rng.uniform(-1, 1, (j, c)))
    s_l = Tensor(rng.uniform(-1, 1, (c, 2, 2)), requires_grad=True)
    s_r = Tensor(rng.uniform(-1, 1, (c, 2, 2)))
    w = [Tensor(rng.uniform(-1, 1, (16, 3))), Tensor(rng.uniform(-1, 1, 10)),
         Tensor(rng.uniform(-1, 1, 3))]

    def run():
        uvd = concat([stack([xy_l, xy_r]), reshape(stack([z_l, z_r]), (2, j, 1))], axis=-1)
        theta, beta, t_rel = reg(stack([ref_l, ref_r]), uvd, stack([s_l, s_r]))
        return ((theta[0] * w[0]).sum() + (beta[0] * w[1]).sum() + (theta[1] * w[0]).sum()
                + (t_rel * w[2]).sum())

    leaves = [xy_l, z_l, ref_l, s_l] + [t for _, t in reg.params()]
    assert fd_check(run, leaves, max_coords_per_leaf=8, rng=rng) <= 1e-6


# -- full network -----------------------------------------------------------------

def test_forward_output_shapes(toy_net):
    rng = np.random.default_rng(109)
    with no_grad():
        out = toy_net.forward(Tensor(rng.uniform(0, 1, (3, 64, 64))))
    assert out.theta.shape == (2, 16, 3)
    assert out.beta.shape == (2, 10)
    assert out.joints_uvd.shape == (2, 21, 3)
    assert out.joints_mm.shape == (2, 21, 3)
    assert out.vertices.shape == (2, 252, 3)
    assert out.t_rel.shape == (3,)


def test_forward_deterministic_bitwise(toy_net):
    rng = np.random.default_rng(113)
    img = Tensor(rng.uniform(0, 1, (3, 64, 64)))
    with no_grad():
        a = toy_net.forward(img)
        b = toy_net.forward(img)
    for name in ("theta", "beta", "joints_uvd", "vertices", "t_rel"):
        assert np.array_equal(getattr(a, name).data, getattr(b, name).data)


def test_forward_exposes_all_intermediates(toy_net):
    rng = np.random.default_rng(127)
    with no_grad():
        out = toy_net.forward(Tensor(rng.uniform(0, 1, (3, 64, 64))))
    aux = out.aux
    assert [f.name for f in dataclasses.fields(aux)] == [
        "f", "starred", "heatmap", "joint_feats", "refined_feats"]
    assert aux.f.shape == (32, 8, 8)
    assert aux.starred.shape == (2, 16, 8, 8)
    assert aux.heatmap.spatial_logits.shape == (2, 21, 8, 8)
    assert aux.heatmap.depth_logits.shape == (2, 21, 16)
    assert aux.joint_feats.shape == aux.refined_feats.shape == (2, 21, 16)


def test_backbone_map_halves_are_read_only_views(toy_net):
    # as are the hands' starred maps and heatmaps, on one image and on a batch
    for shape in ((3, 64, 64), (2, 3, 64, 64)):
        with no_grad():
            aux = toy_net.forward(Tensor(np.random.default_rng(139).uniform(0, 1, shape))).aux
        batch = (slice(None),) * (len(shape) - 3)
        for k, hand in enumerate("lr"):
            heat = getattr(aux, f"heatmap_{hand}")
            halves = batch + (slice(16 * k, 16 * k + 16),)
            views = [(getattr(aux, f"f_{hand}"), aux.f.data[halves]),
                     (getattr(aux, f"starred_{hand}"), aux.starred.data[batch + (k,)]),
                     (heat.spatial_logits, aux.heatmap.spatial_logits.data[batch + (k,)]),
                     (heat.depth_logits, aux.heatmap.depth_logits.data[batch + (k,)])]
            for view, pair in views:
                assert view.shape == pair.shape
                assert view.data.tobytes() == pair.tobytes()
            for name in ("f", "starred", "heatmap"):
                with pytest.raises(AttributeError):
                    setattr(aux, f"{name}_{hand}", getattr(aux, name))


def test_full_network_gradients_small_config():
    cfg = small_config()
    net = pl.BimanualHandNet(cfg)
    rng = np.random.default_rng(131)
    # wake the zero-initialized residual projections
    for _, t in net.params():
        if np.all(t.data == 0.0):
            t.data[:] = rng.normal(0, 0.1, t.data.shape)
    img = Tensor(rng.uniform(0, 1, (3, 16, 16)))
    # probe scales keep the scalar output O(1); a larger output magnifies the
    # finite-difference quantization floor ulp(f)/(2*eps) past the tolerance
    # (output, hand index); t_rel has no hand axis, so `...` takes all of it
    scales = {("theta", 0): 1.0, ("beta", 1): 0.1, ("joints_uvd", 0): 0.05,
              ("vertices", 0): 0.005, ("t_rel", ...): 0.1}
    probes = {}

    def run():
        out = net.forward(img)
        if not probes:
            for (name, hand), s in scales.items():
                probes[name, hand] = Tensor(rng.uniform(-1, 1, getattr(out, name)[hand].shape) * s)
        total = None
        for (name, hand), p in probes.items():
            term = (getattr(out, name)[hand] * p).mean()
            total = term if total is None else total + term
        return total

    leaves = [t for _, t in net.params()]
    err = fd_check(run, leaves, max_coords_per_leaf=2, rng=rng)
    assert err <= 1e-5


# -- config and checkpoint ---------------------------------------------------------

def test_config_json_roundtrip(tmp_path):
    cfg = small_config(seed=9)
    path = tmp_path / "cfg.json"
    pl.save_config_json(cfg, path)
    assert pl.load_config_json(path) == cfg


@pytest.mark.parametrize("key", ["frobnicate", "share_hand_heads", "scan_order"])
def test_config_rejects_unknown_keys(key, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"image_h": 64, key: 1}))
    with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
        pl.load_config_json(path)


def test_config_validation():
    with pytest.raises(ValueError):
        pl.PipelineConfig(image_h=60)  # not divisible by 8
    with pytest.raises(ValueError):
        pl.PipelineConfig(backbone_channels=30)


@pytest.mark.parametrize("field, value, expected", [
    ("image_h", "64", "int"),
    ("backbone_channels", 64.0, "int"),
    ("joints", True, "int"),
    ("seed", None, "int"),
    ("hand_model", None, "str"),
    ("seed", -1, "non-negative"),
])
def test_config_rejects_wrong_field_types(field, value, expected):
    with pytest.raises(ValueError, match=f"config field {field} must be {expected}, "):
        pl.PipelineConfig(**{field: value})


def test_config_json_with_string_int_is_named_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"image_h": "64"}')
    with pytest.raises(ValueError, match="image_h must be int, got str '64'"):
        pl.load_config_json(path)


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    cfg = small_config()
    net = pl.BimanualHandNet(cfg)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    net.save_checkpoint(p1)
    net2 = pl.BimanualHandNet(cfg)
    for _, t in net2.params():
        t.data[:] = 0.0
    net2.load_checkpoint(p1)
    net2.save_checkpoint(p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (n1, t1), (n2, t2) in zip(net.params(), net2.params()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)


# sha256 of the "name:shape" lines of the toy registry; a change here means
# checkpoint record order or naming changed and CHECKPOINT_VERSION must move
REGISTRY_SHA256 = "a245d1f2ae20ad174f5946cf4d4affda4c38a20c327c00ff57f41825f48f282b"


def test_registry_names_and_shapes_are_pinned():
    net = pl.BimanualHandNet(pl.PipelineConfig.toy())
    lines = "\n".join(f"{name}:{tuple(t.shape)}" for name, t in net.params())
    assert hashlib.sha256(lines.encode()).hexdigest() == REGISTRY_SHA256
    assert len(net.params()) == 128
    # one module per hand-pair role: no record is named for one hand
    assert [name for name, _ in net.params() if re.search(r"_[lr](\.|$)", name)] == []


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        pl.load_checkpoint(path)


def tiny_checkpoint_bytes(tmp_path):
    # the acceptance suite's criterion-7 model
    cfg = pl.PipelineConfig(image_h=16, image_w=16, backbone_channels=8, joints=5,
                            depth_bins=4, vertices=244, vm_ife_depth=1, jvm_depth=1,
                            state_dim=3, expand=2, conv_width=2, mlp_ratio=1, seed=8)
    path = tmp_path / "tiny.ckpt"
    pl.BimanualHandNet(cfg).save_checkpoint(path)
    return path.read_bytes()


def test_checkpoint_every_truncation_prefix_is_a_named_error(tmp_path):
    blob = tiny_checkpoint_bytes(tmp_path)
    path = tmp_path / "cut.ckpt"
    checksum_at = len(blob) - 4
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        try:
            pl.load_checkpoint(path)
        except ValueError as exc:
            msg = str(exc)
            assert "truncated" in msg and " at byte " in msg, (n, msg)
            if n >= checksum_at:  # every record parsed; the trailer is cut
                assert f"truncated in the checksum at byte {checksum_at}: " in msg, (n, msg)
            elif n >= 16:
                assert "in record " in msg, (n, msg)
        else:
            raise AssertionError(f"prefix of {n} bytes loaded")


def test_checkpoint_huge_declared_record_is_rejected(tmp_path):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(pl.CHECKPOINT_MAGIC
                     + struct.pack("<IQ", pl.CHECKPOINT_VERSION, 1)
                     + struct.pack("<I", 1) + b"w"
                     + struct.pack("<IQQ", 2, 2 ** 40, 2 ** 40)
                     + b"\x00" * 64)
    with pytest.raises(ValueError, match=r"in record 0 at byte 41: shape \(1099511627776, "
                                         r"1099511627776\) needs 9671406556917033397649408 bytes"):
        pl.load_checkpoint(path)


def test_checkpoint_bad_name_and_trailing_bytes_name_their_place(tmp_path):
    blob = tiny_checkpoint_bytes(tmp_path)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match=f"1 trailing bytes after its 80 records, "
                                         f"at byte {len(blob)}"):
        pl.load_checkpoint(path)
    path.write_bytes(blob[:20] + b"\xff" + blob[21:])
    with pytest.raises(ValueError, match="record 0 at byte 20: name is not UTF-8"):
        pl.load_checkpoint(path)


def test_checkpoint_flipped_payload_bit_is_a_checksum_error(tmp_path):
    blob = tiny_checkpoint_bytes(tmp_path)
    path = tmp_path / "flipped.ckpt"
    last_value = len(blob) - 12  # the last record's last float64, before the trailer
    for bit in range(64):
        bad = bytearray(blob)
        bad[last_value + bit // 8] ^= 1 << bit % 8
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match="checkpoint checksum mismatch: its bytes give "
                                             "CRC-32 0x[0-9a-f]{8}, its last 4 bytes hold "):
            pl.load_checkpoint(path)


def test_checkpoint_mismatch_names_record(tmp_path):
    cfg = small_config()
    net = pl.BimanualHandNet(cfg)
    other = pl.BimanualHandNet(small_config(joints=5))
    path = tmp_path / "a.ckpt"
    other.save_checkpoint(path)
    with pytest.raises(ValueError, match="record"):
        net.load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_non_finite_record_names_record(tmp_path, value):
    net = pl.BimanualHandNet(small_config())
    name, param = net.params()[4]
    param.data.flat[1] = value
    path = tmp_path / "a.ckpt"
    net.save_checkpoint(path)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint record {name!r} holds a "
                                                   "non-finite value")):
        pl.BimanualHandNet(small_config()).load_checkpoint(path)
