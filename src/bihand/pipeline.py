"""Full two-hand reconstruction network.

Stages: a small strided CNN produces per-hand feature maps; a stack of
selective-scan sequence blocks transforms the concatenated maps and a
cross-hand non-local module extracts interaction features; per-joint
spatial plus depth-bin heatmaps are decoded with soft-argmax into
continuous 2.5D joint coordinates; features sampled at those coordinates
are refined by a second sequence-block stack; and dense heads regress
axis-angle pose, shape coefficients, and the relative translation between
the hands, which drive the differentiable hand rig.

Checkpoints are a flat binary container of named float64 parameter records
(magic "VMBH"); saving, loading and re-saving is byte-identical. Configs
are plain JSON mirroring ``PipelineConfig``; unknown keys are rejected.
"""

import dataclasses
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import handmodel
from .nn import (Conv2dLayer, LayerNormLayer, Linear, Module, NonLocalBlock,
                 grid_sample, softmax)
from .ssm import (SCAN_ORDERS, VmBlockLayer, featuremap_to_sequence,
                  sequence_to_featuremap)
from .tensor import Tensor, concat, reshape, stack

CHECKPOINT_MAGIC = b"VMBH"
CHECKPOINT_VERSION = 1

THETA_SHAPE = (handmodel.NUM_JOINTS, 3)
BETA_DIM = handmodel.NUM_SHAPES


@dataclass
class PipelineConfig:
    image_h: int = 64
    image_w: int = 64
    backbone_channels: int = 64   # C; per-hand maps carry C // 4 channels
    backbone_stages: int = 3      # stride-2 stages; spatial divisor is 2**stages
    joints: int = 21
    depth_bins: int = 16
    vertices: int = 252
    vm_ife_depth: int = 2
    jvm_depth: int = 2
    state_dim: int = 8
    expand: int = 2
    conv_width: int = 4
    mlp_ratio: int = 2
    scan_order: str = "row_major"
    share_hand_heads: bool = True
    hand_model: str = "default"   # "default" or a path to a rig JSON file
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, so compare exact types
            if type(value) is not f.type:
                raise ValueError(f"config field {f.name} must be {f.type.__name__}, "
                                 f"got {type(value).__name__} {value!r}")
        for name in ("image_h", "image_w", "backbone_channels", "backbone_stages",
                     "joints", "depth_bins", "vertices", "vm_ife_depth", "jvm_depth",
                     "state_dim", "expand", "conv_width", "mlp_ratio"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.seed < 0:
            raise ValueError(f"config field seed must be non-negative, got {self.seed}")
        if self.depth_bins < 2:
            raise ValueError("depth_bins must be at least 2")
        div = 2 ** self.backbone_stages
        if self.image_h % div or self.image_w % div:
            raise ValueError(f"image size {self.image_h}x{self.image_w} must be "
                             f"divisible by {div} for {self.backbone_stages} stages")
        if self.backbone_channels % 4:
            raise ValueError("backbone_channels must be divisible by 4")
        if self.scan_order not in SCAN_ORDERS:
            raise ValueError(f"scan_order must be one of {SCAN_ORDERS}")

    @property
    def hand_channels(self):
        return self.backbone_channels // 4

    @property
    def map_h(self):
        return self.image_h // 2 ** self.backbone_stages

    @property
    def map_w(self):
        return self.image_w // 2 ** self.backbone_stages

    @staticmethod
    def toy(**overrides):
        """Desk-scale profile: 64x64 input, divisor 8, C=64."""
        return PipelineConfig(**overrides)

    @staticmethod
    def full(**overrides):
        """Documented full-scale profile: 256x256 input, divisor 32, C=2048.

        Shape contracts hold but the training suite never exercises it.
        """
        base = dict(image_h=256, image_w=256, backbone_channels=2048,
                    backbone_stages=5, depth_bins=64)
        base.update(overrides)
        return PipelineConfig(**base)


def save_config_json(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)


def load_config_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(doc).__name__}")
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return PipelineConfig(**doc)


# -- data containers -----------------------------------------------------------

@dataclass
class Heatmap2p5D:
    spatial_logits: Tensor  # [J, h, w]
    depth_logits: Tensor    # [J, D]


@dataclass
class JointCoords:
    xy: Tensor  # [J, 2] continuous heatmap-frame pixels; also the sampling positions
    z: Tensor   # [J] continuous depth-bin coordinate

    def uvd(self):
        return concat([self.xy, reshape(self.z, (self.z.shape[0], 1))], axis=1)


@dataclass
class PipelineIntermediates:
    """Every intermediate the stages exchange, for inspection and tests."""
    f_l: Tensor = None              # [c, h, w] backbone branch maps
    f_r: Tensor = None
    enh_l: Tensor = None            # [c, h, w] after the sequence blocks
    enh_r: Tensor = None
    inter_l: Tensor = None          # [c, h, w] cross-hand attention
    inter_r: Tensor = None
    starred_l: Tensor = None        # [c, h, w] fused, fed to the extractors
    starred_r: Tensor = None
    heatmap_l: Heatmap2p5D = None
    heatmap_r: Heatmap2p5D = None
    coords_l: JointCoords = None
    coords_r: JointCoords = None
    joint_feats_l: Tensor = None    # [J, c] sampled at the decoded joints
    joint_feats_r: Tensor = None
    refined_feats_l: Tensor = None  # [J, c] after the joint refiner
    refined_feats_r: Tensor = None


@dataclass
class FullOutput:
    theta_l: Tensor       # [16, 3] axis-angle
    theta_r: Tensor
    beta_l: Tensor        # [10]
    beta_r: Tensor
    joints_uvd_l: Tensor  # [J, 3] heatmap-frame (x, y, depth-bin)
    joints_uvd_r: Tensor
    joints_mm_l: Tensor   # [21, 3] regressed from the posed mesh
    joints_mm_r: Tensor
    vertices_l: Tensor    # [V, 3] mm
    vertices_r: Tensor
    t_rel: Tensor         # [3] mm
    aux: PipelineIntermediates = field(default_factory=PipelineIntermediates)


# -- network stages -------------------------------------------------------------

class _ConvNormRelu(Module):
    def __init__(self, cin, cout, kernel, stride, padding, rng):
        self.conv = Conv2dLayer(cin, cout, kernel, stride=stride, padding=padding, rng=rng)
        self.norm = LayerNormLayer(cout, axes=(1, 2))

    def __call__(self, x):
        return self.norm(self.conv(x)).relu()


class Backbone(Module):
    """Strided trunk to [C, h, w] plus two 1x1 branch heads of C//4 channels."""

    def __init__(self, config, rng):
        self.config = config
        chans = [config.backbone_channels >> (config.backbone_stages - 1 - i)
                 for i in range(config.backbone_stages)]
        self.stages = []
        cin = 3
        for cout in chans:
            self.stages.append(_ConvNormRelu(cin, cout, 3, 2, 1, rng))
            cin = cout
        self.head_l = _ConvNormRelu(cin, config.hand_channels, 1, 1, 0, rng)
        self.head_r = _ConvNormRelu(cin, config.hand_channels, 1, 1, 0, rng)

    def __call__(self, img):
        cfg = self.config
        if img.shape != (3, cfg.image_h, cfg.image_w):
            raise ValueError(f"expected image [3,{cfg.image_h},{cfg.image_w}], got {img.shape}")
        x = img
        for stage in self.stages:
            x = stage(x)
        return self.head_l(x), self.head_r(x)


class InteractionFeatureBlock(Module):
    """Joint sequence transform over both hands plus cross-hand attention.

    Concatenated per-hand maps pass through a 1x1 conv and a stack of
    sequence blocks, are chunked back into per-hand halves along channels,
    cross-attended (queries from one hand, keys/values from the other), and
    fused back to per-hand width by a 1x1 conv.
    """

    def __init__(self, config, rng):
        c = config.hand_channels
        self.c = c
        self.order = config.scan_order
        self.initial_conv = Conv2dLayer(2 * c, 2 * c, 1, rng=rng)
        self.blocks = [VmBlockLayer(2 * c, state_dim=config.state_dim,
                                    expand=config.expand, conv_width=config.conv_width,
                                    mlp_ratio=config.mlp_ratio, rng=rng)
                       for _ in range(config.vm_ife_depth)]
        share = config.share_hand_heads
        self.attn_l = NonLocalBlock(c, rng)
        self.attn_r = self.attn_l if share else NonLocalBlock(c, rng)
        self.fuse_l = Conv2dLayer(2 * c, c, 1, rng=rng)
        self.fuse_r = self.fuse_l if share else Conv2dLayer(2 * c, c, 1, rng=rng)

    def __call__(self, f_l, f_r):
        if f_l.shape != f_r.shape:
            raise ValueError(f"hand maps disagree: {f_l.shape} vs {f_r.shape}")
        c, h, w = f_l.shape
        x = self.initial_conv(concat([f_l, f_r], axis=0))
        seq = featuremap_to_sequence(x, self.order)
        for block in self.blocks:
            seq = block(seq)
        x = sequence_to_featuremap(seq, h, w, self.order)
        enh_l, enh_r = x[:c], x[c:]
        inter_l = self.attn_l(enh_l, enh_r)
        inter_r = self.attn_r(enh_r, enh_l)
        starred_l = self.fuse_l(concat([enh_l, inter_l], axis=0))
        starred_r = self.fuse_r(concat([enh_r, inter_r], axis=0))
        return starred_l, starred_r, (enh_l, enh_r, inter_l, inter_r)


def soft_argmax(logits, positions):
    """Expectation of the array ``positions`` [n] under softmax over the
    trailing axis of ``logits`` [..., n], giving [...].

    Outputs are guaranteed to lie in the coordinate range of the positions:
    the convex combination can overshoot by an ulp in floating point, so any
    overshoot is folded back as a constant offset that leaves the gradient
    path untouched.
    """
    p = softmax(logits, axis=-1)
    e = (p * Tensor(positions)).sum(axis=-1)
    correction = np.clip(e.data, positions.min(), positions.max()) - e.data
    if np.any(correction != 0.0):
        e = e + Tensor(correction)
    return e


class JointFeatureExtractor(Module):
    """Per-joint spatial and depth-bin heatmaps, decoded to 2.5D coordinates;
    features are bilinearly sampled at the decoded positions."""

    def __init__(self, config, rng):
        c, j, d = config.hand_channels, config.joints, config.depth_bins
        self.joints = j
        self.depth_bins = d
        self.heat_conv = Conv2dLayer(c, j, 1, rng=rng)
        self.depth_conv = Conv2dLayer(c, j * d, 1, rng=rng)

    def __call__(self, f):
        c, h, w = f.shape
        j, d = self.joints, self.depth_bins
        spatial_logits = self.heat_conv(f)
        depth_logits = reshape(self.depth_conv(f).mean(axis=(1, 2)), (j, d))

        flat = reshape(spatial_logits, (j, h * w))
        grid_y, grid_x = np.mgrid[0:h, 0:w]
        x = soft_argmax(flat, grid_x.reshape(-1).astype(np.float64))
        y = soft_argmax(flat, grid_y.reshape(-1).astype(np.float64))
        z = soft_argmax(depth_logits, np.arange(d, dtype=np.float64))
        coords = JointCoords(xy=stack([x, y], axis=1), z=z)
        return Heatmap2p5D(spatial_logits, depth_logits), coords, grid_sample(f, coords.xy)


class JointSequenceRefiner(Module):
    """Shared sequence-block stack over each hand's joints as a sequence."""

    def __init__(self, config, rng):
        self.blocks = [VmBlockLayer(config.hand_channels, state_dim=config.state_dim,
                                    expand=config.expand, conv_width=config.conv_width,
                                    mlp_ratio=config.mlp_ratio, rng=rng)
                       for _ in range(config.jvm_depth)]

    def __call__(self, feats_l, feats_r):
        if feats_l.shape != feats_r.shape:
            raise ValueError(f"joint features disagree: {feats_l.shape} vs {feats_r.shape}")
        out = []
        for feats in (feats_l, feats_r):
            x = feats
            for block in self.blocks:
                x = block(x)
            out.append(x)
        return out[0], out[1]


class DualHandRegressor(Module):
    """Dense heads: pose from flattened joint features + coordinates, shape
    from joint-averaged features, relative translation from pooled maps.

    Heads are zero-initialized so the model starts exactly at the rest pose,
    and the translation head predicts in units of the relative-translation
    prior scale; Adam's per-parameter step is bounded by the learning rate,
    so an mm-valued output must not require large parameter excursions.
    """

    TREL_SCALE_MM = 30.0

    def __init__(self, config, rng):
        c, j = config.hand_channels, config.joints
        share = config.share_hand_heads
        # coordinates join the features in grid units; normalize to O(1)
        self.coord_scale = np.array([1.0 / max(config.map_w - 1, 1),
                                     1.0 / max(config.map_h - 1, 1),
                                     1.0 / (config.depth_bins - 1)])
        theta_dim = THETA_SHAPE[0] * THETA_SHAPE[1]
        self.theta_fc_l = Linear(j * (c + 3), theta_dim, zero_init=True)
        self.beta_fc_l = Linear(c, BETA_DIM, zero_init=True)
        self.theta_fc_r = self.theta_fc_l if share else Linear(j * (c + 3), theta_dim, zero_init=True)
        self.beta_fc_r = self.beta_fc_l if share else Linear(c, BETA_DIM, zero_init=True)
        self.trel_fc = Linear(2 * c, 3, zero_init=True)

    def _hand(self, theta_fc, beta_fc, refined, coords):
        j = refined.shape[0]
        packed = concat([refined, coords.uvd() * Tensor(self.coord_scale)], axis=1)
        theta = reshape(theta_fc(reshape(packed, (j * packed.shape[1],))), THETA_SHAPE)
        beta = beta_fc(refined.mean(axis=0))
        return theta, beta

    def __call__(self, refined_l, coords_l, refined_r, coords_r, starred_l, starred_r):
        theta_l, beta_l = self._hand(self.theta_fc_l, self.beta_fc_l, refined_l, coords_l)
        theta_r, beta_r = self._hand(self.theta_fc_r, self.beta_fc_r, refined_r, coords_r)
        pooled = concat([starred_l.mean(axis=(1, 2)), starred_r.mean(axis=(1, 2))], axis=0)
        t_rel = self.trel_fc(pooled) * self.TREL_SCALE_MM
        return theta_l, beta_l, theta_r, beta_r, t_rel


class BimanualHandNet(Module):
    """End-to-end differentiable model; deterministic given config and seed."""

    def __init__(self, config):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.backbone = Backbone(config, rng)
        self.interaction = InteractionFeatureBlock(config, rng)
        self.extractor_l = JointFeatureExtractor(config, rng)
        self.extractor_r = (self.extractor_l if config.share_hand_heads
                            else JointFeatureExtractor(config, rng))
        self.refiner = JointSequenceRefiner(config, rng)
        self.regressor = DualHandRegressor(config, rng)
        self.rig = build_rig(config)

    def forward(self, img):
        f_l, f_r = self.backbone(img)
        starred_l, starred_r, (enh_l, enh_r, inter_l, inter_r) = self.interaction(f_l, f_r)
        heat_l, coords_l, feats_l = self.extractor_l(starred_l)
        heat_r, coords_r, feats_r = self.extractor_r(starred_r)
        ref_l, ref_r = self.refiner(feats_l, feats_r)
        theta_l, beta_l, theta_r, beta_r, t_rel = self.regressor(
            ref_l, coords_l, ref_r, coords_r, starred_l, starred_r)
        hand_l = handmodel.lbs(self.rig, theta_l, beta_l)
        hand_r = handmodel.lbs(self.rig, theta_r, beta_r)

        aux = PipelineIntermediates(
            f_l=f_l, f_r=f_r, enh_l=enh_l, enh_r=enh_r, inter_l=inter_l, inter_r=inter_r,
            starred_l=starred_l, starred_r=starred_r, heatmap_l=heat_l, heatmap_r=heat_r,
            coords_l=coords_l, coords_r=coords_r, joint_feats_l=feats_l, joint_feats_r=feats_r,
            refined_feats_l=ref_l, refined_feats_r=ref_r)
        return FullOutput(
            theta_l=theta_l, theta_r=theta_r, beta_l=beta_l, beta_r=beta_r,
            joints_uvd_l=coords_l.uvd(), joints_uvd_r=coords_r.uvd(),
            joints_mm_l=hand_l.joints, joints_mm_r=hand_r.joints,
            vertices_l=hand_l.vertices, vertices_r=hand_r.vertices,
            t_rel=t_rel, aux=aux)

    __call__ = forward

    def save_checkpoint(self, path):
        save_checkpoint(path, self.params())

    def load_checkpoint(self, path):
        records = load_checkpoint(path)
        own = self.params()
        check_records(records, [(name, t.shape) for name, t in own], "checkpoint")
        for (_, data), (_, t) in zip(records, own):
            t.data = np.ascontiguousarray(data)


def build_rig(config):
    """The hand rig ``config.hand_model`` names, with ``config.vertices`` vertices."""
    if config.hand_model == "default":
        return handmodel.make_default_rig(config.seed, config.vertices)
    rig = handmodel.load_rig_json(config.hand_model)
    if rig.num_vertices != config.vertices:
        raise ValueError(f"rig has {rig.num_vertices} vertices, "
                         f"config expects {config.vertices}")
    return rig


# -- checkpoint container --------------------------------------------------------

def check_records(records, expected, what):
    """Check (name, array) ``records`` in order against (name, shape) pairs:
    a ValueError names the first record whose name or shape differs, and only
    then are the counts compared. ``what`` names the file kind."""
    for (name, data), (want, shape) in zip(records, expected):
        if name != want:
            raise ValueError(f"{what} mismatch at record {name!r}: expected {want!r}")
        if data.shape != shape:
            raise ValueError(f"{what} mismatch at record {name!r}: "
                             f"shape {data.shape}, expected {shape}")
    if len(records) != len(expected):
        raise ValueError(f"{what} holds {len(records)} records, expected {len(expected)}")

def save_checkpoint(path, named_tensors):
    """Write length-prefixed (name, shape, float64 LE data) records."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(named_tensors)))
        for name, t in named_tensors:
            arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read records back as (name, float64 array) pairs, validating framing.

    Every read is bounds-checked: a short or inconsistent file raises
    ValueError naming the record index and byte offset, and a record's
    declared size is checked against the bytes left before it is allocated.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0
    where = "the header"

    def take(n, what):
        # advance past n bytes and return where they start
        nonlocal offset
        left = len(blob) - offset
        if n > left:
            raise ValueError(f"checkpoint truncated in {where} at byte {offset}: "
                             f"{what} needs {n} bytes, {left} remain")
        offset += n
        return offset - n

    def unpack(fmt, what):
        return struct.unpack_from(fmt, blob, take(struct.calcsize(fmt), what))[0]

    magic = blob[take(4, "magic"):offset]
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version = unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    count = unpack("<Q", "record count")
    records = []
    for index in range(count):
        where = f"record {index}"
        name_len = unpack("<I", "name length")
        raw = blob[take(name_len, "name"):offset]
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"checkpoint record {index} at byte {offset - name_len}: "
                             f"name is not UTF-8") from None
        ndim = unpack("<I", "rank")
        shape = struct.unpack_from(f"<{ndim}Q", blob, take(8 * ndim, f"a shape of rank {ndim}"))
        n = math.prod(shape)
        start = take(8 * n, f"shape {shape}")
        data = np.frombuffer(blob, dtype="<f8", count=n, offset=start).reshape(shape)
        records.append((name, data.astype(np.float64)))
    if offset != len(blob):
        raise ValueError(f"checkpoint has {len(blob) - offset} trailing bytes after "
                         f"its {count} records, at byte {offset}")
    return records
