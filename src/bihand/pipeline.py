"""Full two-hand reconstruction network.

Stages: a small strided CNN produces the hand pair's feature map; a stack
of selective-scan sequence blocks transforms it and a cross-hand non-local
module extracts interaction features from its two halves; per-joint
spatial plus depth-bin heatmaps are decoded with soft-argmax into
continuous 2.5D joint coordinates; features sampled at those coordinates
are refined by a second sequence-block stack; and dense heads regress
axis-angle pose, shape coefficients, and the relative translation between
the hands, which drive the differentiable hand rig.

Checkpoints are a flat binary container of named float64 parameter records
(magic "VMBH") closed by a CRC-32 of its bytes; saving, loading and
re-saving is byte-identical. Configs are plain JSON mirroring
``PipelineConfig``; unknown keys are rejected.
"""

import dataclasses
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import handmodel
from .nn import (Conv2dLayer, LayerNormLayer, Linear, Module, NonLocalBlock,
                 grid_sample, softmax)
from .ssm import VmBlockLayer, featuremap_to_sequence, sequence_to_featuremap
from .tensor import Tensor, concat, reshape, stack

CHECKPOINT_MAGIC = b"VMBH"
CHECKPOINT_VERSION = 2

THETA_SHAPE = (handmodel.NUM_JOINTS, 3)
BETA_DIM = handmodel.NUM_SHAPES


@dataclass
class PipelineConfig:
    image_h: int = 64
    image_w: int = 64
    backbone_channels: int = 64   # C; each hand's half of the pair map has C // 4 channels
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
    spatial_logits: Tensor  # [n, J, h, w]
    depth_logits: Tensor    # [n, J, D]

    def __getitem__(self, key):
        return Heatmap2p5D(self.spatial_logits[key], self.depth_logits[key])


@dataclass
class PipelineIntermediates:
    """What the stages pass to each other, the hand pair as a leading axis of 2,
    left first; a batch's fields carry a leading B axis before it."""
    f: Tensor = None                # [2c, h, w] backbone map, the left hand's c channels first
    starred: Tensor = None          # [2, c, h, w] interaction output, fed to the extractor
    heatmap: Heatmap2p5D = None     # [2, J, h, w] spatial and [2, J, D] depth logits
    joint_feats: Tensor = None      # [2, J, c] sampled at the decoded joints
    refined_feats: Tensor = None    # [2, J, c] after the joint refiner


@dataclass
class FullOutput:
    """Both hands' outputs, left first along the pair axis; a batch's outputs
    carry a leading B axis before it."""
    theta: Tensor         # [2, 16, 3] axis-angle
    beta: Tensor          # [2, 10]
    joints_uvd: Tensor    # [2, J, 3] heatmap-frame (x, y, depth-bin)
    joints_mm: Tensor     # [2, 21, 3] regressed from the posed mesh
    vertices: Tensor      # [2, V, 3] mm
    t_rel: Tensor         # [3] mm
    aux: PipelineIntermediates = field(default_factory=PipelineIntermediates)


def _hand_views(cls, names, key):
    """Give ``cls`` read-only properties ``<name>_l`` and ``<name>_r`` for each of
    ``names``, built when read: hand k's is ``getattr(obj, name)[key(obj, k)]``."""
    for name in names:
        for k, hand in enumerate("lr"):
            setattr(cls, f"{name}_{hand}", property(
                lambda obj, name=name, k=k: getattr(obj, name)[key(obj, k)]))


# Read-only per-hand views (``theta_l``, ``aux.starred_r``, ...) for readers outside
# the package that take one hand at a time; on a batch, that hand of every sample.
_hand_views(FullOutput, ("theta", "beta", "joints_uvd", "joints_mm", "vertices"),
            lambda out, k: (slice(None),) * (out.t_rel.ndim - 1) + (k,))
_hand_views(PipelineIntermediates, ("starred", "heatmap"),
            lambda aux, k: (slice(None),) * (aux.f.ndim - 3) + (k,))
_hand_views(PipelineIntermediates, ("f",), lambda aux, k: np.s_[  # its channel halves
    ..., k * aux.f.shape[-3] // 2:(k + 1) * aux.f.shape[-3] // 2, :, :])


# -- network stages -------------------------------------------------------------

class _ConvNormRelu(Module):
    def __init__(self, cin, cout, kernel, stride, padding, rng):
        # the norm subtracts each channel's spatial mean, and a conv bias with it
        self.conv = Conv2dLayer(cin, cout, kernel, stride, padding, rng, bias=False)
        self.norm = LayerNormLayer(cout, axes=(1, 2))

    def __call__(self, x):
        return self.norm(self.conv(x)).relu()


class Backbone(Module):
    """Strided trunk to [C, h, w], then a 1x1 head to the pair map [2c, h, w], c = C//4."""

    def __init__(self, config, rng):
        self.config = config
        chans = [config.backbone_channels >> (config.backbone_stages - 1 - i)
                 for i in range(config.backbone_stages)]
        self.stages = []
        cin = 3
        for cout in chans:
            self.stages.append(_ConvNormRelu(cin, cout, 3, 2, 1, rng))
            cin = cout
        self.head = _ConvNormRelu(cin, 2 * config.hand_channels, 1, 1, 0, rng)

    def __call__(self, img):
        cfg = self.config
        if img.shape != (3, cfg.image_h, cfg.image_w):
            raise ValueError(f"expected image [3,{cfg.image_h},{cfg.image_w}], got {img.shape}")
        x = img
        for stage in self.stages:
            x = stage(x)
        return self.head(x)


class InteractionFeatureBlock(Module):
    """Joint sequence transform over both hands plus cross-hand attention.

    The hand pair's map passes through a 1x1 conv and a stack of sequence
    blocks, is chunked into per-hand halves along channels, cross-attended
    (queries from one hand, keys/values from the other), and fused back to
    per-hand width by a 1x1 conv. Both hands use one attention and one fuse.
    """

    def __init__(self, config, rng):
        c = config.hand_channels
        self.initial_conv = Conv2dLayer(2 * c, 2 * c, 1, rng=rng)
        self.blocks = [VmBlockLayer(2 * c, state_dim=config.state_dim,
                                    expand=config.expand, conv_width=config.conv_width,
                                    mlp_ratio=config.mlp_ratio, rng=rng)
                       for _ in range(config.vm_ife_depth)]
        self.attn = NonLocalBlock(c, rng)
        self.fuse = Conv2dLayer(2 * c, c, 1, rng=rng)

    def __call__(self, f):
        """The two hands' starred maps [c,h,w] of the pair map ``f`` [2c,h,w]."""
        x = self.initial_conv(f)
        c, h, w = x.shape[0] // 2, *x.shape[1:]
        seq = featuremap_to_sequence(x)
        for block in self.blocks:
            seq = block(seq)
        x = sequence_to_featuremap(seq, h, w)
        enh_l, enh_r = x[:c], x[c:]
        inter_l = self.attn(enh_l, enh_r)
        inter_r = self.attn(enh_r, enh_l)
        starred_l = self.fuse(concat([enh_l, inter_l], axis=0))
        starred_r = self.fuse(concat([enh_r, inter_r], axis=0))
        return starred_l, starred_r


def soft_argmax(logits, positions):
    """Expectation of the array ``positions`` [n] under softmax over the
    trailing axis of ``logits`` [..., n], giving [...]; for ``positions``
    [k, n], the k expectations under that one softmax, giving [..., k].

    Outputs are guaranteed to lie in the coordinate range of each row of
    positions: the convex combination can overshoot by an ulp in floating
    point, so any overshoot is folded back as a constant offset that leaves
    the gradient path untouched.
    """
    p = softmax(logits, axis=-1)
    if positions.ndim == 2:
        p = reshape(p, p.shape[:-1] + (1, p.shape[-1]))
    e = (p * Tensor(positions)).sum(axis=-1)
    correction = np.clip(e.data, positions.min(axis=-1), positions.max(axis=-1)) - e.data
    if np.any(correction != 0.0):
        e = e + Tensor(correction)
    return e


class JointFeatureExtractor(Module):
    """Per-joint spatial and depth-bin heatmaps of both hands, decoded together
    to 2.5D coordinates; features are bilinearly sampled at the decoded positions."""

    def __init__(self, config, rng):
        c, j, d = config.hand_channels, config.joints, config.depth_bins
        self.joints = j
        # softmax over positions cancels a per-joint constant
        self.heat_conv = Conv2dLayer(c, j, 1, rng=rng, bias=False)
        self.depth_conv = Conv2dLayer(c, j * d, 1, rng=rng)
        grid_y, grid_x = np.mgrid[0:config.map_h, 0:config.map_w]
        self.pixel_grid = np.stack([grid_x.ravel(), grid_y.ravel()]).astype(np.float64)
        self.bins = np.arange(d, dtype=np.float64)

    def __call__(self, maps):
        """The list of n per-hand maps [c,h,w], decoded and sampled as one batch:
        their heatmaps [n,J,h,w] and [n,J,D], joint coordinates ``uvd`` [n,J,3]
        (continuous heatmap-frame x, y and depth bin), features [n,J,c] sampled
        at each joint's (x, y), and the maps' stack [n,c,h,w] they are sampled from."""
        n, j = len(maps), self.joints
        heat = Heatmap2p5D(stack([self.heat_conv(f) for f in maps]),
                           stack([reshape(self.depth_conv(f).mean(axis=(1, 2)), (j, -1))
                                  for f in maps]))
        xy = soft_argmax(reshape(heat.spatial_logits, (n, j, -1)), self.pixel_grid)
        z = soft_argmax(heat.depth_logits, self.bins)
        uvd = concat([xy, reshape(z, z.shape + (1,))], axis=-1)
        stacked = stack(maps)
        return heat, uvd, grid_sample(stacked, xy), stacked


class JointSequenceRefiner(Module):
    """Shared sequence-block stack over each hand's joints, both hands as one batch."""

    def __init__(self, config, rng):
        self.blocks = [VmBlockLayer(config.hand_channels, state_dim=config.state_dim,
                                    expand=config.expand, conv_width=config.conv_width,
                                    mlp_ratio=config.mlp_ratio, rng=rng)
                       for _ in range(config.jvm_depth)]

    def __call__(self, x):
        """Both hands' joint features [2,J,c] (or any shape the blocks take), refined."""
        for block in self.blocks:
            x = block(x)
        return x


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
        # coordinates join the features in grid units; normalize to O(1)
        self.coord_scale = np.array([1.0 / max(config.map_w - 1, 1),
                                     1.0 / max(config.map_h - 1, 1),
                                     1.0 / (config.depth_bins - 1)])
        theta_dim = THETA_SHAPE[0] * THETA_SHAPE[1]
        self.theta_fc = Linear(j * (c + 3), theta_dim, zero_init=True)
        self.beta_fc = Linear(c, BETA_DIM, zero_init=True)
        self.trel_fc = Linear(2 * c, 3, zero_init=True)

    def __call__(self, refined, uvd, starred):
        """Both hands' pose [...,2,16,3] and shape [...,2,10], from their refined
        features ``refined`` [...,2,J,c] and joint coordinates ``uvd`` [...,2,J,3];
        and the relative translation [...,3] from their maps ``starred``
        [...,2,c,h,w]. The leading ``...`` is empty for one image and [B] for a batch."""
        lead = refined.shape[:-3]
        packed = concat([refined, uvd * Tensor(self.coord_scale)], axis=-1)
        # each hand's and each sample's input is its own one-row matrix, whose
        # product keeps the bits it had alone; a B-row matrix would round otherwise
        theta = reshape(self.theta_fc(reshape(packed, lead + (2, 1, -1))),
                        lead + (2,) + THETA_SHAPE)
        beta = reshape(self.beta_fc(refined.mean(axis=-2, keepdims=True)), lead + (2, BETA_DIM))
        pooled = reshape(starred.mean(axis=(-2, -1)), lead + (1, -1))
        t_rel = reshape(self.trel_fc(pooled), lead + (3,))
        return theta, beta, t_rel * self.TREL_SCALE_MM


class BimanualHandNet(Module):
    """End-to-end differentiable model; deterministic given config and seed."""

    def __init__(self, config):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.backbone = Backbone(config, rng)
        self.interaction = InteractionFeatureBlock(config, rng)
        self.extractor = JointFeatureExtractor(config, rng)
        self.refiner = JointSequenceRefiner(config, rng)
        self.regressor = DualHandRegressor(config, rng)
        self.rig = build_rig(config)

    def forward(self, img):
        """Both hands' outputs for one image [3,H,W], or for each image of a batch
        [B,3,H,W], with a leading B axis on every output and ``aux`` field.

        The image stages (backbone, interaction, the extractor's two
        convolutions) run once per image: their kernels ``conv2d_raw`` and
        ``selective_scan`` take one item, whose shapes perfbench's tracer
        unpacks. From the joint decode on, the batch's 2B hands (left, then
        right, per image) run as one pair-batch: one soft-argmax, one
        ``grid_sample``, one refiner and regressor pass and one ``lbs``. Each
        image gets the bits of its own forward. A batch's ``aux.f`` stacks the
        images' maps, and every other field reads its [2B, ...] pair-batch as [B, 2, ...].
        """
        cfg = self.config
        chw = (3, cfg.image_h, cfg.image_w)
        single = img.shape == chw
        if not (single or img.ndim == 4 and img.shape[0] >= 1 and img.shape[1:] == chw):
            raise ValueError(f"expected image [3,{cfg.image_h},{cfg.image_w}] or "
                             f"[B,3,{cfg.image_h},{cfg.image_w}] with B >= 1, got {img.shape}")
        fs, maps = [], []  # maps: each image's left, then right starred map
        for x in [img] if single else [img[i] for i in range(img.shape[0])]:
            fs.append(self.backbone(x))
            maps += self.interaction(fs[-1])
        heat, uvd, feats, starred = self.extractor(maps)
        refined = self.refiner(feats)
        f = fs[0] if single else stack(fs)
        if not single:  # each [2B, ...] pair-batch as [B, 2, ...]
            def pairs(t):
                return reshape(t, (len(fs), 2) + t.shape[1:])
            heat = Heatmap2p5D(pairs(heat.spatial_logits), pairs(heat.depth_logits))
            uvd, feats, refined, starred = pairs(uvd), pairs(feats), pairs(refined), pairs(starred)
        theta, beta, t_rel = self.regressor(refined, uvd, starred)
        hands = handmodel.lbs(self.rig, theta, beta)

        aux = PipelineIntermediates(f=f, starred=starred, heatmap=heat,
                                    joint_feats=feats, refined_feats=refined)
        return FullOutput(theta=theta, beta=beta, joints_uvd=uvd, joints_mm=hands.joints,
                          vertices=hands.vertices, t_rel=t_rel, aux=aux)

    __call__ = forward

    def save_checkpoint(self, path):
        save_checkpoint(path, self.params())

    def load_checkpoint(self, path):
        records = load_checkpoint(path)
        own = self.params()
        check_records(records, [(name, t.shape) for name, t in own], "checkpoint")
        for (_, data), (_, t) in zip(records, own):
            t.data = data


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
    a ValueError names the first record whose name or shape differs or that
    holds NaN or inf; only then are the counts compared. ``what`` names the file kind."""
    for (name, data), (want, shape) in zip(records, expected):
        if name != want:
            raise ValueError(f"{what} mismatch at record {name!r}: expected {want!r}")
        if data.shape != shape:
            raise ValueError(f"{what} mismatch at record {name!r}: "
                             f"shape {data.shape}, expected {shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{what} record {name!r} holds a non-finite value")
    if len(records) != len(expected):
        raise ValueError(f"{what} holds {len(records)} records, expected {len(expected)}")

def save_checkpoint(path, named_tensors):
    """Write length-prefixed (name, shape, float64 LE data) records, then the
    u32 ``zlib.crc32`` of every byte before it. Each array's own buffer is
    written and checksummed, with no copy of a float64 C-contiguous one."""
    crc = 0
    with open(path, "wb") as fh:
        def write(raw):
            nonlocal crc
            fh.write(raw)
            crc = zlib.crc32(raw, crc)
        write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(named_tensors)))
        for name, t in named_tensors:
            arr = np.asarray(t.data if isinstance(t, Tensor) else t, dtype="<f8", order="C")
            raw = name.encode("utf-8")
            write(struct.pack("<I", len(raw)) + raw
                  + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            write(arr)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path):
    """Read records back as (name, float64 array) pairs, validating framing.

    The file is read record by record: each record's data goes straight into
    one fresh array, the array returned, and the CRC-32 is accumulated as
    the bytes arrive. Every read is checked against the bytes left before
    anything is allocated: a short or inconsistent file raises ValueError
    naming the record index and byte offset. Once the framing has parsed,
    the trailing CRC-32 must match the bytes before it, so a flipped bit is
    a named error.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset, crc = 0, 0
        where = "the header"

        def take(n, what, shape=None):
            # the next n bytes, once the file is known to hold them: as bytes, or
            # given the record's ``shape``, read straight into a fresh float64 array
            nonlocal offset, crc
            left = size - offset
            if n <= left:
                if shape is None:
                    buf = fh.read(n)
                    left = len(buf)
                else:
                    buf = np.empty(shape, dtype="<f8")
                    left = fh.readinto(buf)  # short only if the file shrank while read
            if n > left:
                raise ValueError(f"checkpoint truncated in {where} at byte {offset}: "
                                 f"{what if shape is None else f'{what} {shape}'} "
                                 f"needs {n} bytes, {left} remain")
            crc = zlib.crc32(buf, crc)
            offset += n
            return buf

        def unpack(fmt, what):
            return struct.unpack(fmt, take(struct.calcsize(fmt), what))

        magic = take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version, = unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        count, = unpack("<Q", "record count")
        records = []
        for index in range(count):
            where = f"record {index}"
            name_len, = unpack("<I", "name length")
            raw = take(name_len, "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"checkpoint record {index} at byte {offset - name_len}: "
                                 f"name is not UTF-8") from None
            ndim, = unpack("<I", "rank")
            shape = unpack(f"<{ndim}Q", f"a shape of rank {ndim}")
            records.append((name, take(8 * math.prod(shape), "shape", shape)))
        where = "the checksum"
        body_crc = crc
        stored, = unpack("<I", "the CRC-32")
    if offset != size:
        raise ValueError(f"checkpoint has {size - offset} trailing bytes after "
                         f"its {count} records, at byte {offset}")
    if body_crc != stored:
        raise ValueError(f"checkpoint checksum mismatch: its bytes give CRC-32 {body_crc:#010x}, "
                         f"its last 4 bytes hold {stored:#010x}; the file is corrupt")
    return records
