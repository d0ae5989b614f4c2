"""Training harness: weighted L1 objective over nine output terms, Adam,
synthetic two-hand data and its file container, position-error metrics,
and work accounting.

Synthetic samples pose the rig with Gaussian pose/shape draws, place the
right hand relative to the left by a translation drawn from a 60 mm box,
and render the input as Gaussian blobs splatted at the orthographically
projected joints: one channel per hand plus their sum. Ground truth holds
the hand pair as one array per quantity, left hand first along the leading
axis, as the network's outputs do. It is stored both in millimeters
(meshes, joints, translation) and in the heatmap frame (x, y, depth-bin)
the network's coordinate head predicts in.
"""

import csv
import gc
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import handmodel
from .pipeline import (BETA_DIM, THETA_SHAPE, BimanualHandNet, check_records,
                       load_checkpoint, save_checkpoint)
from .ssm import scan_flops
from .tensor import Tensor, concat, no_grad, observe_ops, reshape

METRICS_HEADER = ("split", "mpjpe_single", "mpjpe_two", "mpjpe_all",
                  "mpvpe_single", "mpvpe_two", "mpvpe_all")
EVAL_BATCH = 8  # samples per ``evaluate`` forward, the CLI's default batch size


@dataclass
class LossWeights:
    """One weight per loss term; ``LOSS_TERMS`` is its field names, in order."""
    theta_l: float = 1.0
    theta_r: float = 1.0
    beta_l: float = 1.0
    beta_r: float = 1.0
    joint_l: float = 1.0
    joint_r: float = 1.0
    vert_l: float = 1.0
    vert_r: float = 1.0
    trel: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            w = getattr(self, f.name)
            if not (np.isfinite(w) and w >= 0):
                raise ValueError(f"loss weight {f.name} must be a finite number >= 0, got {w}")


LOSS_TERMS = tuple(f.name for f in fields(LossWeights))
TRACE_HEADER = ("step", "epoch", "lr", "total") + LOSS_TERMS


@dataclass
class SceneCamera:
    """Fixed orthographic scene projection shared by renderer and targets."""
    px_per_mm: float = 0.25
    depth_range_mm: float = 80.0
    left_root_mm: tuple = (-20.0, 0.0, 0.0)

    def project_px(self, points_mm, image_h, image_w):
        """World mm [..., 3] -> image pixel (x, y) [..., 2]; y follows the row axis."""
        cx, cy = (image_w - 1) / 2.0, (image_h - 1) / 2.0
        return np.stack([cx + self.px_per_mm * points_mm[..., 0],
                         cy + self.px_per_mm * points_mm[..., 1]], axis=-1)

    def place(self, points_mm, t_rel):
        """Root-relative pair points [..., 2, N, 3] in the scene: the left hand at
        ``left_root_mm``, the right ``t_rel`` [..., 3] from it."""
        left = np.broadcast_to(self.left_root_mm, np.shape(t_rel))
        return points_mm + np.stack([left, left + t_rel], axis=-2)[..., None, :]

    def depth_to_bin(self, z_mm, depth_bins):
        frac = (z_mm + self.depth_range_mm) / (2.0 * self.depth_range_mm)
        return np.clip(frac * (depth_bins - 1), 0.0, depth_bins - 1)


@dataclass
class TrainingSample:
    """One input image and its ground truth, the hand pair left first."""
    image: np.ndarray           # [3, H, W]
    gt_theta: np.ndarray        # [2, 16, 3]
    gt_beta: np.ndarray         # [2, 10]
    gt_joints: np.ndarray       # [2, 21, 3] mm, root-relative
    gt_joints_uvd: np.ndarray   # [2, J, 3] heatmap-frame x, y, depth-bin
    gt_vertices: np.ndarray     # [2, V, 3] mm, root-relative
    gt_t_rel: np.ndarray        # [3] mm

    @staticmethod
    def shapes(config):
        """Each field's array shape under ``config``, in field order."""
        return {"image": (3, config.image_h, config.image_w),
                "gt_theta": (2,) + THETA_SHAPE, "gt_beta": (2, BETA_DIM),
                "gt_joints": (2, handmodel.NUM_EVAL_JOINTS, 3),
                "gt_joints_uvd": (2, config.joints, 3),
                "gt_vertices": (2, config.vertices, 3), "gt_t_rel": (3,)}

    @staticmethod
    def stack(samples):
        """One batch of ``samples``: each field their arrays stacked, [B, ...]."""
        return TrainingSample(**{f.name: np.stack([getattr(s, f.name) for s in samples])
                                 for f in fields(TrainingSample)})


def save_dataset(path, samples):
    """Write each sample's seven fields in order, as records named
    ``s00000/image``, ``s00000/gt_theta``, ...; the records count the samples."""
    save_checkpoint(path, [(f"s{i:05d}/{f.name}", getattr(s, f.name))
                           for i, s in enumerate(samples) for f in fields(s)])


def load_dataset(path, config):
    """Samples of a dataset file, its records checked in order against the
    shapes ``config`` gives; a malformed or non-finite record is a named error.
    The sample count is the record count rounded up to whole samples, so a
    short last sample is named by the count check."""
    records = load_checkpoint(path)
    shapes = TrainingSample.shapes(config)
    n = -(-len(records) // len(shapes))
    check_records(records, [(f"s{i:05d}/{fname}", shape) for i in range(n)
                            for fname, shape in shapes.items()], "dataset")
    values = [data for _, data in records]
    return [TrainingSample(**dict(zip(shapes, values[i:i + len(shapes)])))
            for i in range(0, len(values), len(shapes))]


def mae(pred, target, term, axis=None):
    """Mean absolute error of ``pred`` against ``target`` over ``axis``; a
    target of another shape is a ValueError naming its term."""
    if pred.shape != np.shape(target):
        raise ValueError(f"loss term {term!r}: prediction shape {pred.shape} "
                         f"does not match target {np.shape(target)}")
    return abs(pred - Tensor(target)).mean(axis)


def loss_terms(pred, gt):
    """The nine mean-absolute-error terms along a trailing axis, in
    ``LOSS_TERMS`` order: [9] for one sample, [B, 9] for a batch's outputs and
    its ground truth (``TrainingSample.stack``). Each pair quantity's two hand
    terms come from one error over the pair, and one ``concat`` joins them."""
    lead = pred.t_rel.ndim - 1  # the batch axis, if any, precedes the pair axis
    errs = []
    for term, name in (("theta", "theta"), ("beta", "beta"), ("joint", "joints_uvd"),
                       ("vert", "vertices")):
        p = getattr(pred, name)
        errs.append(mae(p, getattr(gt, f"gt_{name}"), term, axis=tuple(range(lead + 1, p.ndim))))
    trel = mae(pred.t_rel, gt.gt_t_rel, "trel", axis=-1)
    return concat(errs + [reshape(trel, trel.shape + (1,))], axis=-1)


def loss(pred, gt, weights=None):
    """Weighted sum of the nine L1 terms: a scalar, or [B] for a batch."""
    return (loss_terms(pred, gt) * Tensor(astuple(weights or LossWeights()))).sum(axis=-1)


def batch_loss(net, samples):
    """One graph over ``samples``: the mean of their weighted losses, and their
    [B, 9] loss terms. The images and ground truth are stacked into one batch
    and run through one forward; the samples' losses are added in sample
    order and scaled by 1/B, so the mean has the bits of a loop of
    per-sample ``loss`` calls."""
    gt = TrainingSample.stack(samples)
    terms = loss_terms(net.forward(Tensor(gt.image)), gt)
    per_sample = (terms * Tensor(astuple(LossWeights()))).sum(axis=-1)
    total = per_sample[0]
    for i in range(1, len(samples)):
        total = total + per_sample[i]
    return total * (1.0 / len(samples)), terms


class Adam:
    """Bias-corrected Adam over a fixed list of (name, Tensor) parameters."""

    def __init__(self, named_params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(t.data) for _, t in self.named_params]
        self.v = [np.zeros_like(t.data) for _, t in self.named_params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, (name, p) in enumerate(self.named_params):
            if p.grad is None:
                raise RuntimeError(f"adam step requires a gradient for {name!r}")
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None


def lr_schedule(epoch, base_lr=1e-4):
    """Step decay: ``base_lr`` multiplied by 0.1 at epoch 10 and again at 15."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    lr = base_lr
    for milestone in (10, 15):
        if epoch >= milestone:
            lr *= 0.1
    return lr


# -- synthetic data ---------------------------------------------------------------

def render_gaussian_blobs(points_px, image_h, image_w):
    """Sum of unit-height isotropic Gaussians, sigma 2 px, splatted at (x, y) pixels."""
    ys, xs = np.mgrid[0:image_h, 0:image_w].astype(np.float64)
    img = np.zeros((image_h, image_w))
    for x, y in points_px:
        img += np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / 8.0)  # 2 sigma^2
    return img


def synth_dataset(config, rig, n, seed, noise=0.0):
    """``n`` deterministic samples: posed rig pair, blob rendering, full GT."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not (np.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be a finite number >= 0, got {noise}")
    if config.joints != handmodel.NUM_EVAL_JOINTS:
        raise ValueError(f"coordinate supervision follows the rig's "
                         f"{handmodel.NUM_EVAL_JOINTS} evaluation joints; "
                         f"config.joints is {config.joints}")
    camera = SceneCamera()
    rng = np.random.default_rng(seed)
    divisor = 2 ** config.backbone_stages
    samples = []
    for _ in range(n):
        theta = rng.normal(0.0, 0.2, (2, 16, 3))
        beta = rng.normal(0.0, 1.0, (2, 10))
        t_rel = rng.uniform(-30.0, 30.0, 3)

        with no_grad():
            hands = handmodel.lbs(rig, Tensor(theta), Tensor(beta))
        joints, vertices = hands.joints.data, hands.vertices.data
        world = camera.place(joints, t_rel)
        px = camera.project_px(world, config.image_h, config.image_w)
        uvd = np.concatenate(
            [px / divisor, camera.depth_to_bin(world[..., 2], config.depth_bins)[..., None]],
            axis=-1)

        blobs = [render_gaussian_blobs(pts, config.image_h, config.image_w) for pts in px]
        img = np.stack(blobs + [blobs[0] + blobs[1]])
        if noise > 0.0:
            img = img + rng.normal(0.0, noise, img.shape)

        sample = TrainingSample(image=img, gt_theta=theta, gt_beta=beta, gt_joints=joints,
                                gt_joints_uvd=uvd, gt_vertices=vertices, gt_t_rel=t_rel)
        check_records([(f.name, getattr(sample, f.name)) for f in fields(sample)],
                      list(TrainingSample.shapes(config).items()), "synthesized sample")
        samples.append(sample)
    return samples


def hands_overlap(sample, config):
    """Split heuristic: do the two hands' joint bounding boxes intersect? For a
    batch of samples (``TrainingSample.stack``), one answer per sample."""
    camera = SceneCamera()
    world = camera.place(sample.gt_joints, sample.gt_t_rel)
    pts = camera.project_px(world, config.image_h, config.image_w)  # [..., 2, 21, 2]
    # each hand's box starts no later than the other's ends, in x and in y
    return np.all(pts.min(axis=-2) <= pts.max(axis=-2)[..., ::-1, :], axis=(-2, -1))


# -- metrics ----------------------------------------------------------------------

def mpjpe(pred_joints, gt_joints):
    """Mean per-joint Euclidean distance in mm after aligning joint 0, the root:
    one number for one hand's joints [N, 3], one per hand for [..., N, 3]."""
    pred = np.asarray(pred_joints, dtype=np.float64)
    gt = np.asarray(gt_joints, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"joint sets disagree: {pred.shape} vs {gt.shape}")
    pred = pred - pred[..., :1, :]
    gt = gt - gt[..., :1, :]
    return np.linalg.norm(pred - gt, axis=-1).mean(axis=-1)


def mpvpe(pred_vertices, gt_vertices, regressor):
    """Mean per-vertex distance in mm, aligned at the regressed root joint (row 0):
    one number for one hand's vertices [V, 3], one per hand for [..., V, 3]."""
    pred = np.asarray(pred_vertices, dtype=np.float64)
    gt = np.asarray(gt_vertices, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"vertex sets disagree: {pred.shape} vs {gt.shape}")
    pred = pred - (regressor[0] @ pred)[..., None, :]
    gt = gt - (regressor[0] @ gt)[..., None, :]
    return np.linalg.norm(pred - gt, axis=-1).mean(axis=-1)


def evaluate(net, dataset):
    """Per-split MPJPE/MPVPE means over samples, each sample's the mean of its
    two hands'; ``mpjpe_all``/``mpvpe_all`` average every sample in dataset
    order. The samples run ``EVAL_BATCH`` at a time, one no_grad batch forward
    each. A non-finite output is a ValueError naming its first sample."""
    if not dataset:
        raise ValueError("cannot evaluate an empty dataset")
    pj, pv, two = [], [], []
    for start in range(0, len(dataset), EVAL_BATCH):
        gt = TrainingSample.stack(dataset[start:start + EVAL_BATCH])
        with no_grad():
            out = net.forward(Tensor(gt.image))
        joints, vertices = out.joints_mm.data, out.vertices.data
        finite = np.stack([np.isfinite(a).all(axis=(-3, -2, -1)) for a in (joints, vertices)],
                          axis=-1)  # [b, 2]: each sample's joints, then its vertices
        if not finite.all():
            i, k = np.argwhere(~finite)[0]
            raise ValueError(f"sample {start + i} (s{start + i:05d}): the network's "
                             f"{('joints_mm', 'vertices')[k]} holds a non-finite value")
        pj.append(mpjpe(joints, gt.gt_joints).mean(axis=-1))
        pv.append(mpvpe(vertices, gt.gt_vertices, net.rig.regressor).mean(axis=-1))
        two.append(hands_overlap(gt, net.config))
    pj, pv, two = np.concatenate(pj), np.concatenate(pv), np.concatenate(two)
    splits = {"single": ~two, "two": two, "all": np.ones_like(two)}
    return {f"{metric}_{split}": float(values[keep].mean()) if keep.any() else float("nan")
            for metric, values in (("mpjpe", pj), ("mpvpe", pv)) for split, keep in splits.items()}


# -- training loop ------------------------------------------------------------------

@dataclass
class TrainResult:
    trace: list = field(default_factory=list)  # rows matching TRACE_HEADER
    final_loss: float = float("nan")
    initial_loss: float = float("nan")


def train_loop(net, dataset, epochs, batch_size, lr, schedule="none"):
    """Forward/loss/backward/Adam over sequential batches; deterministic.

    ``schedule`` is "none" (constant lr) or "step" (decay 0.1x at epochs 10
    and 15 from ``lr``). Aborts with the step index if the loss goes
    non-finite, or if a NaN stops the scan first.

    Each step builds one graph (``batch_loss``): one forward of the batch's
    stacked [B,3,H,W] images and one ``loss_terms`` call, whose loss and
    trace row have the bits of a loop of per-sample forwards. Inside that
    forward the image stages still run per image, because ``conv2d_raw``
    and ``selective_scan`` take one item (see ``BimanualHandNet.forward``).

    Graphs hold no reference cycles, so the cyclic collector frees nothing
    here; its generation-0 threshold is raised while the loop runs, and the
    caller's thresholds are restored on exit.
    """
    if epochs < 1 or batch_size < 1:
        raise ValueError(f"train_loop needs epochs >= 1 and batch_size >= 1, "
                         f"got epochs={epochs}, batch_size={batch_size}")
    if not dataset:
        raise ValueError("train_loop needs at least one sample")
    if not (np.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"train_loop needs a finite lr >= 0, got {lr}")
    if schedule not in ("none", "step"):
        raise ValueError(f"train_loop schedule must be 'none' or 'step', got {schedule!r}")
    opt = Adam(net.params(), lr=lr)
    result = TrainResult()
    step = 0
    thresholds = gc.get_threshold()
    gc.set_threshold(100_000, *thresholds[1:])
    try:
        for epoch in range(epochs):
            cur_lr = lr if schedule == "none" else lr_schedule(epoch, base_lr=lr)
            opt.lr = cur_lr
            for start in range(0, len(dataset), batch_size):
                batch = dataset[start:start + batch_size]
                try:
                    total, terms = batch_loss(net, batch)
                except RuntimeError as exc:  # the scan rejects NaN before the loss sees it
                    raise RuntimeError(f"non-finite loss at step {step}: {exc}") from exc
                term_values = np.zeros(len(LOSS_TERMS))
                for row in terms.data:  # in sample order, as the trace always summed
                    term_values += row / len(batch)
                value = float(total.data)
                if not np.isfinite(value):
                    raise RuntimeError(f"non-finite loss at step {step}")
                if step == 0:
                    result.initial_loss = value
                opt.zero_grad()
                total.backward()
                del total, terms  # the graph dies here, not while the next step builds its own
                opt.step()
                result.trace.append([step, epoch, cur_lr, value] + term_values.tolist())
                result.final_loss = value
                step += 1
    finally:
        gc.set_threshold(*thresholds)
    return result


def write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in trace:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def write_metrics_csv(path, split_name, metrics):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        writer.writerow([split_name] + [repr(metrics[k]) for k in METRICS_HEADER[1:]])


# -- work accounting -----------------------------------------------------------------

# Floating-point work per op tag, from the op's output array and its parents'
# arrays; movement ops do none. A tag missing here is an op nothing counts yet.
FLOP_RULES = {
    **dict.fromkeys(("add", "sub", "mul", "div", "neg", "exp", "sqrt", "sin", "abs",
                     "relu"), lambda out, args: out.size),
    **dict.fromkeys(("silu", "softplus"), lambda out, args: 4 * out.size),
    **dict.fromkeys(("reshape", "transpose", "getitem", "concat", "stack"),
                    lambda out, args: 0),
    **dict.fromkeys(("sum", "mean"), lambda out, args: args[0].size),
    "layernorm": lambda out, args: 8 * out.size,
    "softmax": lambda out, args: 5 * out.size,
    "attention": lambda out, args: (2 * len(args[0]) + 2 * len(out) + 5) * out.shape[1] ** 2,
    "grid_sample": lambda out, args: 8 * out.size,  # four taps, a multiply-add each
    "linear": lambda out, args: 2 * out.size * args[1].shape[0] + out.size,
    "conv2d": lambda out, args: (2 * args[1][0].size + len(args[2:])) * out.size,  # bias, if any
    "matmul": lambda out, args: 2 * out.size * args[0].shape[-1],
    "conv1d": lambda out, args: out.size * (2 * args[1].shape[1] + 1),
    "scan": lambda out, args: scan_flops(*args[0].shape, args[2].shape[1]),
}


def count_work(config):
    """(parameters, FLOPs) of one build of the network ``config`` describes: its
    registry's sizes, and the ``FLOP_RULES`` sum over the ops a no_grad forward
    of a zero image runs. An op tag without a rule raises KeyError, not 0."""
    net = BimanualHandNet(config)
    total = 0

    def count(tag, out, parents):
        nonlocal total
        total += FLOP_RULES[tag](out, [p.data for p in parents])
    with no_grad(), observe_ops(count):
        net.forward(Tensor(np.zeros((3, config.image_h, config.image_w))))
    return sum(t.size for _, t in net.params()), total


def count_flops(config):
    """FLOPs of one forward of the network ``config`` builds (see ``count_work``)."""
    return count_work(config)[1]


REFERENCE_FULL_SCALE = {"params_m": 36.99, "gflops": 12.97}
