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
from dataclasses import dataclass, field, fields

import numpy as np

from . import handmodel
from .pipeline import (BETA_DIM, THETA_SHAPE, BimanualHandNet, check_records,
                       load_checkpoint, save_checkpoint)
from .ssm import scan_flops
from .tensor import Tensor, no_grad, observe_ops

LOSS_TERMS = ("theta_l", "theta_r", "beta_l", "beta_r",
              "joint_l", "joint_r", "vert_l", "vert_r", "trel")

TRACE_HEADER = ("step", "epoch", "lr", "total") + LOSS_TERMS
METRICS_HEADER = ("split", "mpjpe_single", "mpjpe_two", "mpjpe_all",
                  "mpvpe_single", "mpvpe_two", "mpvpe_all")


@dataclass
class LossWeights:
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
        """Root-relative pair points [2, N, 3] in the scene: the left hand at
        ``left_root_mm``, the right ``t_rel`` from it."""
        roots = np.stack([np.asarray(self.left_root_mm), np.asarray(self.left_root_mm) + t_rel])
        return points_mm + roots[:, None]

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
    """Write ``samples`` as a ``meta/count`` record, then each sample's
    fields in order, named ``s00000/image``, ``s00000/gt_theta``, ..."""
    records = [("meta/count", float(len(samples)))]
    for i, s in enumerate(samples):
        for f in fields(s):
            records.append((f"s{i:05d}/{f.name}", getattr(s, f.name)))
    save_checkpoint(path, records)


def load_dataset(path, config):
    """Samples of a dataset file, its records checked in order against the
    shapes ``config`` gives; a malformed or non-finite record is a named error."""
    records = load_checkpoint(path)
    count = dict(records).get("meta/count")
    if count is None:
        raise ValueError("dataset file is missing its sample count record")
    if count.shape != ():
        raise ValueError(f"dataset record 'meta/count' must be a scalar, got shape {count.shape}")
    n = float(count)
    if not (n >= 0 and n.is_integer()):
        raise ValueError(f"dataset record 'meta/count' must be a non-negative integer, got {n}")
    if n > len(records):
        raise ValueError(f"dataset record 'meta/count' says {int(n)} samples, "
                         f"but the file holds {len(records)} records")
    shapes = TrainingSample.shapes(config)
    expected = [("meta/count", ())] + [(f"s{i:05d}/{fname}", shape) for i in range(int(n))
                                       for fname, shape in shapes.items()]
    check_records(records, expected, "dataset")
    values = [data for _, data in records[1:]]
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
    """The nine mean-absolute-error terms, keyed as in the trace CSV; each
    pair quantity's two hand terms come from one error over the pair. For a
    batch's outputs and its ground truth (``TrainingSample.stack``) each term
    is a [B] vector of the samples' terms; for one sample, a scalar."""
    lead = pred.t_rel.ndim - 1  # the batch axis, if any, precedes the pair axis
    terms = {}
    for term, name in (("theta", "theta"), ("beta", "beta"), ("joint", "joints_uvd"),
                       ("vert", "vertices")):
        p = getattr(pred, name)
        err = mae(p, getattr(gt, f"gt_{name}"), term, axis=tuple(range(lead + 1, p.ndim)))
        terms[f"{term}_l"], terms[f"{term}_r"] = err[..., 0], err[..., 1]
    terms["trel"] = mae(pred.t_rel, gt.gt_t_rel, "trel", axis=-1)
    return terms


def weighted_sum(terms, weights):
    """Sum of the terms scaled by ``weights``, added in LOSS_TERMS order."""
    total = None
    for name in LOSS_TERMS:
        term = terms[name] * getattr(weights, name)
        total = term if total is None else total + term
    return total


def loss(pred, gt, weights=None):
    """Weighted sum of the nine L1 terms: a scalar, or [B] for a batch."""
    return weighted_sum(loss_terms(pred, gt), weights or LossWeights())


def batch_loss(net, samples):
    """One graph over ``samples``: the mean of their weighted losses, and the
    nine [B] loss terms. The images and ground truth are stacked into one
    batch and run through one forward; the samples' weighted sums are added
    in sample order and scaled by 1/B, so the mean has the bits of a loop
    of per-sample forwards."""
    gt = TrainingSample.stack(samples)
    terms = loss_terms(net.forward(Tensor(gt.image)), gt)
    per_sample = weighted_sum(terms, LossWeights())
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
    """Split heuristic: do the two hands' joint bounding boxes intersect?"""
    camera = SceneCamera()
    world = camera.place(sample.gt_joints, sample.gt_t_rel)
    pts = camera.project_px(world, config.image_h, config.image_w)  # [2, 21, 2]
    # each hand's box starts no later than the other's ends, in x and in y
    return bool(np.all(pts.min(axis=1) <= pts.max(axis=1)[::-1]))


# -- metrics ----------------------------------------------------------------------

def mpjpe(pred_joints, gt_joints):
    """Mean per-joint Euclidean distance in mm after aligning joint 0, the root."""
    pred = np.asarray(pred_joints, dtype=np.float64)
    gt = np.asarray(gt_joints, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"joint sets disagree: {pred.shape} vs {gt.shape}")
    pred = pred - pred[0]
    gt = gt - gt[0]
    return float(np.linalg.norm(pred - gt, axis=1).mean())


def mpvpe(pred_vertices, gt_vertices, regressor):
    """Mean per-vertex distance in mm, aligned at the regressed root joint (row 0)."""
    pred = np.asarray(pred_vertices, dtype=np.float64)
    gt = np.asarray(gt_vertices, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"vertex sets disagree: {pred.shape} vs {gt.shape}")
    pred = pred - regressor[0] @ pred
    gt = gt - regressor[0] @ gt
    return float(np.linalg.norm(pred - gt, axis=1).mean())


def evaluate(net, dataset):
    """Per-split MPJPE/MPVPE means over samples (both hands averaged); a
    non-finite output is a ValueError naming its sample."""
    if not dataset:
        raise ValueError("cannot evaluate an empty dataset")
    rows = {"single": [], "two": []}
    for i, sample in enumerate(dataset):
        with no_grad():
            out = net.forward(Tensor(sample.image))
        joints, vertices = out.joints_mm.data, out.vertices.data
        for name, arr in (("joints_mm", joints), ("vertices", vertices)):
            if not np.isfinite(arr).all():
                raise ValueError(f"sample {i} (s{i:05d}): the network's {name} "
                                 f"holds a non-finite value")
        pj = 0.5 * (mpjpe(joints[0], sample.gt_joints[0]) + mpjpe(joints[1], sample.gt_joints[1]))
        pv = 0.5 * (mpvpe(vertices[0], sample.gt_vertices[0], net.rig.regressor)
                    + mpvpe(vertices[1], sample.gt_vertices[1], net.rig.regressor))
        split = "two" if hands_overlap(sample, net.config) else "single"
        rows[split].append((pj, pv))

    def agg(pairs, idx):
        return float(np.mean([p[idx] for p in pairs])) if pairs else float("nan")

    all_rows = rows["single"] + rows["two"]
    return {
        "mpjpe_single": agg(rows["single"], 0), "mpjpe_two": agg(rows["two"], 0),
        "mpjpe_all": agg(all_rows, 0),
        "mpvpe_single": agg(rows["single"], 1), "mpvpe_two": agg(rows["two"], 1),
        "mpvpe_all": agg(all_rows, 1),
    }


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
                term_values = dict.fromkeys(LOSS_TERMS, 0.0)
                for name in LOSS_TERMS:
                    for term in terms[name].data:  # in sample order, as the trace always summed
                        term_values[name] += float(term) / len(batch)
                value = float(total.data)
                if not np.isfinite(value):
                    raise RuntimeError(f"non-finite loss at step {step}")
                if step == 0:
                    result.initial_loss = value
                opt.zero_grad()
                total.backward()
                del total, terms  # the graph dies here, not while the next step builds its own
                opt.step()
                result.trace.append([step, epoch, cur_lr, value]
                                    + [term_values[n] for n in LOSS_TERMS])
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
    "grid_sample": lambda out, args: 8 * out.size,  # four taps, a multiply-add each
    "linear": lambda out, args: 2 * out.size * args[1].shape[0] + out.size,
    "conv2d": lambda out, args: 2 * out.size * args[1][0].size + out.size,
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
