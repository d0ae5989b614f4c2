"""Training harness: weighted L1 objective over nine output terms, Adam,
synthetic two-hand data, position-error metrics, and work accounting.

Synthetic samples pose the rig with Gaussian pose/shape draws, place the
right hand relative to the left by a translation drawn from a 60 mm box,
and render the input as Gaussian blobs splatted at the orthographically
projected joints: one channel per hand plus their sum. Ground truth is
stored both in millimeters (meshes, joints, translation) and in the
heatmap frame (x, y, depth-bin) the network's coordinate head predicts in.
"""

import csv
import gc
from dataclasses import dataclass, field, fields

import numpy as np

from . import handmodel
from .pipeline import BETA_DIM, THETA_SHAPE, BimanualHandNet, check_records
from .ssm import scan_flops
from .tensor import Tensor, no_grad

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
            if getattr(self, f.name) < 0:
                raise ValueError(f"loss weight {f.name} must be nonnegative")


@dataclass
class SceneCamera:
    """Fixed orthographic scene projection shared by renderer and targets."""
    px_per_mm: float = 0.25
    depth_range_mm: float = 80.0
    left_root_mm: tuple = (-20.0, 0.0, 0.0)

    def project_px(self, points_mm, image_h, image_w):
        """World mm -> image pixel (x, y); y follows the row axis."""
        cx, cy = (image_w - 1) / 2.0, (image_h - 1) / 2.0
        return np.stack([cx + self.px_per_mm * points_mm[:, 0],
                         cy + self.px_per_mm * points_mm[:, 1]], axis=1)

    def depth_to_bin(self, z_mm, depth_bins):
        frac = (z_mm + self.depth_range_mm) / (2.0 * self.depth_range_mm)
        return np.clip(frac * (depth_bins - 1), 0.0, depth_bins - 1)


@dataclass
class TrainingSample:
    image: np.ndarray           # [3, H, W]
    gt_theta_l: np.ndarray      # [16, 3]
    gt_theta_r: np.ndarray
    gt_beta_l: np.ndarray       # [10]
    gt_beta_r: np.ndarray
    gt_joints_l: np.ndarray     # [21, 3] mm, root-relative
    gt_joints_r: np.ndarray
    gt_joints_uvd_l: np.ndarray  # [21, 3] heatmap-frame x, y, depth-bin
    gt_joints_uvd_r: np.ndarray
    gt_vertices_l: np.ndarray   # [V, 3] mm, root-relative
    gt_vertices_r: np.ndarray
    gt_t_rel: np.ndarray        # [3] mm

    @staticmethod
    def shapes(config):
        """Each field's array shape under ``config``, in field order."""
        theta, beta = THETA_SHAPE, (BETA_DIM,)
        joints, uvd = (handmodel.NUM_EVAL_JOINTS, 3), (config.joints, 3)
        vertices = (config.vertices, 3)
        return {"image": (3, config.image_h, config.image_w),
                "gt_theta_l": theta, "gt_theta_r": theta, "gt_beta_l": beta, "gt_beta_r": beta,
                "gt_joints_l": joints, "gt_joints_r": joints,
                "gt_joints_uvd_l": uvd, "gt_joints_uvd_r": uvd,
                "gt_vertices_l": vertices, "gt_vertices_r": vertices, "gt_t_rel": (3,)}


def mae(pred, target, term):
    if pred.shape != tuple(target.shape):
        raise ValueError(f"loss term {term!r}: prediction shape {pred.shape} "
                         f"does not match target {tuple(target.shape)}")
    return abs(pred - Tensor(target)).mean()


def loss_terms(pred, gt):
    """The nine mean-absolute-error terms, keyed as in the trace CSV."""
    return {
        "theta_l": mae(pred.theta_l, gt.gt_theta_l, "theta_l"),
        "theta_r": mae(pred.theta_r, gt.gt_theta_r, "theta_r"),
        "beta_l": mae(pred.beta_l, gt.gt_beta_l, "beta_l"),
        "beta_r": mae(pred.beta_r, gt.gt_beta_r, "beta_r"),
        "joint_l": mae(pred.joints_uvd_l, gt.gt_joints_uvd_l, "joint_l"),
        "joint_r": mae(pred.joints_uvd_r, gt.gt_joints_uvd_r, "joint_r"),
        "vert_l": mae(pred.vertices_l, gt.gt_vertices_l, "vert_l"),
        "vert_r": mae(pred.vertices_r, gt.gt_vertices_r, "vert_r"),
        "trel": mae(pred.t_rel, gt.gt_t_rel, "trel"),
    }


def weighted_sum(terms, weights):
    """Sum of the terms scaled by ``weights``, added in LOSS_TERMS order."""
    total = None
    for name in LOSS_TERMS:
        term = terms[name] * getattr(weights, name)
        total = term if total is None else total + term
    return total


def loss(pred, gt, weights=None):
    """Weighted sum of the nine L1 terms; differentiable scalar."""
    return weighted_sum(loss_terms(pred, gt), weights or LossWeights())


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


def lr_schedule(epoch, base_lr=1e-4, milestones=(10, 15), factor=0.1):
    """Step decay: multiply by ``factor`` at each milestone epoch."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    lr = base_lr
    for m in milestones:
        if epoch >= m:
            lr *= factor
    return lr


# -- synthetic data ---------------------------------------------------------------

def render_gaussian_blobs(points_px, image_h, image_w, sigma=2.0):
    """Sum of unit-height isotropic Gaussians splatted at (x, y) pixels."""
    ys, xs = np.mgrid[0:image_h, 0:image_w].astype(np.float64)
    img = np.zeros((image_h, image_w))
    for x, y in points_px:
        img += np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / (2.0 * sigma ** 2))
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
        roots = np.stack([np.asarray(camera.left_root_mm),
                          np.asarray(camera.left_root_mm) + t_rel])

        joints, vertices, uvd, px = [], [], [], []
        with no_grad():
            for h in range(2):
                out = handmodel.lbs(rig, Tensor(theta[h]), Tensor(beta[h]))
                joints.append(out.joints.data)
                vertices.append(out.vertices.data)
                world = out.joints.data + roots[h]
                pts = camera.project_px(world, config.image_h, config.image_w)
                px.append(pts)
                uvd.append(np.concatenate(
                    [pts / divisor,
                     camera.depth_to_bin(world[:, 2], config.depth_bins)[:, None]],
                    axis=1))

        img = np.stack([
            render_gaussian_blobs(px[0], config.image_h, config.image_w),
            render_gaussian_blobs(px[1], config.image_h, config.image_w),
            np.zeros((config.image_h, config.image_w))])
        img[2] = img[0] + img[1]
        if noise > 0.0:
            img = img + rng.normal(0.0, noise, img.shape)

        sample = TrainingSample(
            image=img,
            gt_theta_l=theta[0], gt_theta_r=theta[1],
            gt_beta_l=beta[0], gt_beta_r=beta[1],
            gt_joints_l=joints[0], gt_joints_r=joints[1],
            gt_joints_uvd_l=uvd[0], gt_joints_uvd_r=uvd[1],
            gt_vertices_l=vertices[0], gt_vertices_r=vertices[1],
            gt_t_rel=t_rel)
        check_records([(f.name, getattr(sample, f.name)) for f in fields(sample)],
                      list(TrainingSample.shapes(config).items()), "synthesized sample")
        samples.append(sample)
    return samples


def hands_overlap(sample, config):
    """Split heuristic: do the two hands' joint bounding boxes intersect?"""
    camera = SceneCamera()
    roots = np.stack([np.asarray(camera.left_root_mm),
                      np.asarray(camera.left_root_mm) + sample.gt_t_rel])
    boxes = []
    for joints, root in ((sample.gt_joints_l, roots[0]), (sample.gt_joints_r, roots[1])):
        pts = camera.project_px(joints + root, config.image_h, config.image_w)
        boxes.append((pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max()))
    (ax0, ax1, ay0, ay1), (bx0, bx1, by0, by1) = boxes
    return ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1


# -- metrics ----------------------------------------------------------------------

def mpjpe(pred_joints, gt_joints, root_index=0):
    """Mean per-joint Euclidean distance in mm after root alignment."""
    pred = np.asarray(pred_joints, dtype=np.float64)
    gt = np.asarray(gt_joints, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"joint sets disagree: {pred.shape} vs {gt.shape}")
    pred = pred - pred[root_index]
    gt = gt - gt[root_index]
    return float(np.linalg.norm(pred - gt, axis=1).mean())


def mpvpe(pred_vertices, gt_vertices, regressor, root_index=0):
    """Mean per-vertex distance in mm, aligned at the regressed root joint."""
    pred = np.asarray(pred_vertices, dtype=np.float64)
    gt = np.asarray(gt_vertices, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"vertex sets disagree: {pred.shape} vs {gt.shape}")
    pred = pred - regressor[root_index] @ pred
    gt = gt - regressor[root_index] @ gt
    return float(np.linalg.norm(pred - gt, axis=1).mean())


def evaluate(net, dataset):
    """Per-split MPJPE/MPVPE means over samples (both hands averaged)."""
    if not dataset:
        raise ValueError("cannot evaluate an empty dataset")
    rows = {"single": [], "two": []}
    for sample in dataset:
        with no_grad():
            out = net.forward(Tensor(sample.image))
        pj = 0.5 * (mpjpe(out.joints_mm_l.data, sample.gt_joints_l)
                    + mpjpe(out.joints_mm_r.data, sample.gt_joints_r))
        pv = 0.5 * (mpvpe(out.vertices_l.data, sample.gt_vertices_l, net.rig.regressor)
                    + mpvpe(out.vertices_r.data, sample.gt_vertices_r, net.rig.regressor))
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
    non-finite. Per-sample losses are averaged inside one graph so gradient
    accumulation is merged in sample order.

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
    weights = LossWeights()
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
                total = None
                term_values = {name: 0.0 for name in LOSS_TERMS}
                for sample in batch:
                    terms = loss_terms(net.forward(Tensor(sample.image)), sample)
                    for name in LOSS_TERMS:
                        term_values[name] += float(terms[name].data) / len(batch)
                    sample_total = weighted_sum(terms, weights)
                    total = sample_total if total is None else total + sample_total
                total = total * (1.0 / len(batch))
                value = float(total.data)
                if not np.isfinite(value):
                    raise RuntimeError(f"non-finite loss at step {step}")
                if step == 0:
                    result.initial_loss = value
                opt.zero_grad()
                total.backward()
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

def count_params(config):
    """Parameter count of the network ``config`` builds, read from its registry."""
    return sum(t.size for _, t in BimanualHandNet(config).params())


def _conv_flops(cin, cout, k, oh, ow):
    return 2 * k * k * cin * cout * oh * ow + cout * oh * ow


def _linear_flops(cin, cout, rows=1):
    return rows * (2 * cin * cout + cout)


def _norm_flops(elements):
    return 8 * elements


def _vmblock_flops(seq, width, state_dim, expand, conv_width, mlp_ratio):
    inner = width * expand
    total = _norm_flops(seq * width)                       # ln1
    total += 2 * _linear_flops(width, inner, seq)          # in/gate proj
    total += seq * inner * (2 * conv_width + 1)            # depthwise conv
    total += 4 * seq * inner                               # silu main
    total += _linear_flops(inner, inner, seq)              # dt proj
    total += 4 * seq * inner                               # softplus
    total += 2 * _linear_flops(inner, state_dim, seq)      # b/c proj
    total += scan_flops(seq, inner, state_dim)
    total += 4 * seq * inner + seq * inner                 # gate silu + multiply
    total += _linear_flops(inner, width, seq)              # out proj
    total += _norm_flops(seq * width)                      # ln2
    hidden = int(round(width * mlp_ratio))
    total += _linear_flops(width, hidden, seq) + seq * hidden \
        + _linear_flops(hidden, width, seq)
    return total


def count_flops(config):
    """Analytic floating-point work of one full forward pass."""
    c = config.hand_channels
    h, w = config.map_h, config.map_w
    n = h * w
    total = 0
    cin, sh, sw = 3, config.image_h, config.image_w
    stages = [config.backbone_channels >> (config.backbone_stages - 1 - i)
              for i in range(config.backbone_stages)]
    for cout in stages:
        sh, sw = sh // 2, sw // 2
        total += _conv_flops(cin, cout, 3, sh, sw) + _norm_flops(cout * sh * sw) \
            + cout * sh * sw
        cin = cout
    total += 2 * (_conv_flops(cin, c, 1, h, w) + _norm_flops(c * n) + c * n)

    total += _conv_flops(2 * c, 2 * c, 1, h, w)
    total += config.vm_ife_depth * _vmblock_flops(
        n, 2 * c, config.state_dim, config.expand, config.conv_width, config.mlp_ratio)
    inner = max(1, c // 2)
    nl = (3 * _conv_flops(c, inner, 1, h, w) + 2 * 2 * inner * n * n
          + 5 * n * n + _conv_flops(inner, c, 1, h, w) + c * n)
    fuse = _conv_flops(2 * c, c, 1, h, w)
    total += 2 * (nl + fuse)  # both hands run even with shared weights

    extractor = (_conv_flops(c, config.joints, 1, h, w)
                 + _conv_flops(c, config.joints * config.depth_bins, 1, h, w)
                 + 5 * config.joints * (n + config.depth_bins)   # softmax
                 + 4 * config.joints * (n + config.depth_bins)   # expectations
                 + 8 * config.joints * c)                        # bilinear gather
    total += 2 * extractor

    total += 2 * config.jvm_depth * _vmblock_flops(
        config.joints, c, config.state_dim, config.expand, config.conv_width,
        config.mlp_ratio)

    theta_dim = handmodel.NUM_JOINTS * 3
    total += 2 * (_linear_flops(config.joints * (c + 3), theta_dim)
                  + _linear_flops(c, handmodel.NUM_SHAPES) + 2 * config.joints * c)
    total += _linear_flops(2 * c, 3) + 2 * 2 * c * n

    # hand rig per hand: 16 rodrigues, level-wise kinematics over the 15 child
    # joints, one blend of the 16 relative [3,4] transforms, one apply
    v = config.vertices
    per_hand = (16 * 60                       # rodrigues assembly
                + 15 * (2 * 27 + 2 * 9 + 3)   # child rotation and offset matmul, add
                + 16 * (2 * 9 + 3)            # relative translation pos - R rest
                + 2 * v * 10 * 3              # blendshapes
                + 2 * v * 16 * 12             # weights[V,16] @ transforms[16,12]
                + 2 * v * 12                  # blended [3,4] @ homogeneous vertex
                + 2 * 21 * v * 3)             # joint regressor
    total += 2 * per_hand
    return total


REFERENCE_FULL_SCALE = {"params_m": 36.99, "gflops": 12.97}
