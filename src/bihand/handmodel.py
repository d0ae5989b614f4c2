"""Differentiable parametric hand: shape blendshapes, a 16-joint kinematic
tree, and linear blend skinning, all in millimeters.

The rig keeps the conventional parameter interface (axis-angle pose
theta[16,3], shape coefficients beta[10]), so an externally supplied
asset with the same dimensions can be loaded from JSON in place of the
procedurally generated one. The generated rig is a plausible five-finger
hand: wrist at the origin, three articulated joints per finger, ring-of-
vertex tubes along each bone, smooth distance-based skinning weights, and
a 21-row joint regressor (16 tree joints plus 5 fingertips) for evaluation.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, concat, matmul, reshape, stack

SMALL_ANGLE = 1e-8
NUM_JOINTS = 16
NUM_SHAPES = 10
NUM_EVAL_JOINTS = 21


def rodrigues_batch(aa):
    """Axis-angle rows aa[..., 3] to rotation matrices [..., 3, 3].

    R = I + (sin t / t) K + ((1 - cos t) / t^2) K^2 with K = skew(aa) and
    t = |aa|. Angles below SMALL_ANGLE switch to the second-order Taylor
    expansion of both coefficients, which keeps values and gradients finite
    at t = 0. The (1 - cos) term is evaluated as 2 sin^2(t/2) to avoid
    cancellation at small angles.
    """
    lead = aa.shape[:-1]
    ax, ay, az = aa[..., 0], aa[..., 1], aa[..., 2]
    zero = Tensor(np.zeros(lead))
    k = reshape(stack([zero, -az, ay,
                       az, zero, -ax,
                       -ay, ax, zero], axis=-1), lead + (3, 3))
    k2 = matmul(k, k)

    t_sq = (aa * aa).sum(axis=-1)
    small = Tensor((t_sq.data < SMALL_ANGLE ** 2).astype(np.float64))
    # add 1 inside the sqrt on the small branch so its gradient stays finite;
    # that branch's exact coefficients are discarded by the mask anyway
    t_sq_safe = t_sq + small
    t = t_sq_safe.sqrt()
    big = 1.0 - small
    coeff_a = big * (t.sin() / t) + small * (1.0 - t_sq * (1.0 / 6.0))
    half_sin = (t * 0.5).sin()
    coeff_b = big * (2.0 * half_sin * half_sin / t_sq_safe) \
        + small * (0.5 - t_sq * (1.0 / 24.0))

    return Tensor(np.eye(3)) + reshape(coeff_a, lead + (1, 1)) * k \
        + reshape(coeff_b, lead + (1, 1)) * k2


@dataclass
class HandOutput:
    vertices: Tensor  # [V,3] mm
    joints: Tensor    # [21,3] mm, regressor @ vertices


class HandRig:
    """Immutable rig: template mesh, joint tree, weights, blendshapes, regressor.

    Joints are grouped by tree depth once. ``levels`` holds, per depth from
    1, the joints there and the row of each one's parent in the level above;
    ``joint_rows[k]`` is joint k's row in the root and levels stacked.
    """

    def __init__(self, template, faces, parents, rest_joints, weights,
                 blendshapes, regressor):
        self.template = _float_field(template, "template")
        if not isinstance(faces, (list, tuple)):
            raise ValueError("rig field 'faces' must be a list of vertex index triples")
        self.faces = [tuple(_indices(f, "faces")) for f in faces]
        self.parents = _indices(parents, "parents")
        self.rest_joints = _float_field(rest_joints, "rest_joints")
        self.weights = _float_field(weights, "weights")
        self.blendshapes = _float_field(blendshapes, "blendshapes")
        self.regressor = _float_field(regressor, "regressor")
        validate_rig(self)
        parents = np.array(self.parents)
        self.offsets = self.rest_joints.copy()
        self.offsets[1:] -= self.rest_joints[parents[1:]]
        depth = np.zeros(NUM_JOINTS, dtype=int)
        for k in range(1, NUM_JOINTS):
            depth[k] = depth[parents[k]] + 1
        self.levels = []
        above = np.array([0])
        for d in range(1, depth.max() + 1):
            joints = np.flatnonzero(depth == d)
            self.levels.append((joints, np.searchsorted(above, parents[joints])))
            above = joints
        self.joint_rows = np.argsort(np.concatenate([[0]] + [j for j, _ in self.levels]))

    @property
    def num_vertices(self):
        return self.template.shape[0]


def _float_field(value, field):
    try:
        return np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"rig field {field!r} is not a numeric array") from None


def _indices(values, field):
    if not isinstance(values, (list, tuple)) or not all(
            isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in values):
        raise ValueError(f"rig field {field!r} must be a list of integer indices")
    return [int(i) for i in values]


def validate_rig(rig):
    """Check every structural invariant; raise naming the one that fails."""
    for field in ("template", "rest_joints", "weights", "blendshapes", "regressor"):
        if not np.all(np.isfinite(getattr(rig, field))):
            raise ValueError(f"rig invariant violated: {field} holds a non-finite value")
    if rig.template.ndim != 2 or rig.template.shape[1] != 3:
        raise ValueError(f"rig invariant violated: template must be [V,3], got {rig.template.shape}")
    v = rig.template.shape[0]
    if len(rig.parents) != NUM_JOINTS:
        raise ValueError(f"rig invariant violated: expected {NUM_JOINTS} joints, got {len(rig.parents)}")
    if rig.parents[0] != -1:
        raise ValueError("rig invariant violated: root joint must have parent -1")
    for k in range(1, NUM_JOINTS):
        if not 0 <= rig.parents[k] < k:
            raise ValueError(f"rig invariant violated: joint tree must be topologically "
                             f"ordered (parent index < child), joint {k} has parent {rig.parents[k]}")
    if rig.rest_joints.shape != (NUM_JOINTS, 3):
        raise ValueError(f"rig invariant violated: rest joints must be [{NUM_JOINTS},3], "
                         f"got {rig.rest_joints.shape}")
    if rig.weights.shape != (v, NUM_JOINTS):
        raise ValueError(f"rig invariant violated: skinning weights must be [V,{NUM_JOINTS}], "
                         f"got {rig.weights.shape}")
    if np.any(rig.weights < 0):
        raise ValueError("rig invariant violated: skinning weights must be nonnegative")
    if np.max(np.abs(rig.weights.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rig invariant violated: skinning weight rows must sum to 1")
    if rig.blendshapes.shape != (v, 3, NUM_SHAPES):
        raise ValueError(f"rig invariant violated: blendshapes must be [V,3,{NUM_SHAPES}], "
                         f"got {rig.blendshapes.shape}")
    if rig.regressor.shape != (NUM_EVAL_JOINTS, v):
        raise ValueError(f"rig invariant violated: joint regressor must be "
                         f"[{NUM_EVAL_JOINTS},V], got {rig.regressor.shape}")
    if np.max(np.abs(rig.regressor.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rig invariant violated: joint regressor rows must sum to 1")
    for f in rig.faces:
        if len(f) != 3 or not all(0 <= i < v for i in f):
            raise ValueError(f"rig invariant violated: face {f} has out-of-range vertex index")


def forward_kinematics(rig, theta):
    """World rotations [...,16,3,3] and positions [...,16,3] for theta[...,16,3], in joint order.

    The root rotates in place at its rest position; each child composes its
    parent's world transform with a fixed offset and its own local rotation.
    One tree level is composed per step, gathering the parent rows from the
    level above.
    """
    lead = theta.shape[:-2]
    local = rodrigues_batch(theta)
    rot = local[..., :1, :, :]
    pos = Tensor(np.broadcast_to(rig.rest_joints[:1], lead + (1, 3)))
    rots, poss = [rot], [pos]
    for joints, up in rig.levels:
        parent_rot = rot[..., up, :, :]
        offsets = Tensor(rig.offsets[joints][:, :, None])
        pos = pos[..., up, :] + reshape(matmul(parent_rot, offsets), lead + (len(joints), 3))
        rot = matmul(parent_rot, local[..., joints, :, :])
        rots.append(rot)
        poss.append(pos)
    return (concat(rots, axis=-3)[..., rig.joint_rows, :, :],
            concat(poss, axis=-2)[..., rig.joint_rows, :])


def lbs(rig, theta, beta):
    """Pose and shape the rig, then regress the 21 evaluation joints; theta[16,3]
    and beta[10], or theta[n,16,3] and beta[n,10] for n hands in one pass.

    Each joint's transform relative to the rest pose is [R | pos - R rest],
    computed without a matrix inverse so theta = 0 yields exact identities.
    The skinning weights blend these [3,4] transforms per vertex, and each
    blended transform is applied once to its homogeneous shaped vertex.
    """
    lead, v = theta.shape[:-2], rig.num_vertices
    offset = matmul(Tensor(rig.blendshapes.reshape(v * 3, NUM_SHAPES)),
                    reshape(beta, lead + (NUM_SHAPES, 1)))  # the linear shape offsets
    base = Tensor(rig.template) + reshape(offset, lead + (v, 3))
    rot, pos = forward_kinematics(rig, theta)
    rest = reshape(matmul(rot, Tensor(rig.rest_joints[:, :, None])), lead + (NUM_JOINTS, 3))
    rel = concat([rot, reshape(pos - rest, lead + (NUM_JOINTS, 3, 1))], axis=-1)
    blend = reshape(matmul(Tensor(rig.weights), reshape(rel, lead + (NUM_JOINTS, 12))),
                    lead + (v, 3, 4))
    hom = reshape(concat([base, Tensor(np.ones(lead + (v, 1)))], axis=-1), lead + (v, 4, 1))
    vertices = reshape(matmul(blend, hom), lead + (v, 3))
    joints = matmul(Tensor(rig.regressor), vertices)
    return HandOutput(vertices=vertices, joints=joints)


# -- procedural rig ------------------------------------------------------------

_FINGER_ANGLES = np.deg2rad([-55.0, -22.0, 0.0, 20.0, 42.0])  # thumb..pinky
_BASE_REACH = np.array([28.0, 38.0, 40.0, 38.0, 34.0])        # wrist to knuckle, mm
_SEGMENTS = np.array([[16.0, 12.0, 9.0],
                      [18.0, 12.0, 8.0],
                      [20.0, 14.0, 9.0],
                      [18.0, 12.0, 8.0],
                      [14.0, 10.0, 7.0]])                      # per-finger bone lengths


def make_default_rig(seed=0, vertices=252):
    """Deterministic five-finger rig with the standard parameter interface.

    Fingers fan out in the xy plane from the wrist at the origin; every bone
    carries rings of tube vertices and the remaining budget fills the palm.
    """
    rng = np.random.default_rng(seed)
    parents = [-1] + [0 if j == 0 else 3 * f + j for f in range(5) for j in range(3)]

    rest = np.zeros((NUM_JOINTS, 3))
    tips = np.zeros((5, 3))
    for f in range(5):
        direction = np.array([np.sin(_FINGER_ANGLES[f]), np.cos(_FINGER_ANGLES[f]), 0.0])
        pos = direction * _BASE_REACH[f]
        for j in range(3):
            rest[1 + 3 * f + j] = pos
            pos = pos + direction * _SEGMENTS[f, j]
        tips[f] = pos

    # tube vertices: 3 rings of 4 around each of the 20 segments
    seg_ends = []
    for f in range(5):
        chain = [rest[0], rest[1 + 3 * f], rest[2 + 3 * f], rest[3 + 3 * f], tips[f]]
        seg_ends += [(chain[i], chain[i + 1]) for i in range(4)]
    tube_count = len(seg_ends) * 12
    if vertices < tube_count + 4:
        raise ValueError(f"vertex budget {vertices} too small; need at least {tube_count + 4}")

    verts = []
    faces = []
    for a, b in seg_ends:
        axis = b - a
        axis_n = axis / np.linalg.norm(axis)
        ortho1 = np.cross(axis_n, [0.0, 0.0, 1.0])
        if np.linalg.norm(ortho1) < 1e-9:
            ortho1 = np.array([1.0, 0.0, 0.0])
        ortho1 /= np.linalg.norm(ortho1)
        ortho2 = np.cross(axis_n, ortho1)
        base_idx = len(verts)
        for ri, frac in enumerate((0.15, 0.5, 0.85)):
            center = a + axis * frac
            radius = 3.2 - 0.6 * ri
            for q in range(4):
                angle = np.pi / 2 * q + 0.2 * ri
                verts.append(center + radius * (np.cos(angle) * ortho1
                                                + np.sin(angle) * ortho2))
        for ri in range(2):
            for q in range(4):
                i0 = base_idx + 4 * ri + q
                i1 = base_idx + 4 * ri + (q + 1) % 4
                j0, j1 = i0 + 4, i1 + 4
                faces.append((i0, i1, j1))
                faces.append((i0, j1, j0))

    palm_count = vertices - len(verts)
    palm_anchor = len(verts)
    for i in range(palm_count):
        ang = 2 * np.pi * i / palm_count
        r = 12.0 + 6.0 * ((i * 7) % 3)
        verts.append(np.array([r * np.sin(ang) * 0.9, 8.0 + r * np.cos(ang) * 0.45,
                               1.5 * np.sin(3 * ang)]))
    for i in range(palm_count - 1):
        faces.append((palm_anchor + i, palm_anchor + i + 1,
                      palm_anchor + (i + 2) % palm_count))
    template = np.asarray(verts)

    # smooth skinning: softmin of point-to-bone distances over the 16 joints
    handles = []
    for k in range(NUM_JOINTS):
        if k == 0:
            handles.append((rest[0], rest[0]))
        else:
            handles.append((rest[parents[k]], rest[k]))
    dist = np.zeros((vertices, NUM_JOINTS))
    for k, (a, b) in enumerate(handles):
        dist[:, k] = _point_segment_distance(template, a, b)
    logits = -dist / 6.0
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)

    # shape directions: smooth low-frequency fields, a couple of mm per unit beta
    phases = rng.uniform(0, 2 * np.pi, (NUM_SHAPES, 3))
    freqs = rng.uniform(0.02, 0.08, (NUM_SHAPES, 3))
    blendshapes = np.zeros((vertices, 3, NUM_SHAPES))
    for s in range(NUM_SHAPES):
        for axis in range(3):
            field = np.sin(template @ freqs[s] + phases[s, axis])
            blendshapes[:, axis, s] = 1.8 * field * (0.4 + 0.6 * weights[:, 1:].sum(axis=1))

    eval_points = np.vstack([rest, tips])
    regressor = np.zeros((NUM_EVAL_JOINTS, vertices))
    for j in range(NUM_EVAL_JOINTS):
        nearest = np.argsort(np.linalg.norm(template - eval_points[j], axis=1))[:6]
        regressor[j, nearest] = 1.0 / 6.0

    return HandRig(template, faces, parents, rest, weights, blendshapes, regressor)


def _point_segment_distance(points, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-12:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


# -- JSON round trip ------------------------------------------------------------

def save_rig_json(rig, path):
    doc = {
        "template": rig.template.tolist(),
        "faces": [list(f) for f in rig.faces],
        "parents": rig.parents,
        "rest_joints": rig.rest_joints.tolist(),
        "weights": rig.weights.tolist(),
        "blendshapes": rig.blendshapes.tolist(),
        "regressor": rig.regressor.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_rig_json(path):
    """Load and revalidate a rig; any violated invariant is named in the error.

    Pose-corrective blendshapes are not applied by ``lbs``, so a file that
    carries a non-null ``pose_blendshapes`` is rejected rather than skinned
    without them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"rig file must hold a JSON object, got {type(doc).__name__}")
    required = ("template", "faces", "parents", "rest_joints", "weights",
                "blendshapes", "regressor")
    for key in required:
        if key not in doc:
            raise ValueError(f"rig file missing field {key!r}")
    if doc.get("pose_blendshapes") is not None:
        raise ValueError("rig field 'pose_blendshapes' is not supported: "
                         "lbs applies no pose-corrective blendshapes")
    return HandRig(*(doc[key] for key in required))
