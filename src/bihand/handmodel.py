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
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, bmm, matmul, reshape, stack, transpose

SMALL_ANGLE = 1e-8
NUM_JOINTS = 16
NUM_SHAPES = 10
NUM_EVAL_JOINTS = 21


def rodrigues_batch(aa):
    """Axis-angle rows aa[n,3] to rotation matrices [n,3,3].

    R = I + (sin t / t) K + ((1 - cos t) / t^2) K^2 with K = skew(aa) and
    t = |aa|. Angles below SMALL_ANGLE switch to the second-order Taylor
    expansion of both coefficients, which keeps values and gradients finite
    at t = 0. The (1 - cos) term is evaluated as 2 sin^2(t/2) to avoid
    cancellation at small angles.
    """
    n = aa.shape[0]
    ax = aa[:, 0]
    ay = aa[:, 1]
    az = aa[:, 2]
    zero = Tensor(np.zeros(n))
    k = reshape(stack([zero, -az, ay,
                       az, zero, -ax,
                       -ay, ax, zero], axis=1), (n, 3, 3))
    k2 = bmm(k, k)

    t_sq = (aa * aa).sum(axis=1)
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

    eye = Tensor(np.tile(np.eye(3), (n, 1, 1)))
    return eye + reshape(coeff_a, (n, 1, 1)) * k + reshape(coeff_b, (n, 1, 1)) * k2


def rodrigues(aa):
    """Single axis-angle vector [3] to a rotation matrix [3,3]."""
    return reshape(rodrigues_batch(reshape(aa, (1, 3))), (3, 3))


@dataclass
class HandOutput:
    vertices: Tensor  # [V,3] mm
    joints: Tensor    # [21,3] mm, regressor @ vertices


@dataclass
class FkResult:
    """World and relative-to-rest transforms per joint, as graph tensors.

    A relative transform shares its rotation with the world transform, so
    skinning applies (world_rot[k], rel_pos[k]).
    """
    world_rot: list   # 16 x Tensor[3,3]
    world_pos: list   # 16 x Tensor[3]
    rel_pos: list     # 16 x Tensor[3]

    def rel_mats(self):
        """Detached [16,4,4] relative transforms applied by skinning."""
        out = np.tile(np.eye(4), (NUM_JOINTS, 1, 1))
        for i, (r, p) in enumerate(zip(self.world_rot, self.rel_pos)):
            out[i, :3, :3] = r.data
            out[i, :3, 3] = p.data
        return out


class HandRig:
    """Immutable rig: template mesh, joint tree, weights, blendshapes, regressor."""

    def __init__(self, template, faces, parents, rest_joints, weights,
                 blendshapes, regressor):
        self.template = np.ascontiguousarray(template, dtype=np.float64)
        self.faces = [tuple(int(i) for i in f) for f in faces]
        self.parents = [int(p) for p in parents]
        self.rest_joints = np.ascontiguousarray(rest_joints, dtype=np.float64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.blendshapes = np.ascontiguousarray(blendshapes, dtype=np.float64)
        self.regressor = np.ascontiguousarray(regressor, dtype=np.float64)
        self.offsets = self.rest_joints.copy()
        for k in range(1, NUM_JOINTS):
            self.offsets[k] = self.rest_joints[k] - self.rest_joints[self.parents[k]]
        validate_rig(self)

    @property
    def num_vertices(self):
        return self.template.shape[0]


def validate_rig(rig):
    """Check every structural invariant; raise naming the one that fails."""
    v = rig.template.shape[0]
    if rig.template.ndim != 2 or rig.template.shape[1] != 3:
        raise ValueError(f"rig invariant violated: template must be [V,3], got {rig.template.shape}")
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
    """World transforms for theta[16,3] plus the relative transforms skinning uses.

    The root rotates in place at its rest position; each child composes its
    parent's world transform with a fixed offset and its own local rotation.
    Relative transforms are world relative to rest pose, computed directly as
    (R_world, t_world - R_world @ rest) so no matrix inverse is involved and
    theta = 0 yields exact identities.
    """
    local = rodrigues_batch(theta)
    world_rot, world_pos, rel_pos = [], [], []
    for k in range(NUM_JOINTS):
        rk = local[k]
        rest_k = Tensor(rig.rest_joints[k])
        if k == 0:
            rw = rk
            tw = rest_k
        else:
            p = rig.parents[k]
            rw = matmul(world_rot[p], rk)
            tw = world_pos[p] + reshape(
                matmul(world_rot[p], reshape(Tensor(rig.offsets[k]), (3, 1))), (3,))
        world_rot.append(rw)
        world_pos.append(tw)
        rel_pos.append(tw - reshape(matmul(rw, reshape(rest_k, (3, 1))), (3,)))
    return FkResult(world_rot, world_pos, rel_pos)


def shaped_template(rig, beta):
    """Template plus the linear blendshape offsets for beta[10]."""
    v = rig.num_vertices
    offset = matmul(Tensor(rig.blendshapes.reshape(v * 3, NUM_SHAPES)),
                    reshape(beta, (NUM_SHAPES, 1)))
    return Tensor(rig.template) + reshape(offset, (v, 3))


def lbs(rig, theta, beta):
    """Pose and shape the rig: skin the shaped template with the relative
    joint transforms, then regress the 21 evaluation joints."""
    base = shaped_template(rig, beta)
    fk = forward_kinematics(rig, theta)
    posed = []
    for k in range(NUM_JOINTS):
        posed.append(matmul(base, transpose(fk.world_rot[k])) + fk.rel_pos[k])
    weights = Tensor(rig.weights.T[:, :, None])  # [16, V, 1]
    vertices = (stack(posed, axis=0) * weights).sum(axis=0)
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
    required = ("template", "faces", "parents", "rest_joints", "weights",
                "blendshapes", "regressor")
    for key in required:
        if key not in doc:
            raise ValueError(f"rig file missing field {key!r}")
    if doc.get("pose_blendshapes") is not None:
        raise ValueError("rig field 'pose_blendshapes' is not supported: "
                         "lbs applies no pose-corrective blendshapes")
    return HandRig(*(doc[key] for key in required))
