import math

import numpy as np
import numpy.testing as npt
import pytest

from bihand import handmodel as hm
from bihand.tensor import Tensor
from bihand.gradcheck import fd_check


def quat_from_axis_angle(aa):
    theta = float(np.linalg.norm(aa))
    if theta < 1e-14:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = aa / theta
    return np.concatenate([[math.cos(theta / 2)], axis * math.sin(theta / 2)])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotation_oracle(aa):
    return quat_to_matrix(quat_from_axis_angle(np.asarray(aa, dtype=float)))


@pytest.fixture(scope="module")
def rig():
    return hm.make_default_rig(seed=0)


# valid trees other than the default depth-3 five-finger fan, on its arrays
OTHER_TREES = {
    "chain": [-1] + list(range(15)),
    "mixed": [-1, 0, 1, 0, 3, 4, 5, 0, 2, 8, 1, 10, 11, 12, 0, 14],
}


@pytest.fixture(scope="module", params=sorted(OTHER_TREES))
def tree_rig(request, rig):
    return hm.HandRig(rig.template, rig.faces, OTHER_TREES[request.param],
                      rig.rest_joints, rig.weights, rig.blendshapes, rig.regressor)


def test_rodrigues_zero_is_identity():
    npt.assert_array_equal(hm.rodrigues_batch(Tensor([[0.0, 0.0, 0.0]])).data[0], np.eye(3))


def test_rodrigues_quarter_turn():
    r = hm.rodrigues_batch(Tensor([[0.0, 0.0, math.pi / 2]])).data[0]
    npt.assert_allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_rodrigues_matches_quaternion_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        aa = rng.uniform(-2.5, 2.5, 3)
        got = hm.rodrigues_batch(Tensor([aa])).data[0]
        diff = np.linalg.norm(got - rotation_oracle(aa))
        assert diff <= 1e-10


def test_rodrigues_orthonormal_det_one():
    rng = np.random.default_rng(5)
    for _ in range(100):
        aa = rng.uniform(-3, 3, 3)
        r = hm.rodrigues_batch(Tensor([aa])).data[0]
        assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-10
        assert abs(np.linalg.det(r) - 1.0) <= 1e-10


def test_rodrigues_small_angle_branch_values():
    for scale in (1e-9, 1e-10, 0.0):
        aa = np.array([scale, 0.0, 0.0])
        got = hm.rodrigues_batch(Tensor([aa])).data[0]
        assert np.linalg.norm(got - rotation_oracle(aa)) <= 1e-12


def test_rodrigues_gradients_including_near_zero():
    rng = np.random.default_rng(7)
    probe = Tensor(rng.uniform(-1, 1, (3, 3)))
    for scale in (1.5, 1e-2, 1e-5, 3e-9):
        aa = Tensor(rng.uniform(-1, 1, (1, 3)) * scale, requires_grad=True)
        err = fd_check(lambda: (hm.rodrigues_batch(aa) * probe).sum(), [aa])
        assert err <= 1e-6, f"scale {scale}: {err}"


def test_fk_rest_pose_relative_transforms_are_identity(rig):
    rot, pos = hm.forward_kinematics(rig, Tensor(np.zeros((16, 3))))
    rel = np.tile(np.eye(4), (16, 1, 1))
    rel[:, :3, :3] = rot.data
    rel[:, :3, 3] = pos.data - (rot.data @ rig.rest_joints[:, :, None])[:, :, 0]
    npt.assert_array_equal(rel, np.tile(np.eye(4), (16, 1, 1)))
    npt.assert_allclose(pos.data, rig.rest_joints, atol=1e-12)


def test_fk_root_rotation_rotates_all_joints(rig):
    aa = np.array([0.3, -0.2, 0.8])
    theta = np.zeros((16, 3))
    theta[0] = aa
    _, pos = hm.forward_kinematics(rig, Tensor(theta))
    r = rotation_oracle(aa)
    want = rig.rest_joints @ r.T  # wrist sits at the origin
    assert np.max(np.abs(pos.data - want)) <= 1e-10


def world_chain_oracle(rig, theta):
    """Independent scene graph: homogeneous local matrices chained explicitly."""
    world = [None] * 16
    for k in range(16):
        local = np.eye(4)
        local[:3, :3] = rotation_oracle(theta[k])
        local[:3, 3] = rig.rest_joints[k] if k == 0 else rig.offsets[k]
        world[k] = local if k == 0 else world[rig.parents[k]] @ local
    return world


def check_fk_against_chain_oracle(rig):
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = rng.normal(0, 0.5, (16, 3))
        rot, pos = hm.forward_kinematics(rig, Tensor(theta))
        world = world_chain_oracle(rig, theta)
        want = np.array([w[:3, 3] for w in world])
        assert np.max(np.abs(pos.data - want)) <= 1e-10
        want_r = np.array([w[:3, :3] for w in world])
        assert np.max(np.abs(rot.data - want_r)) <= 1e-10


def test_fk_matches_matrix_chain_oracle(rig):
    check_fk_against_chain_oracle(rig)


def test_fk_matches_matrix_chain_oracle_on_other_trees(tree_rig):
    check_fk_against_chain_oracle(tree_rig)


def test_lbs_rest_pose_reproduces_template(rig):
    out = hm.lbs(rig, Tensor(np.zeros((16, 3))), Tensor(np.zeros(10)))
    assert np.max(np.abs(out.vertices.data - rig.template)) <= 1e-12


def test_lbs_root_rotation_is_rigid(rig):
    aa = np.array([0.4, 0.1, -0.7])
    theta = np.zeros((16, 3))
    theta[0] = aa
    out = hm.lbs(rig, Tensor(theta), Tensor(np.zeros(10)))
    want = rig.template @ rotation_oracle(aa).T
    assert np.max(np.abs(out.vertices.data - want)) <= 1e-10


def lbs_loop_oracle(rig, theta, beta):
    """Naive per-vertex double loop with quaternion-composed transforms."""
    shaped = rig.template + (rig.blendshapes.reshape(-1, 10) @ beta).reshape(-1, 3)
    world = world_chain_oracle(rig, theta)
    rel = []
    for k in range(16):
        fix = np.eye(4)
        fix[:3, 3] = -rig.rest_joints[k]
        rel.append(world[k] @ fix)
    out = np.zeros_like(shaped)
    for i in range(shaped.shape[0]):
        hom = np.append(shaped[i], 1.0)
        acc = np.zeros(3)
        for k in range(16):
            acc += rig.weights[i, k] * (rel[k] @ hom)[:3]
        out[i] = acc
    return out


def check_lbs_against_loop_oracle(rig):
    rng = np.random.default_rng(13)
    trials = 100
    for _ in range(trials):
        theta = rng.normal(0, 0.4, (16, 3))
        beta = rng.normal(0, 1.0, 10)
        got = hm.lbs(rig, Tensor(theta), Tensor(beta)).vertices.data
        want = lbs_loop_oracle(rig, theta, beta)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_lbs_matches_naive_loop(rig):
    check_lbs_against_loop_oracle(rig)


def test_lbs_matches_naive_loop_on_other_trees(tree_rig):
    check_lbs_against_loop_oracle(tree_rig)


def test_lbs_joints_are_regressed_vertices(rig):
    rng = np.random.default_rng(17)
    out = hm.lbs(rig, Tensor(rng.normal(0, 0.3, (16, 3))), Tensor(rng.normal(0, 1, 10)))
    npt.assert_allclose(out.joints.data, rig.regressor @ out.vertices.data, atol=1e-12)


def test_lbs_shape_linearity(rig):
    rng = np.random.default_rng(19)
    zero = Tensor(np.zeros((16, 3)))
    b1 = rng.normal(0, 1, 10)
    b2 = rng.normal(0, 1, 10)
    base = hm.lbs(rig, zero, Tensor(np.zeros(10))).vertices.data
    d1 = hm.lbs(rig, zero, Tensor(b1)).vertices.data - base
    d2 = hm.lbs(rig, zero, Tensor(b2)).vertices.data - base
    d12 = hm.lbs(rig, zero, Tensor(b1 + b2)).vertices.data - base
    assert np.max(np.abs(d12 - (d1 + d2))) <= 1e-12


def test_lbs_gradients_wrt_theta_and_beta(rig):
    rng = np.random.default_rng(23)
    probe = Tensor(rng.uniform(-1, 1, (rig.num_vertices, 3)))
    theta = Tensor(rng.normal(0, 0.3, (16, 3)), requires_grad=True)
    theta.data[5] *= 1e-9 / max(np.linalg.norm(theta.data[5]), 1e-12)  # one near-zero joint
    beta = Tensor(rng.normal(0, 1, 10), requires_grad=True)
    err = fd_check(lambda: (hm.lbs(rig, theta, beta).vertices * probe).sum(),
                   [theta, beta], max_coords_per_leaf=24, rng=rng)
    assert err <= 1e-6


def test_default_rig_passes_invariants(rig):
    hm.validate_rig(rig)  # raises on violation
    assert rig.num_vertices == 252


def test_default_rig_vertex_count_configurable():
    rig = hm.make_default_rig(seed=1, vertices=260)
    assert rig.num_vertices == 260


def test_default_rig_deterministic():
    a = hm.make_default_rig(seed=42)
    b = hm.make_default_rig(seed=42)
    assert np.array_equal(a.template, b.template)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.blendshapes, b.blendshapes)
    assert np.array_equal(a.regressor, b.regressor)


def test_rig_json_roundtrip(tmp_path, rig):
    path = tmp_path / "rig.json"
    hm.save_rig_json(rig, path)
    loaded = hm.load_rig_json(path)
    assert np.array_equal(loaded.template, rig.template)
    assert np.array_equal(loaded.weights, rig.weights)
    assert np.array_equal(loaded.blendshapes, rig.blendshapes)
    assert np.array_equal(loaded.regressor, rig.regressor)
    assert loaded.parents == rig.parents
    assert loaded.faces == rig.faces


def test_rig_json_rejects_bad_weights(tmp_path, rig):
    path = tmp_path / "rig.json"
    hm.save_rig_json(rig, path)
    import json
    doc = json.loads(path.read_text())
    doc["weights"][0][0] += 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="weight rows must sum to 1"):
        hm.load_rig_json(path)


def test_rig_json_rejects_pose_blendshapes(tmp_path, rig):
    path = tmp_path / "rig.json"
    hm.save_rig_json(rig, path)
    import json
    doc = json.loads(path.read_text())
    assert "pose_blendshapes" not in doc
    doc["pose_blendshapes"] = np.zeros((rig.num_vertices, 3, 135)).tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="pose_blendshapes"):
        hm.load_rig_json(path)
    doc["pose_blendshapes"] = None  # an explicit null still loads
    path.write_text(json.dumps(doc))
    assert hm.load_rig_json(path).num_vertices == rig.num_vertices


def test_rig_json_rejects_bad_tree(tmp_path, rig):
    path = tmp_path / "rig.json"
    hm.save_rig_json(rig, path)
    import json
    doc = json.loads(path.read_text())
    doc["parents"][3] = 7  # parent index above child
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="topologically"):
        hm.load_rig_json(path)


def test_rig_json_rejects_malformed_fields(tmp_path, rig):
    import copy
    import json
    path = tmp_path / "rig.json"
    hm.save_rig_json(rig, path)
    good = json.loads(path.read_text())

    def edited(field, value=None, at=None):
        doc = copy.deepcopy(good)
        if at is None:
            doc[field] = value
        else:
            row = doc[field]
            while isinstance(row[0], list):
                row = row[0]
            row[at] = value
        return doc

    cases = [(5, "JSON object"), ([good], "JSON object"),
             (edited("parents", None), "'parents'"), (edited("faces", None), "'faces'"),
             (edited("parents", 1.5, at=4), "'parents'"), (edited("faces", 1.5, at=1), "'faces'"),
             (edited("parents", True, at=4), "'parents'")]
    for field in ("template", "rest_joints", "weights", "blendshapes", "regressor"):
        cases.append((edited(field, float("nan"), at=0), f"{field} holds a non-finite"))
        cases.append((edited(field, float("inf"), at=0), f"{field} holds a non-finite"))
        cases.append((edited(field, "x", at=0), f"'{field}' is not a numeric array"))
    for doc, match in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            hm.load_rig_json(path)
