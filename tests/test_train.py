import dataclasses
import gc

import numpy as np
import numpy.testing as npt
import pytest

from bihand import tensor as T
from bihand import train as tr
from bihand.handmodel import lbs, make_default_rig
from bihand.pipeline import (BimanualHandNet, FullOutput, PipelineConfig,
                             PipelineIntermediates)
from bihand.tensor import Tensor


def small_config(**over):
    base = dict(image_h=16, image_w=16, backbone_channels=8, backbone_stages=3,
                joints=4, depth_bins=4, vertices=244, vm_ife_depth=1, jvm_depth=1,
                state_dim=3, expand=2, conv_width=2, mlp_ratio=1, seed=5)
    base.update(over)
    return PipelineConfig(**base)


def make_output(rng, cfg, v):
    return FullOutput(
        theta=Tensor(rng.normal(0, 0.3, (2, 16, 3))),
        beta=Tensor(rng.normal(0, 1, (2, 10))),
        joints_uvd=Tensor(rng.uniform(0, 4, (2, cfg.joints, 3))),
        joints_mm=Tensor(rng.normal(0, 30, (2, 21, 3))),
        vertices=Tensor(rng.normal(0, 30, (2, v, 3))),
        t_rel=Tensor(rng.uniform(-30, 30, 3)),
        aux=PipelineIntermediates())


def sample_from_output(out, cfg):
    return tr.TrainingSample(
        image=np.zeros((3, cfg.image_h, cfg.image_w)),
        gt_theta=out.theta.data.copy(), gt_beta=out.beta.data.copy(),
        gt_joints=out.joints_mm.data.copy(), gt_joints_uvd=out.joints_uvd.data.copy(),
        gt_vertices=out.vertices.data.copy(), gt_t_rel=out.t_rel.data.copy())


def test_loss_zero_when_prediction_matches():
    rng = np.random.default_rng(3)
    cfg = small_config()
    out = make_output(rng, cfg, 244)
    gt = sample_from_output(out, cfg)
    assert tr.loss(out, gt).item() == 0.0


def test_loss_positive_when_any_term_differs():
    rng = np.random.default_rng(4)
    cfg = small_config()
    out = make_output(rng, cfg, 31)
    gt = sample_from_output(out, cfg)
    for name, index in (("gt_theta", 1), ("gt_t_rel", ...)):
        perturbed = sample_from_output(out, cfg)
        getattr(perturbed, name)[index] += 1e-6
        assert tr.loss(out, perturbed).item() > 0.0
    assert tr.loss(out, gt).item() == 0.0


def test_loss_weight_linearity():
    rng = np.random.default_rng(5)
    cfg = small_config()
    out = make_output(rng, cfg, 244)
    gt = sample_from_output(out, cfg)
    gt.gt_joints_uvd[0] += 1.0  # only the joint_l term is nonzero
    base = tr.loss(out, gt, tr.LossWeights()).item()
    doubled = tr.loss(out, gt, tr.LossWeights(joint_l=2.0)).item()
    npt.assert_allclose(doubled, 2.0 * base, rtol=1e-15)


def test_loss_matches_explicit_nine_term_sum():
    rng = np.random.default_rng(7)
    cfg = small_config()
    for _ in range(100):
        out = make_output(rng, cfg, 37)
        gt = sample_from_output(make_output(rng, cfg, 37), cfg)
        lam = tr.LossWeights(**{n: float(rng.uniform(0, 2)) for n in tr.LOSS_TERMS})
        got = tr.loss(out, gt, lam).item()
        pairs = [
            (out.theta.data[0], gt.gt_theta[0]), (out.theta.data[1], gt.gt_theta[1]),
            (out.beta.data[0], gt.gt_beta[0]), (out.beta.data[1], gt.gt_beta[1]),
            (out.joints_uvd.data[0], gt.gt_joints_uvd[0]),
            (out.joints_uvd.data[1], gt.gt_joints_uvd[1]),
            (out.vertices.data[0], gt.gt_vertices[0]),
            (out.vertices.data[1], gt.gt_vertices[1]),
            (out.t_rel.data, gt.gt_t_rel),
        ]
        want = 0.0
        for (pred, target), name in zip(pairs, tr.LOSS_TERMS):
            acc, count = 0.0, 0
            flat_p, flat_t = pred.reshape(-1), np.asarray(target).reshape(-1)
            for i in range(flat_p.size):
                acc += abs(flat_p[i] - flat_t[i])
                count += 1
            want += getattr(lam, name) * acc / count
        assert abs(got - want) <= 1e-12


def test_loss_scales_with_all_weights():
    rng = np.random.default_rng(9)
    cfg = small_config()
    out = make_output(rng, cfg, 31)
    gt = sample_from_output(make_output(rng, cfg, 31), cfg)
    base = tr.loss(out, gt).item()
    scaled = tr.loss(out, gt, tr.LossWeights(**{n: 3.0 for n in tr.LOSS_TERMS})).item()
    npt.assert_allclose(scaled, 3.0 * base, rtol=1e-12)


def test_loss_shape_mismatch_names_term():
    rng = np.random.default_rng(11)
    cfg = small_config()
    out = make_output(rng, cfg, 31)
    gt = sample_from_output(out, cfg)
    gt.gt_beta = np.zeros((2, 11))
    with pytest.raises(ValueError, match="'beta'"):
        tr.loss(out, gt)


def test_pair_mae_gives_each_hand_the_bits_of_its_own_mean():
    rng = np.random.default_rng(13)
    for shape in ((16, 3), (10,), (21, 3), (244, 3), (37, 3)):
        for _ in range(50):
            pred = Tensor(rng.normal(0, 30, (2,) + shape))
            target = rng.normal(0, 30, (2,) + shape)
            err = tr.mae(pred, target, "x", axis=tuple(range(1, pred.ndim)))
            assert err.shape == (2,)
            for hand in (0, 1):
                assert err.data[hand] == tr.mae(Tensor(pred.data[hand]), target[hand], "x").data


def test_pair_mae_names_the_term_of_a_mismatched_target():
    pred = Tensor(np.zeros((2, 16, 3)))
    with pytest.raises(ValueError, match="'theta'.*\\(2, 16, 3\\).*\\(2, 15, 3\\)"):
        tr.mae(pred, np.zeros((2, 15, 3)), "theta", axis=(1, 2))
    with pytest.raises(ValueError, match="'theta'"):  # a pair of another length
        tr.mae(pred, np.zeros((3, 16, 3)), "theta", axis=(1, 2))


@pytest.mark.parametrize("weight", [-0.1, float("nan"), float("inf")])
def test_loss_weights_reject_negative(weight):
    with pytest.raises(ValueError, match="loss weight vert_l must be a finite number >= 0"):
        tr.LossWeights(vert_l=weight)


def test_adam_zero_gradient_is_fixed_point():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = tr.Adam([("p", p)], lr=0.5)
    before = p.data.copy()
    p.grad = np.zeros(3)
    opt.step()
    npt.assert_array_equal(p.data, before)


def test_adam_single_step_closed_form():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = tr.Adam([("p", p)], lr=0.1)
    p.grad = np.ones(1)
    opt.step()
    m_hat, v_hat = 1.0, 1.0
    want = -0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    npt.assert_allclose(p.data, [want], rtol=0, atol=1e-18)
    assert abs(p.data[0] + 0.1) < 1e-8


def test_adam_two_steps_match_hand_rolled():
    rng = np.random.default_rng(13)
    p = Tensor(rng.normal(0, 1, 3), requires_grad=True)
    ref = p.data.copy()
    opt = tr.Adam([("p", p)], lr=0.01)
    g1, g2 = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
    m = np.zeros(3)
    v = np.zeros(3)
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    p.grad = g1
    opt.step()
    p.grad = g2
    opt.step()
    assert np.max(np.abs(p.data - ref)) <= 1e-12


def test_adam_missing_grad_is_contract_error():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = tr.Adam([("p", p)], lr=0.1)
    with pytest.raises(RuntimeError, match="'p'"):
        opt.step()


def test_lr_schedule_values():
    assert tr.lr_schedule(0) == 1e-4
    npt.assert_allclose(tr.lr_schedule(12), 1e-5, rtol=1e-12)
    npt.assert_allclose(tr.lr_schedule(20), 1e-6, rtol=1e-12)
    with pytest.raises(ValueError):
        tr.lr_schedule(-1)


@pytest.fixture(scope="module")
def toy_setup():
    cfg = PipelineConfig.toy(seed=1)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 4, seed=7)
    return cfg, net, data


def test_synth_gt_regenerates_through_rig(toy_setup):
    cfg, net, data = toy_setup
    from bihand.handmodel import lbs
    from bihand.tensor import no_grad
    for sample in data:
        with no_grad():
            out = lbs(net.rig, Tensor(sample.gt_theta[0]), Tensor(sample.gt_beta[0]))
        assert np.max(np.abs(out.joints.data - sample.gt_joints[0])) <= 1e-9
        assert np.max(np.abs(out.vertices.data - sample.gt_vertices[0])) <= 1e-9


def test_synth_gt_of_each_hand_has_the_bits_of_a_single_hand_rig_call(toy_setup):
    # both hands are skinned in one lbs call; each keeps the bits it gets alone
    cfg, net, data = toy_setup
    for sample in data:
        for hand in (0, 1):
            with T.no_grad():
                out = lbs(net.rig, Tensor(sample.gt_theta[hand]), Tensor(sample.gt_beta[hand]))
            assert out.joints.data.tobytes() == sample.gt_joints[hand].tobytes()
            assert out.vertices.data.tobytes() == sample.gt_vertices[hand].tobytes()


@pytest.mark.parametrize("t_rel", [(200.0, 0.0, 0.0), (-200.0, 0.0, 0.0), (0.0, 200.0, 0.0),
                                   (0.0, -200.0, 0.0)])
def test_hands_apart_fall_in_the_single_split(toy_setup, t_rel):
    # the synthetic +-30 mm translations always overlap the hands, so only a
    # sample built with them apart reaches the "single" split
    cfg, net, data = toy_setup
    assert tr.hands_overlap(data[0], cfg)
    apart = dataclasses.replace(data[0], gt_t_rel=np.array(t_rel))
    assert not tr.hands_overlap(apart, cfg)
    metrics = tr.evaluate(net, [apart])
    assert np.isfinite(metrics["mpjpe_single"]) and np.isnan(metrics["mpjpe_two"])


@pytest.fixture(scope="module")
def eval_setup():
    """A toy net whose zero-initialized heads are woken, so each sample's outputs
    differ, and 11 samples (two chunks of ``evaluate``): sample 4 is moved
    200 mm from its partner into the single split, the rest overlap."""
    cfg = PipelineConfig.toy(seed=2)
    net = BimanualHandNet(cfg)
    rng = np.random.default_rng(2)
    for _, t in net.params():
        if np.all(t.data == 0.0):
            t.data[:] = rng.normal(0, 0.1, t.data.shape)
    data = tr.synth_dataset(cfg, net.rig, 11, seed=5)
    data[4] = dataclasses.replace(data[4], gt_t_rel=np.array([200.0, 0.0, 0.0]))
    return net, data


def _evaluate_per_sample(net, dataset):
    """The metrics one image and one hand at a time: the oracle for ``evaluate``."""
    rows = {"single": [], "two": []}
    for sample in dataset:
        with T.no_grad():
            out = net.forward(Tensor(sample.image))
        joints, vertices = out.joints_mm.data, out.vertices.data
        pj = 0.5 * (tr.mpjpe(joints[0], sample.gt_joints[0])
                    + tr.mpjpe(joints[1], sample.gt_joints[1]))
        pv = 0.5 * (tr.mpvpe(vertices[0], sample.gt_vertices[0], net.rig.regressor)
                    + tr.mpvpe(vertices[1], sample.gt_vertices[1], net.rig.regressor))
        rows["two" if tr.hands_overlap(sample, net.config) else "single"].append((pj, pv))
    rows["all"] = rows["single"] + rows["two"]
    return {f"{metric}_{split}": float(np.mean([r[k] for r in pairs])) if pairs else float("nan")
            for k, metric in enumerate(("mpjpe", "mpvpe")) for split, pairs in rows.items()}


@pytest.mark.parametrize("indices", [range(11), range(9), range(3, 11), [4],
                                     [i for i in range(11) if i != 4]])
def test_batched_evaluate_matches_the_per_sample_oracle(eval_setup, monkeypatch, indices):
    net, data = eval_setup
    dataset = [data[i] for i in indices]
    want = _evaluate_per_sample(net, dataset)
    forward, batches = net.forward, []
    monkeypatch.setattr(net, "forward", lambda img: batches.append(img.shape[0]) or forward(img))
    got = tr.evaluate(net, dataset)
    assert batches == [min(tr.EVAL_BATCH, len(dataset) - s)
                       for s in range(0, len(dataset), tr.EVAL_BATCH)]
    assert list(got) == list(want) == list(tr.METRICS_HEADER[1:])
    both_splits = not (np.isnan(want["mpjpe_single"]) or np.isnan(want["mpjpe_two"]))
    for name, value in got.items():
        assert type(value) is float, name
        if both_splits and name.endswith("_all"):
            # the samples in dataset order, where the oracle took the single split first
            assert abs(value - want[name]) <= 1e-12 * abs(want[name]), name
        else:
            assert repr(value) == repr(want[name]), name


@pytest.mark.parametrize("bad, named", [([(9, "vertices"), (10, "joints_mm")], "vertices"),
                                        ([(9, "vertices"), (9, "joints_mm")], "joints_mm")])
def test_batched_evaluate_names_the_first_non_finite_sample(eval_setup, monkeypatch, bad, named):
    # sample 9 is the second of the second chunk; within a sample the joints come first
    net, data = eval_setup
    forward, starts = net.forward, [0]

    def poisoned(img):
        out = forward(img)
        for index, field in bad:
            i = index - starts[0]
            if 0 <= i < img.shape[0]:
                getattr(out, field).data[i, 1, 0, 0] = np.nan
        starts[0] += img.shape[0]
        return out
    monkeypatch.setattr(net, "forward", poisoned)
    with pytest.raises(ValueError, match=rf"^sample 9 \(s00009\): the network's {named} holds"):
        tr.evaluate(net, data)


def test_synth_deterministic_per_seed(toy_setup):
    cfg, net, _ = toy_setup
    a = tr.synth_dataset(cfg, net.rig, 3, seed=11)
    b = tr.synth_dataset(cfg, net.rig, 3, seed=11)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.gt_theta, sb.gt_theta)
        assert np.array_equal(sa.gt_joints_uvd, sb.gt_joints_uvd)
        assert np.array_equal(sa.gt_t_rel, sb.gt_t_rel)


@pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
def test_synth_rejects_bad_noise(toy_setup, noise):
    cfg, net, _ = toy_setup
    with pytest.raises(ValueError, match="noise must be a finite number >= 0"):
        tr.synth_dataset(cfg, net.rig, 1, seed=1, noise=noise)


def test_synth_rejects_rig_that_disagrees_with_config():
    rig = make_default_rig(0, 252)
    with pytest.raises(ValueError,
                       match="'gt_vertices': shape \\(2, 252, 3\\), expected \\(2, 300, 3\\)"):
        tr.synth_dataset(PipelineConfig.toy(vertices=300), rig, 1, seed=0)


def test_synth_images_have_expected_channels(toy_setup):
    cfg, _, data = toy_setup
    for sample in data:
        assert sample.image.shape == (3, cfg.image_h, cfg.image_w)
        npt.assert_allclose(sample.image[2], sample.image[0] + sample.image[1],
                            atol=1e-15)


def test_blob_peaks_near_projected_points():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pts = np.stack([rng.uniform(5, 58, 4), rng.uniform(5, 58, 4)], axis=1)
        pts = pts[np.argsort(pts[:, 0])]
        if np.min(np.diff(pts[:, 0])) < 10:  # keep blobs separated
            continue
        img = tr.render_gaussian_blobs(pts, 64, 64)
        for x, y in pts:
            y0, x0 = int(round(y)), int(round(x))
            window = img[max(y0 - 4, 0):y0 + 5, max(x0 - 4, 0):x0 + 5]
            iy, ix = np.unravel_index(np.argmax(window), window.shape)
            peak_y = max(y0 - 4, 0) + iy
            peak_x = max(x0 - 4, 0) + ix
            assert abs(peak_x - x) <= 1.0 and abs(peak_y - y) <= 1.0


def test_mpjpe_identical_is_zero():
    pts = np.random.default_rng(19).normal(0, 10, (21, 3))
    assert tr.mpjpe(pts, pts) == 0.0


def test_mpjpe_translation_invariant():
    rng = np.random.default_rng(23)
    a = rng.normal(0, 10, (21, 3))
    offset = rng.normal(0, 50, 3)
    assert tr.mpjpe(a, a + offset) <= 1e-12
    b = rng.normal(0, 10, (21, 3))
    npt.assert_allclose(tr.mpjpe(a, b), tr.mpjpe(a + offset, b), atol=1e-12)


def test_mpjpe_matches_loop_oracle():
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = rng.normal(0, 20, (21, 3))
        b = rng.normal(0, 20, (21, 3))
        got = tr.mpjpe(a, b)
        aa = a - a[0]
        bb = b - b[0]
        want = 0.0
        for j in range(21):
            want += np.sqrt(((aa[j] - bb[j]) ** 2).sum())
        want /= 21
        assert abs(got - want) <= 1e-12


def test_mpvpe_single_vertex_displacement(toy_setup):
    cfg, net, _ = toy_setup
    v = net.rig.num_vertices
    verts = np.random.default_rng(31).normal(0, 20, (v, 3))
    moved = verts.copy()
    far = int(np.argmin(net.rig.regressor[0]))  # vertex the root ignores
    assert net.rig.regressor[0, far] == 0.0
    moved[far, 0] += 3.0
    npt.assert_allclose(tr.mpvpe(moved, verts, net.rig.regressor), 3.0 / v, atol=1e-12)


def test_mpvpe_matches_loop_oracle(toy_setup):
    cfg, net, _ = toy_setup
    rng = np.random.default_rng(37)
    v = net.rig.num_vertices
    for _ in range(50):
        a = rng.normal(0, 20, (v, 3))
        b = rng.normal(0, 20, (v, 3))
        got = tr.mpvpe(a, b, net.rig.regressor)
        aa = a - net.rig.regressor[0] @ a
        bb = b - net.rig.regressor[0] @ b
        want = float(np.mean([np.sqrt(((aa[i] - bb[i]) ** 2).sum()) for i in range(v)]))
        assert abs(got - want) <= 1e-12


def test_evaluate_rejects_empty(toy_setup):
    cfg, net, _ = toy_setup
    with pytest.raises(ValueError, match="empty"):
        tr.evaluate(net, [])


def test_counting_formula_examples():
    # 1x1 conv, 2->2 channels on a 4x4 map: 128 multiply-add flops + 32 bias adds
    out, weight, bias = np.zeros((2, 4, 4)), np.zeros((2, 2, 1, 1)), np.zeros(2)
    assert tr.FLOP_RULES["conv2d"](out, [np.zeros((2, 4, 4)), weight, bias]) == 128 + 32
    assert tr.FLOP_RULES["conv2d"](out, [np.zeros((2, 4, 4)), weight]) == 128  # no bias
    # attention over n=3 positions with q, k, v of width 2: q.T @ k and v @ p.T
    # take 2*2*9 flops each, the softmax 5*9; the args come as (q, v, k)
    q = v = k = np.zeros((2, 3))
    assert tr.FLOP_RULES["attention"](np.zeros((2, 3)), [q, v, k]) == 36 + 36 + 45


def test_counted_flops_of_the_toy_and_128px_forwards_are_pinned():
    # a fused rule must count what the composition it replaced counted
    assert tr.count_flops(PipelineConfig.toy(seed=0)) == 14_566_490
    assert tr.count_flops(PipelineConfig.toy(seed=0, image_h=128, image_w=128)) == 57_806_810


def test_flop_rules_cover_exactly_the_ops_a_forward_and_loss_run(toy_setup):
    # a new op without a rule fails here, and so does a rule that no op uses
    cfg, net, data = toy_setup
    tags = set()
    with T.observe_ops(lambda tag, out, parents: tags.add(tag)):
        tr.loss(net.forward(Tensor(data[0].image)), data[0])
    assert tags == set(tr.FLOP_RULES)


def test_observe_ops_restores_observer_and_grad_mode_on_error():
    def outer(tag, out, parents):
        pass
    with T.observe_ops(outer):
        with pytest.raises(ValueError, match="boom"):
            with T.no_grad(), T.observe_ops(lambda *a: None):
                raise ValueError("boom")
        assert T._op_observer is outer and T._grad_enabled
    assert T._op_observer is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN flows through numpy ops
def test_train_aborts_on_non_finite_loss():
    cfg = train_config(seed=6)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 2, seed=1)
    net.params()[0][1].data[0] = np.nan
    with pytest.raises(RuntimeError, match="step 0"):
        tr.train_loop(net, data, epochs=1, batch_size=2, lr=1e-3)


def test_train_loop_names_a_softplus_underflow():
    # finite everywhere, but softplus(-800) rounds to exactly 0: the scan's
    # positive-delta guard must say so rather than report only a non-finite loss
    cfg = train_config(seed=6)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 1, seed=1)
    dt_proj = net.refiner.blocks[0].ssm.dt_proj
    dt_proj.weight.data[:] = 0.0
    dt_proj.bias.data[:] = -800.0
    with pytest.raises(RuntimeError, match=r"non-finite loss at step 0: .*requires strictly "
                                           r"positive delta.*delta\[0, 0\] = 0\.0.*underflow"):
        tr.train_loop(net, data, epochs=1, batch_size=1, lr=1e-3)


@pytest.mark.parametrize("epochs, batch_size, n, match", [
    (0, 2, 2, "epochs=0"),
    (1, 0, 2, "batch_size=0"),
    (1, 2, 0, "at least one sample"),
    (1, 2, 2, "schedule .* got 'cosine'"),
    (1, 2, 2, "finite lr >= 0, got nan"),
    (1, 2, 2, "finite lr >= 0, got inf"),
    (1, 2, 2, "finite lr >= 0, got -1.0"),
])
def test_train_loop_rejects_bad_loop_bounds(epochs, batch_size, n, match):
    cfg = train_config(seed=6)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 2, seed=1)[:n]
    schedule = "cosine" if "cosine" in match else "none"
    lr = float(match.rsplit(" ", 1)[1]) if "finite lr" in match else 1e-3
    with pytest.raises(ValueError, match=match):
        tr.train_loop(net, data, epochs=epochs, batch_size=batch_size, lr=lr,
                      schedule=schedule)


def test_param_counter_matches_checkpoint_enumeration(tmp_path):
    from bihand.pipeline import load_checkpoint
    for cfg in (small_config(), small_config(joints=6)):
        net = BimanualHandNet(cfg)
        path = tmp_path / "count.ckpt"
        net.save_checkpoint(path)
        serialized = sum(arr.size for _, arr in load_checkpoint(path))
        assert tr.count_work(cfg)[0] == serialized


def train_config(**over):
    return small_config(joints=21, **over)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_train_loop_restores_gc_thresholds(monkeypatch):
    cfg = train_config(seed=6)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 1, seed=1)
    before = gc.get_threshold()
    during = []
    loss_terms = tr.loss_terms
    monkeypatch.setattr(tr, "loss_terms",
                        lambda *a: during.append(gc.get_threshold()) or loss_terms(*a))
    tr.train_loop(net, data, epochs=1, batch_size=1, lr=1e-3)
    assert gc.get_threshold() == before
    assert during[0][0] > before[0]
    with pytest.raises(RuntimeError, match="non-finite loss"):
        tr.train_loop(net, data, epochs=3, batch_size=1, lr=1e300)
    assert gc.get_threshold() == before


def test_train_zero_lr_keeps_loss_constant():
    cfg = train_config()
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 2, seed=3)
    result = tr.train_loop(net, data, epochs=3, batch_size=2, lr=0.0)
    totals = [row[3] for row in result.trace]
    assert all(t == totals[0] for t in totals)


def test_train_same_seed_identical_traces():
    def run():
        cfg = train_config(seed=21)
        net = BimanualHandNet(cfg)
        data = tr.synth_dataset(cfg, net.rig, 2, seed=9)
        return tr.train_loop(net, data, epochs=4, batch_size=2, lr=1e-3).trace

    a, b = run(), run()
    assert a == b


def test_train_loss_decreases_on_tiny_problem():
    cfg = train_config(seed=2)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 2, seed=5)
    result = tr.train_loop(net, data, epochs=40, batch_size=2, lr=2e-3)
    assert result.final_loss < result.initial_loss


def test_trace_csv_roundtrip(tmp_path):
    rows = [[0, 0, 1e-3, 1.5] + [0.1] * 9, [1, 0, 1e-3, 1.25] + [0.05] * 9]
    path = tmp_path / "trace.csv"
    tr.write_trace_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(tr.TRACE_HEADER)
    assert len(lines) == 3


def test_metrics_csv_schema(tmp_path):
    metrics = {k: 1.0 for k in tr.METRICS_HEADER[1:]}
    path = tmp_path / "metrics.csv"
    tr.write_metrics_csv(path, "train", metrics)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(tr.METRICS_HEADER)
    assert lines[1].startswith("train,")
