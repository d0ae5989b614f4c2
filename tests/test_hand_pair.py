"""The hand pair as a leading axis of 2: every kernel and stage that takes it
gives, for each hand, the forward bits of a call on that hand alone, and
gradients within 1e-12 of the two single calls' (a shared weight's gradient
is the sum of the hands'). The whole network stays under a node budget, and
its outputs keep the pair as one tensor from the forward to the loss. A
batch of images runs the hand stages once for all its 2B hands, with each
image's single-image bits."""

import collections
import dataclasses

import numpy as np
import pytest

from bihand import handmodel as hm
from bihand import nn, ssm, train as tr
from bihand.pipeline import BimanualHandNet, JointSequenceRefiner, PipelineConfig, soft_argmax
from bihand.tensor import Tensor, _toposort, matmul, no_grad, observe_ops

GRAD_TOL = 1e-12


def _outputs(result):
    return result if isinstance(result, tuple) else (result,)


def _run(fn, leaves, probes):
    """Forward arrays of ``fn(*leaves)``, and every leaf's gradient of the
    probed sum of its outputs."""
    for t in leaves:
        t.grad = None
        t.requires_grad = True
    outs = _outputs(fn(*leaves))
    total = None
    for out, probe in zip(outs, probes):
        term = (out * Tensor(probe)).sum()
        total = term if total is None else total + term
    total.backward()
    return ([out.data.copy() for out in outs],
            [np.zeros(t.shape) if t.grad is None else t.grad.copy() for t in leaves])


def assert_pair_matches_singles(fn, pair, shared=(), seed=0):
    """``fn`` on the [2, ...] inputs ``pair`` against ``fn`` on each hand's
    slice; ``shared`` inputs serve both hands unsliced."""
    shared = list(shared)
    rng = np.random.default_rng(seed)
    probes = [rng.uniform(-1, 1, out.shape) for out in _outputs(fn(*pair, *shared))]
    outs2, grads2 = _run(fn, list(pair) + shared, probes)
    shared_grads = [np.zeros(t.shape) for t in shared]
    for i in range(2):
        hand = [Tensor(t.data[i]) for t in pair]
        outs1, grads1 = _run(fn, hand + shared, [p[i] for p in probes])
        for o2, o1 in zip(outs2, outs1):
            assert o2[i].shape == o1.shape
            assert o2[i].tobytes() == o1.tobytes()
        for g2, g1 in zip(grads2, grads1[:len(pair)]):
            assert np.max(np.abs(g2[i] - g1)) <= GRAD_TOL
        for acc, g1 in zip(shared_grads, grads1[len(pair):]):
            acc += g1
    for g2, acc in zip(grads2[len(pair):], shared_grads):
        assert np.max(np.abs(g2 - acc)) <= GRAD_TOL


def _leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape))


@pytest.fixture(scope="module")
def rig():
    return hm.make_default_rig(seed=0)


def test_lbs_pair_matches_single_hands(rig):
    rng = np.random.default_rng(1)
    theta = Tensor(rng.normal(0, 0.4, (2, 16, 3)))
    theta.data[1, 3] = 0.0  # one joint on the small-angle branch
    beta = Tensor(rng.normal(0, 1, (2, 10)))

    def run(th, be):
        out = hm.lbs(rig, th, be)
        return out.vertices, out.joints
    assert_pair_matches_singles(run, [theta, beta])


def test_lbs_pair_keeps_the_regressor_exact(rig):
    rng = np.random.default_rng(2)
    out = hm.lbs(rig, Tensor(rng.normal(0, 0.4, (2, 16, 3))), Tensor(rng.normal(0, 1, (2, 10))))
    for i in range(2):
        assert np.array_equal(out.joints.data[i], rig.regressor @ out.vertices.data[i])


def test_forward_kinematics_pair_matches_single_hands(rig):
    theta = Tensor(np.random.default_rng(3).normal(0, 0.5, (2, 16, 3)))
    assert_pair_matches_singles(lambda th: hm.forward_kinematics(rig, th), [theta])


def test_grid_sample_pair_matches_single_maps():
    rng = np.random.default_rng(4)
    f = _leaf(rng, (2, 3, 5, 6), -2, 2)
    # inside, on the border and outside the map
    pts = Tensor(np.stack([rng.uniform(-1.5, 6.5, (2, 7)), rng.uniform(-1.5, 5.5, (2, 7))],
                          axis=-1))
    pts.data[0, 0] = [5.0, 4.0]
    assert_pair_matches_singles(nn.grid_sample, [f, pts])


def test_grid_sample_rejects_points_of_another_batch():
    f = Tensor(np.zeros((2, 3, 4, 4)))
    for shape in ((5, 2), (3, 5, 2), (2, 5, 3)):
        with pytest.raises(ValueError, match="points must be"):
            nn.grid_sample(f, Tensor(np.zeros(shape)))


def test_soft_argmax_position_rows_match_single_rows():
    rng = np.random.default_rng(5)
    logits = _leaf(rng, (2, 4, 12), -40, 40)
    rows = np.stack([np.arange(12.0) % 4, np.arange(12.0) // 4])  # ranges [0,3] and [0,2]
    probe = rng.uniform(-1, 1, (2, 4, 2))
    (out,), (g2,) = _run(lambda lg: soft_argmax(lg, rows), [logits], [probe])
    assert out.shape == (2, 4, 2)
    g1 = np.zeros(logits.shape)
    for k in range(2):
        (single,), (g,) = _run(lambda lg: soft_argmax(lg, rows[k]), [logits], [probe[..., k]])
        assert out[..., k].tobytes() == single.tobytes()
        assert np.all(out[..., k] >= 0) and np.all(out[..., k] <= rows[k].max())
        g1 += g
    assert np.max(np.abs(g2 - g1)) <= GRAD_TOL


def test_conv1d_pair_matches_single_sequences():
    rng = np.random.default_rng(6)
    x, w, b = _leaf(rng, (2, 7, 5)), _leaf(rng, (5, 3)), _leaf(rng, 5)
    assert_pair_matches_singles(ssm.depthwise_conv1d_causal, [x], [w, b])


def test_linear_and_matmul_pairs_match_single_calls():
    rng = np.random.default_rng(7)
    w, b = _leaf(rng, (6, 4)), _leaf(rng, 4)
    # a [2,1,K] stack of vectors multiplies each as its own one-row matrix
    for shape in ((2, 5, 6), (2, 1, 6)):
        assert_pair_matches_singles(nn.linear, [_leaf(rng, shape)], [w, b])
    assert_pair_matches_singles(matmul, [_leaf(rng, (2, 3, 6))], [w])
    assert_pair_matches_singles(lambda x, c: matmul(c, x), [_leaf(rng, (2, 4, 3))],
                                [_leaf(rng, (5, 4))])
    assert_pair_matches_singles(matmul, [_leaf(rng, (2, 4, 3, 3))], [_leaf(rng, (4, 3, 1))])


def test_vmblock_pair_matches_single_sequences():
    block = ssm.VmBlockLayer(6, state_dim=3, conv_width=3, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    block.out_proj.weight.data[:] = rng.normal(0, 0.3, block.out_proj.weight.shape)
    block.mlp.fc2.weight.data[:] = rng.normal(0, 0.3, block.mlp.fc2.weight.shape)
    x = _leaf(rng, (2, 5, 6))
    assert_pair_matches_singles(lambda x, *_: block(x), [x], [t for _, t in block.params()])


def test_refiner_pair_matches_blocks_run_per_hand():
    cfg = PipelineConfig(image_h=16, image_w=16, backbone_channels=8, joints=5,
                         depth_bins=4, vertices=244, vm_ife_depth=1, jvm_depth=2,
                         state_dim=3, expand=2, conv_width=2, mlp_ratio=1, seed=4)
    refiner = JointSequenceRefiner(cfg, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    for _, t in refiner.params():  # wake the zero-initialized projections
        if np.all(t.data == 0.0):
            t.data[:] = rng.normal(0, 0.3, t.data.shape)
    feats = _leaf(rng, (2, 5, cfg.hand_channels))
    assert_pair_matches_singles(lambda x, *_: refiner(x), [feats],
                                [t for _, t in refiner.params()])


def test_toy_forward_and_loss_stay_under_the_node_budget():
    # one toy sample ran 444 op nodes with a per-hand loop in each hand stage
    cfg = PipelineConfig.toy()
    net = BimanualHandNet(cfg)
    sample = tr.synth_dataset(cfg, net.rig, 1, seed=3)[0]
    tags = collections.Counter()
    with observe_ops(lambda tag, out, parents: tags.update([tag])):
        tr.loss(net.forward(Tensor(sample.image)), sample)
    assert sum(tags.values()) <= 350, tags
    assert tags["grid_sample"] == 1


def _toy_training_sample():
    cfg = PipelineConfig.toy()
    net = BimanualHandNet(cfg)
    return net, tr.synth_dataset(cfg, net.rig, 1, seed=3)[0]


def test_toy_forward_and_loss_keep_the_pair_under_the_tighter_budget():
    # 336 op nodes while forward split the pair into per-hand outputs
    net, sample = _toy_training_sample()
    tags = collections.Counter()
    with observe_ops(lambda tag, out, parents: tags.update([tag])):
        tr.loss(net.forward(Tensor(sample.image)), sample)
    assert sum(tags.values()) <= 320, tags
    assert tags["abs"] == 5  # one L1 chain per pair quantity, and one for t_rel


def test_the_loss_weighs_its_nine_terms_without_slicing_them():
    # one concat of the pair errors, one mul by the weights and one sum; the
    # terms cut into nine scalars and added back one by one ran 40 ops
    net, sample = _toy_training_sample()
    rng = np.random.default_rng(5)
    with no_grad():
        out = net.forward(Tensor(sample.image))
    leaves = {name: Tensor(rng.normal(0, 1, getattr(out, name).shape), requires_grad=True)
              for name in ("theta", "beta", "joints_uvd", "vertices", "t_rel")}
    out = dataclasses.replace(out, **leaves)
    tags = collections.Counter()
    with observe_ops(lambda tag, data, parents: tags.update([tag])):
        tr.loss(out, sample)
    assert tags["getitem"] == 0 and sum(tags.values()) <= 20, tags


def test_every_training_op_but_the_joint_regression_reaches_the_loss():
    net, sample = _toy_training_sample()
    pair = tr.synth_dataset(net.config, net.rig, 2, seed=3)
    # lbs regresses the joints off the posed mesh; the loss supervises the mesh itself.
    # A batch's aux also stacks f and reads the heatmaps and sampled features
    # as [B,2,...], which only aux holds
    for run, unreached in (
            (lambda: tr.loss(net.forward(Tensor(sample.image)), sample),
             [("matmul", (2, 21, 3))]),
            (lambda: tr.batch_loss(net, pair)[0],
             [("matmul", (2, 2, 21, 3)), ("reshape", (2, 2, 21, 8, 8)),
              ("reshape", (2, 2, 21, 16)), ("reshape", (2, 2, 21, 16)),
              ("stack", (2, 32, 8, 8))])):
        ran = []  # keeps each output array alive, so its id names one leaf
        with observe_ops(lambda tag, out, parents: ran.append((tag, out))):
            total = run()
        nodes = _toposort(total)
        # an op on constants is reached as a leaf that holds its output array; one
        # that takes gradients as a node, which keeps its tag and shape but no array
        leaves = {id(node.data) for node in nodes if not node._parents}
        ops = collections.Counter((tag, out.shape) for tag, out in ran if id(out) not in leaves)
        reached = collections.Counter((node._op, node.shape) for node in nodes if node._parents)
        assert sum(ops.values()) == sum(reached.values()) + len(unreached)
        assert sorted((ops - reached).elements()) == unreached


def test_per_hand_output_views_are_read_only_slices_of_the_pair():
    net, sample = _toy_training_sample()
    with no_grad():
        out = net.forward(Tensor(sample.image))
    for name in ("theta", "beta", "joints_uvd", "joints_mm", "vertices"):
        pair = getattr(out, name).data
        for index, hand in enumerate("lr"):
            view = getattr(out, f"{name}_{hand}")
            assert view.data.tobytes() == pair[index].tobytes()
            with pytest.raises(AttributeError):
                setattr(out, f"{name}_{hand}", view)


def test_per_hand_output_views_index_the_pair_axis_of_a_batch():
    net, sample = _toy_training_sample()
    with no_grad():
        out = net.forward(Tensor(np.stack([sample.image, sample.image[::-1]])))
    for name in ("theta", "beta", "joints_uvd", "joints_mm", "vertices"):
        batch = getattr(out, name).data
        for index, hand in enumerate("lr"):
            view = getattr(out, f"{name}_{hand}")
            assert view.data.tobytes() == batch[:, index].tobytes()
            with pytest.raises(AttributeError):
                setattr(out, f"{name}_{hand}", view)


# -- the batch axis below the image stages ------------------------------------------

def _woken_toy_net(seed):
    net = BimanualHandNet(PipelineConfig.toy(seed=seed))
    rng = np.random.default_rng(seed)
    for _, t in net.params():  # zero-initialized heads would hide the later stages
        if np.all(t.data == 0.0):
            t.data[:] = rng.normal(0, 0.1, t.data.shape)
    return net


def _arrays(out):
    """Every array of a ``FullOutput``, its ``aux`` included, by name."""
    aux = out.aux
    named = {name: getattr(out, name) for name in
             ("theta", "beta", "joints_uvd", "joints_mm", "vertices", "t_rel")}
    named.update({f"aux.{name}": getattr(aux, name) for name in
                  ("f_l", "f_r", "starred_l", "starred_r", "joint_feats", "refined_feats")})
    for hand in ("heatmap_l", "heatmap_r"):
        heat = getattr(aux, hand)
        named[f"aux.{hand}.spatial"] = heat.spatial_logits
        named[f"aux.{hand}.depth"] = heat.depth_logits
    return {name: t.data for name, t in named.items()}


def test_batch_forward_and_loss_match_single_image_calls():
    net = _woken_toy_net(seed=3)
    samples = tr.synth_dataset(net.config, net.rig, 3, seed=4)
    batch = tr.TrainingSample.stack(samples)
    out = net.forward(Tensor(batch.image))
    terms = tr.loss_terms(out, batch)
    batched = _arrays(out)
    assert len(batched) == 16
    assert terms.shape == (3, len(tr.LOSS_TERMS))
    for i, sample in enumerate(samples):
        single = net.forward(Tensor(sample.image))
        for name, array in _arrays(single).items():
            assert batched[name][i].shape == array.shape, name
            assert batched[name][i].tobytes() == array.tobytes(), name
        single_terms = tr.loss_terms(single, sample)
        assert single_terms.shape == (len(tr.LOSS_TERMS),)
        for k, name in enumerate(tr.LOSS_TERMS):
            assert terms.data[i, k].tobytes() == single_terms.data[k].tobytes(), name


def test_no_parameter_gradient_is_rounding_noise():
    # a parameter that feeds an op which cancels it (a conv bias before a
    # per-channel norm or a softmax) gets only rounding noise, which Adam
    # would turn into lr-sized steps; the registry holds none
    net = _woken_toy_net(seed=3)
    samples = tr.synth_dataset(net.config, net.rig, 2, seed=4)
    tr.batch_loss(net, samples)[0].backward()
    ratios = {name: np.max(np.abs(t.grad)) / np.max(np.abs(t.data)) for name, t in net.params()}
    assert {name: r for name, r in ratios.items() if not r >= 1e-6} == {}


def test_toy_batch_step_matches_the_per_sample_loop():
    cfg = PipelineConfig.toy()
    net = BimanualHandNet(cfg)
    # data whose eight losses round differently summed pairwise than in sample order
    samples = tr.synth_dataset(cfg, net.rig, 8, seed=4)
    # lr 0 leaves the parameters as they were, and each keeps its step-0 gradient
    row = tr.train_loop(net, samples, epochs=1, batch_size=8, lr=0.0).trace[0]
    batched = [t.grad.copy() for _, t in net.params()]

    total, term_values = None, [0.0] * len(tr.LOSS_TERMS)
    for sample in samples:
        out = net.forward(Tensor(sample.image))
        terms = tr.loss_terms(out, sample)
        for k in range(len(tr.LOSS_TERMS)):
            term_values[k] += float(terms.data[k]) / len(samples)
        loss = tr.loss(out, sample)
        total = loss if total is None else total + loss
    total = total * (1.0 / len(samples))
    for _, t in net.params():
        t.grad = None
    total.backward()
    assert row == [0, 0, 0.0, float(total.data)] + term_values
    for (name, t), g in zip(net.params(), batched):
        assert np.max(np.abs(g - t.grad)) <= GRAD_TOL * np.max(np.abs(t.grad)), name


def test_toy_batch_step_stays_under_the_batch_node_budget():
    # eight per-sample graphs of a toy batch-8 step ran 2520 op nodes
    cfg = PipelineConfig.toy()
    net = BimanualHandNet(cfg)
    samples = tr.synth_dataset(cfg, net.rig, 8, seed=3)
    tags = collections.Counter()
    with observe_ops(lambda tag, out, parents: tags.update([tag])):
        tr.train_loop(net, samples, epochs=1, batch_size=8, lr=0.0)
    assert sum(tags.values()) <= 1300, tags
    assert tags["grid_sample"] == 1 and tags["abs"] == 5


@pytest.mark.parametrize("shape", [(3, 64, 63), (64, 64), (0, 3, 64, 64), (2, 1, 64, 64),
                                   (1, 1, 3, 64, 64)])
def test_forward_names_an_image_of_another_shape(shape):
    net = BimanualHandNet(PipelineConfig.toy())
    with pytest.raises(ValueError, match=r"expected image \[3,64,64\] or \[B,3,64,64\]"):
        net.forward(Tensor(np.zeros(shape)))


def test_loss_terms_name_a_ground_truth_batch_of_another_size():
    net, sample = _toy_training_sample()
    with no_grad():
        out = net.forward(Tensor(np.stack([sample.image] * 3)))
    for gt in (tr.TrainingSample.stack([sample] * 2), sample):
        with pytest.raises(ValueError, match="loss term 'theta'"):
            tr.loss_terms(out, gt)
