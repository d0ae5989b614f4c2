import gc
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from bihand import gradcheck
from bihand import tensor as T
from bihand import train as tr
from bihand.gradcheck import corrupt_gradients, fd_check, rel_error
from bihand.pipeline import BimanualHandNet, PipelineConfig


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal((a @ b).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_checked():
    a = T.Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = T.Tensor([[0.0, 1.0], [1.0, 0.0]])
    npt.assert_array_equal((a @ b).data, [[0.0, 1.0], [0.0, 0.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(11)
    a = rng.uniform(-2, 2, (5, 4))
    b = rng.uniform(-2, 2, (4, 3))
    got = (T.Tensor(a) @ T.Tensor(b)).data
    assert np.max(np.abs(got - matmul_oracle(a, b))) <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    # inner dimension, rank and batch mismatches; a shorter operand is shared
    # only when its leading dims are a suffix of the other's
    for a, b in (((2, 3), (2, 3)), ((3, 2, 3), (4, 2, 3, 2)), ((2, 2, 3), (3, 3, 2))):
        with pytest.raises(ValueError, match=re.escape(f"{a} and {b}")):
            T.matmul(T.Tensor(np.zeros(a)), T.Tensor(np.zeros(b)))


def test_backward_sum_gives_ones():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    x.sum().backward()
    npt.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_quadratic():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        (x * x).backward()


def test_backward_twice_raises_until_reset():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()
    reference = x.grad.copy()
    T.reset_grads(loss)
    assert x.grad is None
    loss.backward()
    npt.assert_array_equal(x.grad, reference)


def test_grad_accumulates_over_multiple_uses():
    x = T.Tensor([3.0], requires_grad=True)
    y = x * x + x * 2.0 + x  # dy/dx = 2x + 3 = 9
    y.sum().backward()
    npt.assert_allclose(x.grad, [9.0])


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = T.Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)

    def f():
        h = (x @ w).silu()
        return (h * h).mean() + h.softplus().sum() * 0.1

    assert fd_check(f, [x, w]) <= 1e-6


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_binary_elementwise_gradients(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    a = T.Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
    b = T.Tensor(rng.uniform(0.5, 2, (2, 3)), requires_grad=True)  # keep div away from 0
    assert fd_check(lambda: getattr(T, op)(a, b).sum(), [a, b]) <= 1e-6


@pytest.mark.parametrize("op", ["exp", "sqrt", "sin", "silu", "softplus"])
def test_unary_elementwise_gradients(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    a = T.Tensor(rng.uniform(0.1, 2, (7,)), requires_grad=True)
    assert fd_check(lambda: getattr(T, op)(a).sum(), [a]) <= 1e-6


def test_relu_values_and_gradient():
    x = T.Tensor([-1.0, 0.0, 2.0])
    npt.assert_array_equal(x.relu().data, [0.0, 0.0, 2.0])
    a = T.Tensor([-1.5, 0.7, 2.0], requires_grad=True)
    assert fd_check(lambda: a.relu().sum(), [a]) <= 1e-6


def test_silu_zero_is_zero():
    assert T.Tensor([0.0]).silu().data[0] == 0.0


def test_broadcast_add_grad_sums_broadcast_axis():
    rng = np.random.default_rng(3)
    a = T.Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
    b = T.Tensor(rng.uniform(-2, 2, (3,)), requires_grad=True)
    loss = ((a + b) * T.Tensor(rng.uniform(-1, 1, (2, 3)))).sum()
    loss.backward()
    assert b.grad.shape == (3,)
    assert fd_check(lambda: ((a + b) * (a * 0 + 1.0)).sum(), [a, b]) <= 1e-6


def test_broadcast_mismatch_raises():
    with pytest.raises(ValueError):
        T.Tensor(np.zeros((2, 3))) + T.Tensor(np.zeros((4,)))


def test_mean_all():
    t = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.mean().item() == 2.5


def test_sum_axis0_of_ones():
    t = T.Tensor(np.ones((4, 2)))
    npt.assert_array_equal(t.sum(axis=0).data, [4.0, 4.0])


def test_reduce_empty_axis_is_contract_error():
    with pytest.raises(ValueError):
        T.Tensor(np.zeros((0, 2))).sum(axis=0)


def test_mean_gradient_matches_fd():
    rng = np.random.default_rng(17)
    x = T.Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (3,)))
    assert fd_check(lambda: (x.mean(axis=1) * w).sum(), [x]) <= 1e-6


def test_movement_ops_roundtrip_and_grads():
    rng = np.random.default_rng(23)
    x = T.Tensor(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)
    y = x.transpose((2, 0, 1)).reshape(4, 6).transpose()
    npt.assert_array_equal(y.data.shape, (6, 4))
    assert fd_check(lambda: (x.transpose((2, 0, 1)).reshape(4, 6)[1:3, ::2]).sum(), [x]) <= 1e-6


def test_getitem_backward_scatters():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x[0, 1:].sum().backward()
    npt.assert_array_equal(x.grad, [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("key", [(slice(1, None), slice(None, None, 2)),
                                 (np.array([2, 0, 2, 2]), slice(1, 3))],
                         ids=["slices", "repeated_fancy"])
def test_getitem_gradients(key):
    rng = np.random.default_rng(37)
    x = T.Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, x.data[key].shape))
    assert fd_check(lambda: (x[key] * w).sum(), [x]) <= 1e-6


def test_concat_stack_gradients():
    rng = np.random.default_rng(31)
    a = T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    b = T.Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (2, 5)))
    assert fd_check(lambda: (T.concat([a, b], axis=1) * w).sum(), [a, b]) <= 1e-6
    ws = T.Tensor(rng.uniform(-1, 1, (2, 2, 3)))
    assert fd_check(lambda: (T.stack([a, a * 2.0]) * ws).sum(), [a]) <= 1e-6


def test_bmm_matches_loop_and_fd():
    rng = np.random.default_rng(41)
    a = T.Tensor(rng.uniform(-1, 1, (4, 2, 3)), requires_grad=True)
    b = T.Tensor(rng.uniform(-1, 1, (4, 3, 2)), requires_grad=True)
    got = T.matmul(a, b).data
    want = np.stack([matmul_oracle(a.data[i], b.data[i]) for i in range(4)])
    assert np.max(np.abs(got - want)) <= 1e-12
    w = T.Tensor(rng.uniform(-1, 1, (4, 2, 2)))
    assert fd_check(lambda: (T.matmul(a, b) * w).sum(), [a, b]) <= 1e-6


def test_determinism_same_seed_same_bits():
    def run():
        rng = np.random.default_rng(77)
        x = T.Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
        w = T.Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
        loss = ((x @ w).silu().mean() + x.exp().sum() * 1e-3)
        loss.backward()
        return x.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_no_grad_builds_no_graph():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = (x * x).sum()
    assert y._parents == ()
    assert y._backward is None
    y.backward()  # legal but reaches no leaves
    assert x.grad is None


def _closes_over(fn, obj):
    for cell in fn.__closure__ or ():
        try:
            if cell.cell_contents is obj:
                return True
        except ValueError:  # an empty cell: a name the op bound only on another branch
            continue
    return False


def test_toy_graph_is_freed_by_reference_counting():
    # a gradient rule receives its output gradient as an argument, so no
    # rule references its own output and a graph forms no reference cycle
    net = BimanualHandNet(PipelineConfig.toy(seed=0))
    sample = tr.synth_dataset(net.config, net.rig, 1, seed=3)[0]
    gc.collect()
    gc.disable()
    try:
        pred = net.forward(T.Tensor(sample.image))
        root = tr.loss(pred, sample)
        root.backward()
        nodes = T._toposort(root)
        tags = {n._op for n in nodes}
        assert {"layernorm", "softmax", "conv1d", "abs", "linear", "scan", "conv2d"} <= tags
        captured = [n._op for n in nodes
                    if n._backward is not None and _closes_over(n._backward, n)]
        assert captured == []
        del nodes, root, pred
        assert gc.collect() == 0
    finally:
        gc.enable()


def _toy_batch_loss(net, samples):
    """The batch loss ``train_loop`` builds: the mean of the samples' weighted losses."""
    return tr.batch_loss(net, samples)[0]


def test_backward_keeps_leaf_gradients_and_frees_interior_ones():
    net = BimanualHandNet(PipelineConfig.toy(seed=0))
    root = _toy_batch_loss(net, tr.synth_dataset(net.config, net.rig, 1, seed=3))
    root.backward()
    nodes = T._toposort(root)
    leaves = [n for n in nodes if n._backward is None and n.requires_grad]
    interior = [n for n in nodes if n._backward is not None]
    assert len(leaves) == len(net.params()) and len(interior) > 200
    assert all(n.grad is not None for n in leaves)
    assert [n._op for n in interior if n.grad is not None] == []
    with pytest.raises(RuntimeError, match="already ran"):
        root.backward()
    first = [n.grad for n in leaves]
    T.reset_grads(root)
    assert all(n.grad is None for n in nodes)
    root.backward()
    assert all(np.array_equal(n.grad, g) for n, g in zip(leaves, first))
    assert all(n.grad is None for n in interior)


def _traced(fn):
    """(``fn()``, traced bytes held as it returns, peak traced bytes), counting
    only what ``fn`` allocates."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return out, held, peak


def test_backward_of_a_toy_batch_barely_raises_the_traced_peak():
    # the graph's activations peak as backward starts; spent interior
    # gradients are freed as it goes, so they add little on top
    net = BimanualHandNet(PipelineConfig.toy(seed=0))
    samples = tr.synth_dataset(net.config, net.rig, 8, seed=3)

    def step():
        root = _toy_batch_loss(net, samples)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        root.backward()
        return after_forward

    after_forward, _, peak = _traced(step)
    assert peak <= 1.10 * after_forward, (after_forward, peak)


def test_train_loop_frees_each_step_graph_before_building_the_next():
    # two graphs alive at once would double the peak of a one-step run
    net = BimanualHandNet(PipelineConfig.toy(seed=0))
    samples = tr.synth_dataset(net.config, net.rig, 4, seed=3)
    _, _, one = _traced(lambda: tr.train_loop(net, samples, epochs=1, batch_size=4, lr=1e-3))
    _, _, three = _traced(lambda: tr.train_loop(net, samples, epochs=3, batch_size=4, lr=1e-3))
    assert three <= 1.10 * one, (one, three)


def test_forward_and_loss_of_a_128px_sample_retain_at_most_21_5_mb():
    # what the rules capture: padded conv inputs and scan decays are not kept
    net = BimanualHandNet(PipelineConfig.toy(seed=0, image_h=128, image_w=128))
    samples = tr.synth_dataset(net.config, net.rig, 1, seed=3)
    _, held, _ = _traced(lambda: _toy_batch_loss(net, samples))
    assert held <= 21.5e6, held


def test_gradient_corruption_hook_is_detected():
    x = T.Tensor([0.3, -0.7], requires_grad=True)
    with corrupt_gradients("mul"):
        err = fd_check(lambda: (x * x).sum(), [x])
    assert err > 1e-3
    assert fd_check(lambda: (x * x).sum(), [x]) <= 1e-6


def test_gradient_corruption_is_reset_when_the_block_raises():
    x = T.Tensor([0.3, -0.7], requires_grad=True)
    with corrupt_gradients("add"):
        with pytest.raises(ValueError, match="boom"):
            with corrupt_gradients("mul"):
                raise ValueError("boom")
        assert gradcheck._corrupt_tag == "add"
    assert gradcheck._corrupt_tag is None
    assert fd_check(lambda: (x * x).sum(), [x]) <= 1e-6


def test_backward_outside_fd_check_is_never_corrupted():
    x = T.Tensor([0.3, -0.7], requires_grad=True)
    with corrupt_gradients("mul"):
        (x * x).sum().backward()
    npt.assert_array_equal(x.grad, 2.0 * x.data)


def test_fd_check_refuses_a_leaf_the_function_does_not_reach():
    x = T.Tensor([0.3, -0.7], requires_grad=True)
    unused = T.Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ValueError, match=re.escape("leaf 1 of shape (2, 3)")):
        fd_check(lambda: (x * x).sum(), [x, unused])


def test_rel_error_floor():
    assert rel_error(np.array([1e-10]), np.array([0.0])) <= 1e-6
    assert rel_error(np.array([1.0]), np.array([1.0 + 1e-5])) > 1e-6
