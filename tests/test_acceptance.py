"""Acceptance gate: each criterion prints one pass/fail line and asserts.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The overfit run (criterion 4) trains the pinned configuration once in a
module fixture; its artifacts also back the checkpoint-evaluation check.
"""

import math
import time

import numpy as np
import pytest

from bihand import cli, handmodel as hm, ssm, train as tr
from bihand.nn import NonLocalBlock, grid_sample
from bihand.pipeline import (BimanualHandNet, JointSequenceRefiner,
                             PipelineConfig, soft_argmax)
from bihand.ssm import VmBlockLayer
from bihand.tensor import Tensor, no_grad, stack
from scan_reference import dense_scan_flops, dense_scan_reference


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# -- criterion 1: gradient suite -------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.time()
    passed, rows = cli.run_gradcheck()
    elapsed = time.time() - t0
    worst_op = max((r[1] for r in rows if r[0] != "end_to_end"), default=0.0)
    e2e = next(r[1] for r in rows if r[0] == "end_to_end")
    ok = passed and elapsed < 120.0
    report(1, ok, f"all {len(rows)} ops pass (worst per-op {worst_op:.2e} <= 1e-6, "
                  f"end-to-end {e2e:.2e} <= 1e-5) in {elapsed:.1f}s < 120s")


# -- criterion 2: oracle equivalence, >= 100 randomized trials each ---------------

def quat_matrix(aa):
    theta = float(np.linalg.norm(aa))
    if theta < 1e-14:
        return np.eye(3)
    w = math.cos(theta / 2)
    x, y, z = aa / theta * math.sin(theta / 2)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def test_criterion_2_scan_vs_dense_operator():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(120):
        seq = int(rng.integers(1, 9))
        ch = int(rng.integers(1, 4))
        state = int(rng.integers(1, 5))
        delta = rng.uniform(0.01, 0.3, (seq, ch))
        a = -rng.uniform(0.3, 4.0, (ch, state))
        b = rng.uniform(-1, 1, (seq, state))
        c = rng.uniform(-1, 1, (seq, state))
        d = rng.uniform(-1, 1, ch)
        x = rng.uniform(-1, 1, (seq, ch))
        coeffs = ssm.ScanCoeffs(Tensor(delta), Tensor(a), Tensor(b), Tensor(c), Tensor(d))
        got = ssm.selective_scan(coeffs, Tensor(x)).data
        want = dense_scan_reference(delta, a, b, c, d, x)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report("2a", worst <= 1e-10, f"scan vs dense operator, 120 trials, "
                                 f"max gap {worst:.2e} <= 1e-10")


def test_criterion_2_non_local_vs_brute_force():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(110):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        block = NonLocalBlock(c, rng, zero_init_out=False)
        block.z.weight.data[:] = rng.uniform(-1, 1, block.z.weight.shape)
        block.z.bias.data[:] = rng.uniform(-1, 1, block.z.bias.shape)
        x = rng.uniform(-2, 2, (c, h, w))
        ctx = rng.uniform(-2, 2, (c, h, w))
        got = block(Tensor(x), Tensor(ctx)).data
        n = h * w

        def proj(layer, m):
            wgt = layer.weight.data.reshape(layer.weight.shape[0], layer.weight.shape[1])
            out = wgt @ m.reshape(-1, n)
            return out if layer.bias is None else out + layer.bias.data[:, None]

        q, k, v = proj(block.theta, x), proj(block.phi, ctx), proj(block.g, ctx)
        y = np.zeros_like(v)
        for i in range(n):
            logits = np.array([q[:, i] @ k[:, j] for j in range(n)])
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            for j in range(n):
                y[:, i] += weights[j] * v[:, j]
        zw = block.z.weight.data.reshape(c, block.inner)
        want = (zw @ y + block.z.bias.data[:, None]).reshape(c, h, w) + x
        worst = max(worst, float(np.max(np.abs(got - want))))
    report("2b", worst <= 1e-12, f"non-local vs O(n^2) loop, 110 trials, "
                                 f"max gap {worst:.2e} <= 1e-12")


def test_criterion_2_grid_sample_vs_bilinear():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(120):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        f = rng.uniform(-2, 2, (c, h, w))
        pts = np.stack([rng.uniform(-1, w, 8), rng.uniform(-1, h, 8)], axis=1)
        got = grid_sample(Tensor(f), Tensor(pts)).data
        for n, (x, y) in enumerate(pts):
            xc = min(max(x, 0.0), w - 1.0)
            yc = min(max(y, 0.0), h - 1.0)
            x0 = min(int(math.floor(xc)), w - 2)
            y0 = min(int(math.floor(yc)), h - 2)
            fx, fy = xc - x0, yc - y0
            want = ((1 - fx) * (1 - fy) * f[:, y0, x0] + fx * (1 - fy) * f[:, y0, x0 + 1]
                    + (1 - fx) * fy * f[:, y0 + 1, x0] + fx * fy * f[:, y0 + 1, x0 + 1])
            worst = max(worst, float(np.max(np.abs(got[n] - want))))
    report("2c", worst <= 1e-12, f"grid sample vs closed-form bilinear, 120 trials, "
                                 f"max gap {worst:.2e} <= 1e-12")


def test_criterion_2_lbs_vs_naive_loop():
    rng = np.random.default_rng(1005)
    rig = hm.make_default_rig(seed=5)
    worst = 0.0
    for _ in range(100):
        theta = rng.normal(0, 0.4, (16, 3))
        beta = rng.normal(0, 1, 10)
        with no_grad():
            got = hm.lbs(rig, Tensor(theta), Tensor(beta)).vertices.data
        shaped = rig.template + (rig.blendshapes.reshape(-1, 10) @ beta).reshape(-1, 3)
        world = [None] * 16
        for k in range(16):
            local = np.eye(4)
            local[:3, :3] = quat_matrix(theta[k])
            local[:3, 3] = rig.rest_joints[k] if k == 0 else rig.offsets[k]
            world[k] = local if k == 0 else world[rig.parents[k]] @ local
        rel = []
        for k in range(16):
            fix = np.eye(4)
            fix[:3, 3] = -rig.rest_joints[k]
            rel.append(world[k] @ fix)
        want = np.zeros_like(shaped)
        for i in range(shaped.shape[0]):
            hom = np.append(shaped[i], 1.0)
            for k in range(16):
                want[i] += rig.weights[i, k] * (rel[k] @ hom)[:3]
        worst = max(worst, float(np.max(np.abs(got - want))))
    report("2d", worst <= 1e-10, f"skinning vs naive per-vertex loop, 100 trials, "
                                 f"max gap {worst:.2e} <= 1e-10")


def test_criterion_2_rodrigues_vs_quaternion():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(150):
        aa = rng.uniform(-3, 3, 3)
        got = hm.rodrigues_batch(Tensor([aa])).data[0]
        worst = max(worst, float(np.linalg.norm(got - quat_matrix(aa))))
    report("2e", worst <= 1e-10, f"axis-angle vs quaternion oracle, 150 trials, "
                                 f"max Frobenius gap {worst:.2e} <= 1e-10")


def test_criterion_2_loss_vs_nine_term_sum():
    rng = np.random.default_rng(1007)
    cfg = PipelineConfig.toy(seed=9)
    net = BimanualHandNet(cfg)
    sample = tr.synth_dataset(cfg, net.rig, 1, seed=2)[0]
    with no_grad():
        out = net.forward(Tensor(sample.image))
    worst = 0.0
    pairs = [
        ("theta_l", out.theta.data[0], sample.gt_theta[0]),
        ("theta_r", out.theta.data[1], sample.gt_theta[1]),
        ("beta_l", out.beta.data[0], sample.gt_beta[0]),
        ("beta_r", out.beta.data[1], sample.gt_beta[1]),
        ("joint_l", out.joints_uvd.data[0], sample.gt_joints_uvd[0]),
        ("joint_r", out.joints_uvd.data[1], sample.gt_joints_uvd[1]),
        ("vert_l", out.vertices.data[0], sample.gt_vertices[0]),
        ("vert_r", out.vertices.data[1], sample.gt_vertices[1]),
        ("trel", out.t_rel.data, sample.gt_t_rel),
    ]
    for _ in range(100):
        lam = {name: float(rng.uniform(0, 2)) for name, _, _ in pairs}
        got = tr.loss(out, sample, tr.LossWeights(**lam)).item()
        want = 0.0
        for name, pred, target in pairs:
            flat_p = pred.reshape(-1)
            flat_t = np.asarray(target).reshape(-1)
            acc = 0.0
            for i in range(flat_p.size):
                acc += abs(flat_p[i] - flat_t[i])
            want += lam[name] * acc / flat_p.size
        worst = max(worst, abs(got - want))
    report("2f", worst <= 1e-12, f"composite loss vs explicit nine-term sum, "
                                 f"100 weightings, max gap {worst:.2e} <= 1e-12")


# -- criterion 3: structural identities -------------------------------------------

def test_criterion_3_zero_init_identities():
    rng = np.random.default_rng(1008)
    ok = True
    block = VmBlockLayer(10, rng=np.random.default_rng(0))
    x = Tensor(rng.uniform(-2, 2, (6, 10)))
    ok &= np.array_equal(block(x).data, x.data)

    cfg = PipelineConfig(image_h=16, image_w=16, backbone_channels=8, joints=5,
                        depth_bins=4, vertices=244, vm_ife_depth=1, jvm_depth=2,
                        state_dim=3, expand=2, conv_width=2, mlp_ratio=1, seed=4)
    refiner = JointSequenceRefiner(cfg, np.random.default_rng(1))
    a = Tensor(rng.uniform(-1, 1, (5, 2)))
    b = Tensor(rng.uniform(-1, 1, (5, 2)))
    ra, rb = refiner(stack([a, b]))
    ok &= np.array_equal(ra.data, a.data) and np.array_equal(rb.data, b.data)

    attn = NonLocalBlock(6, np.random.default_rng(2))  # z starts at zero
    xm = Tensor(rng.uniform(-1, 1, (6, 3, 3)))
    cm = Tensor(rng.uniform(-1, 1, (6, 3, 3)))
    ok &= np.array_equal(attn(xm, cm).data, xm.data)
    report("3a", ok, "zero-initialized sequence blocks, joint refiner, and "
                     "cross-attention are bitwise identities")


def test_criterion_3_soft_argmax_hull_10k():
    rng = np.random.default_rng(1009)
    positions = np.arange(9.0)
    ok = True
    for _ in range(10_000):
        logits = Tensor(rng.uniform(-60, 60, 9))
        v = float(pl_value(soft_argmax(logits, positions)))
        ok &= 0.0 <= v <= 8.0
    report("3b", ok, "soft-argmax output inside the coordinate hull for 1e4 draws")


def pl_value(t):
    return t.data.reshape(())


def test_criterion_3_rest_pose_reproduces_template():
    rig = hm.make_default_rig(seed=6)
    with no_grad():
        out = hm.lbs(rig, Tensor(np.zeros((16, 3))), Tensor(np.zeros(10)))
    gap = float(np.max(np.abs(out.vertices.data - rig.template)))
    report("3c", gap <= 1e-12, f"rest-pose skinning reproduces the template, "
                               f"max gap {gap:.2e} <= 1e-12")


# -- criterion 4: toy overfit run ---------------------------------------------------

OVERFIT_SEED = 0
OVERFIT_STEPS = 500


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    cfg = PipelineConfig.toy(seed=OVERFIT_SEED)
    assert (cfg.image_h, cfg.image_w, cfg.backbone_channels) == (64, 64, 64)
    assert (cfg.joints, cfg.vertices) == (21, 252)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 8, seed=OVERFIT_SEED)
    metrics0 = tr.evaluate(net, data)
    t0 = time.time()
    result = tr.train_loop(net, data, epochs=OVERFIT_STEPS, batch_size=8, lr=1e-3)
    elapsed = time.time() - t0
    metrics = tr.evaluate(net, data)
    out = tmp_path_factory.mktemp("overfit")
    net.save_checkpoint(out / "model.ckpt")
    tr.save_dataset(out / "dataset.bin", data)
    return dict(cfg=cfg, result=result, metrics0=metrics0, metrics=metrics,
                elapsed=elapsed, dir=out)


def test_criterion_4_overfit(overfit_run):
    r = overfit_run
    ratio = r["result"].final_loss / r["result"].initial_loss
    mp_ratio = r["metrics"]["mpjpe_all"] / r["metrics0"]["mpjpe_all"]
    ok = (ratio <= 0.10 and mp_ratio <= 0.30 and r["elapsed"] < 600.0
          and len(r["result"].trace) == OVERFIT_STEPS)
    report(4, ok, f"500-step overfit: loss ratio {ratio:.4f} <= 0.10, "
                  f"MPJPE ratio {mp_ratio:.4f} <= 0.30 "
                  f"({r['metrics']['mpjpe_all']:.2f}mm from "
                  f"{r['metrics0']['mpjpe_all']:.2f}mm), "
                  f"runtime {r['elapsed']:.0f}s < 600s")


def test_criterion_4_bitwise_reproducible_prefix():
    def prefix():
        cfg = PipelineConfig.toy(seed=OVERFIT_SEED)
        net = BimanualHandNet(cfg)
        data = tr.synth_dataset(cfg, net.rig, 8, seed=OVERFIT_SEED)
        res = tr.train_loop(net, data, epochs=25, batch_size=8, lr=1e-3)
        return res.trace, np.concatenate([t.data.reshape(-1) for _, t in net.params()])

    t1, p1 = prefix()
    t2, p2 = prefix()
    ok = t1 == t2 and np.array_equal(p1, p2)
    report("4b", ok, "training prefix is bitwise reproducible per seed "
                     "(traces and parameters identical); every later step is a "
                     "deterministic function of this state")


def test_criterion_4_eval_of_overfit_checkpoint(overfit_run):
    r = overfit_run
    cfg = r["cfg"]
    net = BimanualHandNet(cfg)
    net.load_checkpoint(r["dir"] / "model.ckpt")
    data = tr.load_dataset(r["dir"] / "dataset.bin", cfg)
    metrics = tr.evaluate(net, data)
    ok = metrics["mpjpe_all"] <= 0.30 * r["metrics0"]["mpjpe_all"]
    report("4c", ok, f"checkpoint evaluation on its own training set reproduces "
                     f"MPJPE {metrics['mpjpe_all']:.2f}mm below the 30% bar")


# -- criterion 5: scan cost scaling ---------------------------------------------------

def test_criterion_5_cost_scaling():
    ch, state = 4, 8
    seqs = [256, 512, 1024, 2048]
    scan = [ssm.scan_flops(s, ch, state) for s in seqs]
    dense = [dense_scan_flops(s, ch, state) for s in seqs]
    scan_ratios = [scan[i + 1] / scan[i] for i in range(3)]
    dense_ratios = [dense[i + 1] / dense[i] for i in range(3)]
    ok = all(1.9 <= r <= 2.1 for r in scan_ratios) \
        and all(3.8 <= r <= 4.2 for r in dense_ratios)
    report(5, ok, f"scan doubling ratios {['%.3f' % r for r in scan_ratios]} in "
                  f"[1.9, 2.1]; dense ratios {['%.3f' % r for r in dense_ratios]} "
                  f"in [3.8, 4.2] over 256->2048")


# -- criterion 6: informative full-scale accounting (non-gating) -----------------------

def test_criterion_6_informative_accounting():
    cfg = PipelineConfig.full()
    params, flops = tr.count_work(cfg)
    ref = tr.REFERENCE_FULL_SCALE
    dp = 100.0 * (params / 1e6 - ref["params_m"]) / ref["params_m"]
    df = 100.0 * (flops / 1e9 - ref["gflops"]) / ref["gflops"]
    report(6, True, f"full-scale profile counts {params / 1e6:.2f}M params / "
                    f"{flops / 1e9:.2f} GFLOPs vs published {ref['params_m']}M / "
                    f"{ref['gflops']} ({dp:+.1f}% / {df:+.1f}%; informative only, "
                    f"stack depths and widths are not published)")


# -- criterion 7: serialization -------------------------------------------------------

def test_criterion_7_serialization(tmp_path):
    cfg = PipelineConfig(image_h=16, image_w=16, backbone_channels=8, joints=5,
                        depth_bins=4, vertices=244, vm_ife_depth=1, jvm_depth=1,
                        state_dim=3, expand=2, conv_width=2, mlp_ratio=1, seed=8)
    net = BimanualHandNet(cfg)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    net.save_checkpoint(p1)
    net2 = BimanualHandNet(cfg)
    net2.load_checkpoint(p1)
    net2.save_checkpoint(p2)
    ckpt_ok = p1.read_bytes() == p2.read_bytes()

    rig = hm.make_default_rig(seed=3)
    rig_path = tmp_path / "rig.json"
    hm.save_rig_json(rig, rig_path)
    loaded = hm.load_rig_json(rig_path)  # revalidates every invariant
    rig_ok = (np.array_equal(loaded.template, rig.template)
              and np.array_equal(loaded.weights, rig.weights)
              and np.array_equal(loaded.blendshapes, rig.blendshapes)
              and np.array_equal(loaded.regressor, rig.regressor)
              and loaded.parents == rig.parents)
    report(7, ckpt_ok and rig_ok,
           "checkpoint save->load->save is byte-identical; rig JSON round-trips "
           "with invariant revalidation")
