"""Command-line interface: verification, training, benchmarking, evaluation.

Exit codes: 0 success, 1 contract or tolerance failure, 2 bad invocation.
All file outputs are deterministic for a fixed seed.
"""

import argparse
import csv
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import handmodel, ssm, train as tr
from .gradcheck import fd_check
from .nn import (Conv2dLayer, LayerNormLayer, MlpLayer, NonLocalBlock,
                 grid_sample, linear, softmax)
from .pipeline import (BimanualHandNet, PipelineConfig, build_rig, check_records,
                       load_checkpoint, load_config_json, save_checkpoint, soft_argmax)
from .tensor import (Tensor, exp, mul, no_grad, reduce_mean, reduce_sum, reshape,
                     set_gradient_corruption, silu, softplus, sub)

OP_TOLERANCE = 1e-6
END_TO_END_TOLERANCE = 1e-5


# -- gradient-check registry -------------------------------------------------

GRADCHECK_REGISTRY = []  # (name, check, tol) in definition order


def _gradcheck(name, seed, tol=OP_TOLERANCE):
    """Register the decorated ``check(rng)`` as ``name``; every run of it
    gets a fresh ``default_rng(seed)``."""
    def register(check):
        GRADCHECK_REGISTRY.append((name, lambda: check(np.random.default_rng(seed)), tol))
        return check
    return register


def _probed(rng, fn, leaves, scale=1.0, **kw):
    """fd_check of sum(fn() * probe), the U(-1, 1) probe times ``scale`` drawn
    from ``rng`` after every input; ``rng`` then picks fd_check's coordinates."""
    with no_grad():
        shape = fn().shape
    probe = Tensor(rng.uniform(-1, 1, shape) * scale)
    return fd_check(lambda: (fn() * probe).sum(), leaves, rng=rng, **kw)


@_gradcheck("matmul", 11)
def _check_matmul(rng):
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    return _probed(rng, lambda: x @ w, [x, w])


@_gradcheck("linear", 73)
def _check_linear(rng):
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    v = Tensor(rng.uniform(-2, 2, 4), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
    return max(_probed(rng, lambda: linear(x, w, b), [x, w, b]),
               _probed(rng, lambda: linear(v, w, b), [v, w, b]))


@_gradcheck("elementwise", 13)
def _check_elementwise(rng):
    a = Tensor(rng.uniform(0.2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.2, 2, (3, 4)), requires_grad=True)

    def run():
        h = mul(silu(a), softplus(b))
        return sub(h, exp(a * 0.3)).sum()

    return fd_check(run, [a, b])


@_gradcheck("abs", 79)
def _check_abs(rng):
    # away from the kink at 0, where the central difference is not the slope
    x = Tensor(rng.uniform(0.1, 2, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
               requires_grad=True)
    return _probed(rng, lambda: abs(x), [x])


@_gradcheck("reduce", 17)
def _check_reduce(rng):
    x = Tensor(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, 3))

    def run():
        return (reduce_mean(x, 1) * w).sum() + reduce_sum(x).sum() * 0.1

    return fd_check(run, [x])


@_gradcheck("conv2d", 19)
def _check_conv2d(rng):
    layer = Conv2dLayer(2, 3, 3, stride=2, padding=1, rng=rng)
    x = Tensor(rng.uniform(-2, 2, (2, 5, 5)), requires_grad=True)
    return _probed(rng, lambda: layer(x), [x, layer.weight, layer.bias])


@_gradcheck("conv1d", 83)
def _check_conv1d(rng):
    x = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    return _probed(rng, lambda: ssm.depthwise_conv1d_causal(x, w, b), [x, w, b])


@_gradcheck("layernorm", 23)
def _check_layernorm(rng):
    layer = LayerNormLayer(6)
    x = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    trailing = _probed(rng, lambda: layer(x), [x, layer.gamma, layer.beta])

    # spatial norm of a [c,h,w] map, with a non-trivial channel affine
    norm = LayerNormLayer(3, axes=(1, 2))
    norm.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
    norm.beta.data[:] = rng.uniform(-1, 1, 3)
    fmap = Tensor(rng.uniform(-2, 2, (3, 4, 5)), requires_grad=True)
    spatial = _probed(rng, lambda: norm(fmap), [fmap, norm.gamma, norm.beta])
    return max(trailing, spatial)


@_gradcheck("softmax", 29)
def _check_softmax(rng):
    x = Tensor(rng.uniform(-3, 3, (3, 5)), requires_grad=True)
    return _probed(rng, lambda: softmax(x, axis=1), [x])


@_gradcheck("grid_sample", 31)
def _check_grid_sample(rng):
    f = Tensor(rng.uniform(-2, 2, (2, 5, 6)), requires_grad=True)
    pts = Tensor(np.stack([rng.uniform(0.3, 4.2, 5), rng.uniform(0.3, 3.2, 5)],
                          axis=1) + 0.13, requires_grad=True)
    return _probed(rng, lambda: grid_sample(f, pts), [f, pts])


@_gradcheck("non_local", 37)
def _check_non_local(rng):
    block = NonLocalBlock(3, rng, zero_init_out=False)
    block.z.weight.data[:] = rng.uniform(-0.5, 0.5, block.z.weight.shape)
    x = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
    ctx = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
    leaves = [x, ctx] + [t for _, t in block.params()]
    return _probed(rng, lambda: block(x, ctx), leaves)


@_gradcheck("mlp", 41)
def _check_mlp(rng):
    layer = MlpLayer(4, ratio=2, rng=rng)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    return _probed(rng, lambda: layer(x), [x] + [t for _, t in layer.params()])


@_gradcheck("selective_scan", 43)
def _check_selective_scan(rng):
    seq, ch, state = 5, 2, 3
    delta = Tensor(rng.uniform(0.02, 0.3, (seq, ch)), requires_grad=True)
    a = Tensor(-rng.uniform(0.5, 3.0, (ch, state)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (seq, state)), requires_grad=True)
    c = Tensor(rng.uniform(-1, 1, (seq, state)), requires_grad=True)
    d = Tensor(rng.uniform(-1, 1, ch), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (seq, ch)), requires_grad=True)
    return _probed(rng, lambda: ssm.selective_scan(ssm.ScanCoeffs(delta, a, b, c, d), x),
                   [x, delta, a, b, c, d])


@_gradcheck("vmblock", 47)
def _check_vmblock(rng):
    block = ssm.VmBlockLayer(6, state_dim=3, conv_width=3, rng=np.random.default_rng(2))
    block.out_proj.weight.data[:] = rng.normal(0, 0.2, block.out_proj.weight.shape)
    block.mlp.fc2.weight.data[:] = rng.normal(0, 0.2, block.mlp.fc2.weight.shape)
    x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    return _probed(rng, lambda: block(x), [x] + [t for _, t in block.params()],
                   max_coords_per_leaf=8)


@_gradcheck("soft_argmax", 53)
def _check_soft_argmax(rng):
    logits = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    return _probed(rng, lambda: soft_argmax(logits, np.linspace(0.0, 5.0, 6)), [logits])


@_gradcheck("rodrigues", 59)
def _check_rodrigues(rng):
    worst = 0.0
    probe = Tensor(rng.uniform(-1, 1, (3, 3)))  # one probe, drawn before the inputs
    for scale in (1.2, 1e-3, 5e-9):
        aa = Tensor(rng.uniform(-1, 1, 3) * scale, requires_grad=True)
        worst = max(worst, fd_check(
            lambda: (reshape(handmodel.rodrigues_batch(reshape(aa, (1, 3))), (3, 3))
                     * probe).sum(), [aa]))
    return worst


@_gradcheck("lbs", 61)
def _check_lbs(rng):
    rig = handmodel.make_default_rig(seed=0)
    theta = Tensor(rng.normal(0, 0.3, (16, 3)), requires_grad=True)
    beta = Tensor(rng.normal(0, 1, 10), requires_grad=True)
    return _probed(rng, lambda: handmodel.lbs(rig, theta, beta).vertices, [theta, beta],
                   scale=0.02, max_coords_per_leaf=16)


@_gradcheck("loss", 67)
def _check_loss(rng):
    cfg = PipelineConfig.toy(seed=1)
    net = BimanualHandNet(cfg)
    sample = tr.synth_dataset(cfg, net.rig, 1, seed=4)[0]
    out = net.forward(Tensor(sample.image))
    preds = {
        "theta_l": Tensor(rng.normal(0, 0.3, (16, 3)), requires_grad=True),
        "beta_l": Tensor(rng.normal(0, 1, 10), requires_grad=True),
        "t_rel": Tensor(rng.uniform(-20, 20, 3), requires_grad=True),
        "vertices_l": Tensor(rng.normal(0, 20, (cfg.vertices, 3)), requires_grad=True),
    }

    def run():
        for name, t in preds.items():
            setattr(out, name, t)
        return tr.loss(out, sample) * 0.05

    return fd_check(run, list(preds.values()), max_coords_per_leaf=12, rng=rng)


@_gradcheck("end_to_end", 71, tol=END_TO_END_TOLERANCE)
def _check_end_to_end(rng):
    net = BimanualHandNet(PipelineConfig.toy(seed=2))
    for _, t in net.params():
        if np.all(t.data == 0.0):
            t.data[:] = rng.normal(0, 0.1, t.data.shape)
    img = Tensor(rng.uniform(0, 1, (3, 64, 64)))
    scales = {"theta_l": 1.0, "theta_r": 1.0, "beta_l": 0.1, "beta_r": 0.1,
              "joints_uvd_l": 0.05, "joints_uvd_r": 0.05,
              "vertices_l": 0.005, "vertices_r": 0.005, "t_rel": 0.03}
    probes = {}

    def run():
        out = net.forward(img)
        if not probes:
            for name, s in scales.items():
                probes[name] = Tensor(rng.uniform(-1, 1, getattr(out, name).shape) * s)
        total = None
        for name, p in probes.items():
            term = (getattr(out, name) * p).mean()
            total = term if total is None else total + term
        return total

    leaves = [t for _, t in net.params()]
    return fd_check(run, leaves, max_coords_per_leaf=2, rng=rng)


def run_gradcheck(corrupt=None, stream=None):
    """Run every registered check once; returns (all_passed, report rows)."""
    stream = stream or sys.stdout
    if corrupt:
        set_gradient_corruption(corrupt)
    rows = []
    try:
        for name, check, tol in GRADCHECK_REGISTRY:
            err = check()
            ok = err <= tol
            rows.append((name, err, tol, ok))
            print(f"{name:16s} max_rel_err={err:.3e}  tol={tol:.0e}  "
                  f"{'ok' if ok else 'FAIL'}", file=stream)
    finally:
        set_gradient_corruption(None)
    return all(r[3] for r in rows), rows


# -- dataset container ----------------------------------------------------------

def save_dataset(path, samples):
    records = [("meta/count", Tensor(np.array(float(len(samples)))))]
    for i, s in enumerate(samples):
        for f in dataclasses.fields(s):
            records.append((f"s{i:05d}/{f.name}", Tensor(getattr(s, f.name))))
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
    shapes = tr.TrainingSample.shapes(config)
    expected = [("meta/count", ())] + [(f"s{i:05d}/{fname}", shape) for i in range(int(n))
                                       for fname, shape in shapes.items()]
    check_records(records, expected, "dataset")
    for key, data in records:
        if not np.all(np.isfinite(data)):
            raise ValueError(f"dataset record {key!r} holds a non-finite value")
    values = [data for _, data in records[1:]]
    return [tr.TrainingSample(**dict(zip(shapes, values[i:i + len(shapes)])))
            for i in range(0, len(values), len(shapes))]


# -- commands ---------------------------------------------------------------------

def _load_config(args):
    if args.config:
        cfg = load_config_json(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        return cfg
    return PipelineConfig.toy(seed=args.seed if args.seed is not None else 0)


def cmd_gradcheck(args):
    ok, _ = run_gradcheck(corrupt=args.corrupt)
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    print("gradient check passed")
    return 0


def cmd_train_toy(args):
    cfg = _load_config(args)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, args.samples, seed=cfg.seed)
    result = tr.train_loop(net, data, epochs=args.epochs, batch_size=args.batch_size,
                           lr=args.lr, schedule=args.schedule)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tr.write_trace_csv(out_dir / "loss_trace.csv", result.trace)
    net.save_checkpoint(out_dir / "model.ckpt")
    save_dataset(out_dir / "dataset.bin", data)
    metrics = tr.evaluate(net, data)
    tr.write_metrics_csv(out_dir / "metrics.csv", "train", metrics)
    ratio = result.final_loss / result.initial_loss
    print(f"steps={len(result.trace)} initial_loss={result.initial_loss:.4f} "
          f"final_loss={result.final_loss:.4f} ratio={ratio:.4f}")
    print(f"mpjpe_all={metrics['mpjpe_all']:.3f}mm mpvpe_all={metrics['mpvpe_all']:.3f}mm")
    return 0


def cmd_eval(args):
    cfg = _load_config(args)
    net = BimanualHandNet(cfg)
    net.load_checkpoint(args.checkpoint)
    data = load_dataset(args.data, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = tr.evaluate(net, data)
    tr.write_metrics_csv(out_dir / "metrics.csv", args.split, metrics)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(tr.METRICS_HEADER)
    writer.writerow([args.split] + [f"{metrics[k]:.6f}" for k in tr.METRICS_HEADER[1:]])
    return 0


def cmd_gen_data(args):
    cfg = _load_config(args)
    data = tr.synth_dataset(cfg, build_rig(cfg), args.samples, seed=cfg.seed, noise=args.noise)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "dataset.bin"
    save_dataset(path, data)
    print(f"wrote {len(data)} samples to {path}")
    return 0


def cmd_rig_export(args):
    rig = build_rig(_load_config(args))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "rig.json"
    handmodel.save_rig_json(rig, path)
    handmodel.load_rig_json(path)  # revalidate what we wrote
    print(f"wrote rig ({rig.num_vertices} vertices, {len(rig.faces)} faces) to {path}")
    return 0


def cmd_bench_scan(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ch, state = 4, 8
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    rows = []
    for seq in args.seq_lengths:
        delta = rng.uniform(0.02, 0.2, (seq, ch))
        a = -rng.uniform(0.5, 3.0, (ch, state))
        b = rng.uniform(-1, 1, (seq, state))
        c = rng.uniform(-1, 1, (seq, state))
        d = rng.uniform(-1, 1, ch)
        x = rng.uniform(-1, 1, (seq, ch))
        coeffs = ssm.ScanCoeffs(Tensor(delta), Tensor(a), Tensor(b), Tensor(c), Tensor(d))
        t0 = time.perf_counter()
        y_scan = ssm.selective_scan(coeffs, Tensor(x))
        scan_s = time.perf_counter() - t0
        if seq <= args.dense_cap:
            t0 = time.perf_counter()
            y_dense = ssm.dense_scan_reference(delta, a, b, c, d, x)
            dense_s = time.perf_counter() - t0
            gap = float(np.max(np.abs(y_scan.data - y_dense)))
        else:
            dense_s, gap = float("nan"), float("nan")
        rows.append((seq, ssm.scan_flops(seq, ch, state),
                     ssm.dense_scan_flops(seq, ch, state), scan_s, dense_s, gap))
    path = out_dir / "bench_scan.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("seq,scan_flops,dense_flops,scan_seconds,dense_seconds,max_abs_gap\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    for row in rows:
        print(f"seq={row[0]:6d} scan_flops={row[1]:>12d} dense_flops={row[2]:>14d} "
              f"scan={row[3]:.4f}s dense={row[4]:.4f}s")
    print(f"wrote {path}")
    return 0


def cmd_count(args):
    ref = tr.REFERENCE_FULL_SCALE
    rows = [("toy", PipelineConfig.toy()), ("full", PipelineConfig.full())]
    if args.config:
        rows.insert(0, ("configured", _load_config(args)))
    for label, c in rows:
        params, flops = tr.count_params(c), tr.count_flops(c)
        line = (f"{label:10s} params={params / 1e6:8.2f}M  "
                f"gflops={flops / 1e9:8.2f}")
        if label == "full":
            dp = 100.0 * (params / 1e6 - ref["params_m"]) / ref["params_m"]
            df = 100.0 * (flops / 1e9 - ref["gflops"]) / ref["gflops"]
            line += (f"  published_reference={ref['params_m']}M/{ref['gflops']}GF "
                     f"deviation={dp:+.1f}%/{df:+.1f}% (informative; stack depths "
                     f"and widths are not published)")
        print(line)
    return 0


def _checked(convert, ok, what):
    """argparse type: ``convert(text)``, refused unless ``ok`` holds for it."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_finite_non_negative = _checked(float, lambda v: np.isfinite(v) and v >= 0,
                                "a finite non-negative number")
_positive_int_list = _checked(lambda text: [int(s) for s in text.split(",") if s],
                              lambda v: v and min(v) >= 1,
                              "a comma-separated list of positive integers")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bihand",
        description="Two-hand reconstruction: verification, training, evaluation.")
    parser.add_argument("--config", default=None, help="pipeline config JSON")
    parser.add_argument("--seed", type=_non_negative_int, default=None, help="override config seed")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all ops")
    p.add_argument("--corrupt", default=None,
                   help="test hook: corrupt the gradient rule of one op tag")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="overfit the toy profile on synthetic data")
    p.add_argument("--epochs", type=_positive_int, default=500)
    p.add_argument("--lr", type=_finite_non_negative, default=1e-3)
    p.add_argument("--samples", type=_positive_int, default=8)
    p.add_argument("--batch-size", type=_positive_int, default=8)
    p.add_argument("--schedule", choices=("none", "step"), default="none")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gen-data", help="write a synthetic dataset of the configured rig")
    p.add_argument("--samples", type=_positive_int, default=8)
    p.add_argument("--noise", type=_finite_non_negative, default=0.0)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("rig-export", help="write the configured rig as JSON")
    p.set_defaults(fn=cmd_rig_export)

    p = sub.add_parser("bench-scan", help="scan vs dense-operator cost comparison")
    p.add_argument("--seq-lengths", type=_positive_int_list, default="256,512,1024,2048")
    p.add_argument("--dense-cap", type=int, default=2048,
                   help="skip dense timing above this length (memory)")
    p.set_defaults(fn=cmd_bench_scan)

    p = sub.add_parser("count", help="parameter and FLOP accounting")
    p.set_defaults(fn=cmd_count)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.config and not Path(args.config).exists():
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
