"""Command-line interface: verification, training, evaluation, accounting.

Exit codes: 0 success, 1 contract or tolerance failure, 2 bad invocation.
All file outputs are deterministic for a fixed seed.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import handmodel, train as tr
from .gradcheck import run_gradcheck
from .pipeline import BimanualHandNet, PipelineConfig, build_rig, load_config_json


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
    tr.save_dataset(out_dir / "dataset.bin", data)
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
    data = tr.load_dataset(args.data, cfg)
    metrics = tr.evaluate(net, data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    tr.save_dataset(path, data)
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


def cmd_count(args):
    ref = tr.REFERENCE_FULL_SCALE
    rows = [("toy", PipelineConfig.toy()), ("full", PipelineConfig.full())]
    if args.config:
        rows.insert(0, ("configured", _load_config(args)))
    for label, c in rows:
        params, flops = tr.count_work(c)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bihand",
        description="Two-hand reconstruction: verification, training, evaluation.")
    parser.add_argument("--config", default=None, help="pipeline config JSON")
    parser.add_argument("--seed", type=_non_negative_int, default=None, help="override config seed")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all ops")
    p.add_argument("--corrupt", default=None, choices=sorted(tr.FLOP_RULES), metavar="TAG",
                   help="negative control: corrupt the gradient rule of op TAG")
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
