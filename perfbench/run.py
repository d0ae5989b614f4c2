"""bihand benchmark: run named workloads, check their outputs, print metrics.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced. ``--trace 1``
measures half the time untraced and half traced, and prints the per-layer
metrics plus the tracing overhead between the two halves. ``--workload all``
runs every workload in turn in this one process. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Spans and the full result are written under ``.bench_out/``. See README.md
in this directory for every metric.
"""

import argparse
import os
import pathlib
import platform
import sys

NPROC = len(os.sched_getaffinity(0))
# one caller and at most one BLAS thread per processor; set before numpy loads
_blas = int(os.environ.get("OPENBLAS_NUM_THREADS", NPROC))
os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(_blas, NPROC)))

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

if not (ROOT / "src" / "bihand" / "__init__.py").is_file():
    print(f"error: bihand sources not found under {ROOT / 'src'}; "
          f"run the benchmark from a checkout of the repository", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from bihand.train import count_flops  # noqa: E402
from tracing import GRAPH_TAGS, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

STAGES = ("backbone", "interaction", "extractor", "refiner", "regressor", "rig")
OPS = ("conv2d", "scan", "nonlocal", "grid_sample", "soft_argmax", "fk")

END_TO_END_UNITS = {"setup_s": "s", "samples_per_s": "1/s", "latency_ms_p50": "ms",
                    "latency_ms_tail": "ms", "peak_rss_mb": "MB"}


def blas_threads():
    """Threads OpenBLAS reports, or the requested count if it cannot be asked."""
    libdir = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(workload, seed):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"workload": workload, "seed": seed, "nproc": NPROC,
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, state, checks, seconds):
    """Closed loop of units until ``seconds`` have passed (and ``min_units`` ran)."""
    samples, latencies, units = 0, [], 0
    start = time.perf_counter()
    while units < wl.min_units or time.perf_counter() - start < seconds:
        n, lat = wl.run(state, checks)
        if not lat:   # a failed unit; repeating it would fail the same way
            break
        samples += n
        latencies += lat
        units += 1
    wall = time.perf_counter() - start
    return {"samples": samples, "wall_s": wall, "latencies": latencies,
            "samples_per_s": samples / wall}


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(wl, setup_times, m):
    lat = m["latencies"]
    return {"setup_s": statistics.median(setup_times),
            "samples_per_s": m["samples_per_s"],
            "latency_ms_p50": 1000.0 * wl.latency_p50(lat),
            "latency_ms_tail": 1000.0 * percentile(lat, wl.tail),
            "peak_rss_mb": peak_rss_mb()}


def per_layer(wl, state, tracer, base, traced):
    """Per-layer metrics of the traced half, with their units."""
    s = tracer.summary()

    def row(name):
        return s.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    forwards = max(row("forward")["calls"], 1)
    steps = row("adam")["calls"] if wl.kind == "train" else forwards
    steps = max(steps, 1)
    grad_samples = row("backward")["calls"] * wl.batch
    out = {}
    for name in STAGES:
        out[f"{name}.fwd_ms"] = (1000.0 * row(name)["self_s"] / forwards, "ms")
        out[f"{name}.incl_ms"] = (1000.0 * row(name)["incl_s"] / forwards, "ms")
    for name in OPS:
        out[f"{name}.fwd_ms"] = (1000.0 * row(name)["self_s"] / forwards, "ms")
    out["conv2d.calls"] = (row("conv2d")["calls"] / forwards, "count")
    out["conv2d.gflop"] = (tracer.flops["conv2d"] / forwards / 1e9, "GFLOP")
    out["scan.calls"] = (row("scan")["calls"] / forwards, "count")
    out["scan.mflop"] = (tracer.flops["scan"] / forwards / 1e6, "MFLOP")
    out["forward.ms"] = (1000.0 * row("forward")["incl_s"] / forwards, "ms")
    out["backward_ms"] = (1000.0 * row("backward")["incl_s"] / steps, "ms")
    per_sample = 1.0 / grad_samples if grad_samples else 0.0
    out["graph.nodes"] = (sum(tracer.nodes.values()) * per_sample, "count")
    for tag in GRAPH_TAGS + ("leaf",):
        out[f"graph.nodes.{tag}"] = (tracer.nodes[tag] * per_sample, "count")
    out["gc.ms"] = (1000.0 * tracer.gc_seconds / steps, "ms")
    out["gc.collections"] = (tracer.gc_collections / steps, "count")
    out["loss.ms"] = (1000.0 * row("loss")["incl_s"] / steps, "ms")
    out["adam.ms"] = (1000.0 * row("adam")["incl_s"] / steps, "ms")
    out["synth.ms"] = (1000.0 * state.synth_s, "ms")
    evals = state.eval_s
    out["evaluate.ms"] = (1000.0 * statistics.median(evals) if evals else 0.0, "ms")
    out["ckpt_save.ms"] = (1000.0 * state.ckpt_save_s, "ms")
    out["ckpt_load.ms"] = (1000.0 * state.ckpt_load_s, "ms")
    out["ckpt.bytes"] = (state.ckpt_bytes, "bytes")
    analytic = count_flops(state.config) / 1e9
    out["flops.analytic"] = (analytic, "GFLOP")
    fwd_s = row("forward")["incl_s"] / forwards
    out["gflops_achieved"] = (analytic / fwd_s if fwd_s else 0.0, "GFLOP/s")
    out["trace.overhead_frac"] = (base["samples_per_s"] / traced["samples_per_s"] - 1.0,
                                  "ratio")
    return out


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    checks = Checks()

    setup_times = []
    state = None
    for _ in range(wl.setup_repeats):
        state = None
        gc.collect()   # drop the previous repeat's model before timing the next
        t0 = time.perf_counter()
        state = wl.setup(seed, str(OUT_DIR))
        setup_times.append(time.perf_counter() - t0)
    wl.warmup(state)

    tracer = None
    if trace:
        base = measure(wl, state, checks, seconds / 2.0)
        with Tracer() as tracer:
            m = measure(wl, state, checks, seconds / 2.0)
        metrics = per_layer(wl, state, tracer, base, m)
    else:
        m = measure(wl, state, checks, seconds)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in
                   end_to_end(wl, setup_times, m).items()}
    wl.final_checks(state, checks)

    report = {"samples": m["samples"], "measured_s": m["wall_s"],
              "latency_samples": len(m["latencies"]), "tail_percentile": wl.tail,
              "latency_ms_p50_calls": 1000.0 * statistics.median(m["latencies"]),
              "failed_frac": len(checks.failed) / max(checks.attempted, 1),
              "failed_checks": sorted(set(checks.failed)), **wl.report(state)}
    if len(m["latencies"]) >= 1000:   # ten samples beyond the 99th percentile
        report["latency_ms_p99"] = 1000.0 * percentile(m["latencies"], 99)
    env = environment(name, seed)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "report": report, "setup_s_each": setup_times,
                   "latencies_s": m["latencies"],
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=1)
    if tracer is not None:
        tracer.write_spans(f"{stem}-spans.json")

    print(f"# {name}: {wl.why}")
    print(f"# env {json.dumps(env)}")
    for k, (v, u) in metrics.items():
        print(f"{name:13s} {k:24s} {v:14.6g} {u}")
    for k, v in report.items():
        print(f"{name:13s} {k:24s} {v}")
    return checks, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        checks, wl_metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += checks.attempted
        failed += len(checks.failed)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in wl_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
