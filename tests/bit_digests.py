"""sha256 digests of the model's bits, the table ``test_bit_digests.py`` checks.

The table covers every no_grad output and ``aux`` field of woken toy and
128x128 nets, ``batch_loss``'s loss, terms and parameter gradients, the
first rows of a toy ``train_loop`` trace, and the bytes of a saved toy
checkpoint and dataset. The bits belong to one numpy and BLAS build, which
the table records beside the digests.

A change that moves bits on purpose rewrites the table:

    PYTHONPATH=src python tests/bit_digests.py

and names each digest that moved, and why, in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from bihand import train as tr
from bihand.pipeline import BimanualHandNet, PipelineConfig
from bihand.tensor import Tensor, no_grad

TABLE = Path(__file__).with_name("bit_digests.json")
SEEDS = (0, 1, 2)
SIZES = {"toy": {}, "128x128": {"image_h": 128, "image_w": 128}}
LOSS_BATCHES = (1, 3, 8)
TRACE_ROWS = 20


def build():
    """The numpy version and the BLAS name and version these bits come from."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        return {"numpy": np.__version__, "blas": "unknown"}
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def sha(arr):
    """Digest of an array's shape and float64 little-endian bytes."""
    arr = np.asarray(arr, dtype="<f8", order="C")
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def woken_net(config):
    """A net whose all-zero parameters are drawn, so every stage carries signal."""
    net = BimanualHandNet(config)
    rng = np.random.default_rng(config.seed)
    for _, t in net.params():
        if np.all(t.data == 0.0):
            t.data[:] = rng.normal(0, 0.1, t.data.shape)
    return net


def fields_of(obj, prefix=""):
    """(dotted name, array) for every Tensor field of a dataclass, nested ones too."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, Tensor):
            yield prefix + f.name, value.data
        else:
            yield from fields_of(value, f"{prefix}{f.name}.")


def file_digest(write):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def digests():
    """Every digest of the table, keyed by what it covers."""
    out = {}
    for size, overrides in SIZES.items():
        for seed in SEEDS:
            net = woken_net(PipelineConfig.toy(seed=seed, **overrides))
            cfg = net.config
            images = np.random.default_rng(100 + seed).normal(
                size=(4, 3, cfg.image_h, cfg.image_w))
            for img in (images[0], images):
                with no_grad():
                    result = net.forward(Tensor(img))
                for name, arr in fields_of(result):
                    out[f"forward {size} seed={seed} input={list(img.shape)} {name}"] = sha(arr)

    net = woken_net(PipelineConfig.toy(seed=0))
    samples = tr.synth_dataset(net.config, net.rig, max(LOSS_BATCHES), seed=7)
    for b in LOSS_BATCHES:
        for _, t in net.params():
            t.grad = None
        total, terms = tr.batch_loss(net, samples[:b])
        total.backward()
        out[f"batch_loss toy seed=0 B={b} loss"] = sha(total.data)
        out[f"batch_loss toy seed=0 B={b} terms"] = sha(terms.data)
        for name, t in net.params():
            out[f"batch_loss toy seed=0 B={b} grad {name}"] = sha(t.grad)

    cfg = PipelineConfig.toy(seed=0)
    net = BimanualHandNet(cfg)
    data = tr.synth_dataset(cfg, net.rig, 4, seed=3)
    trace = tr.train_loop(net, data, epochs=TRACE_ROWS // 2, batch_size=2, lr=1e-3).trace
    for row in trace[:TRACE_ROWS]:
        out[f"train_loop toy seed=0 B=2 trace row {row[0]}"] = sha(row)

    out["checkpoint toy seed=0 file bytes"] = file_digest(
        BimanualHandNet(cfg).save_checkpoint)
    out["dataset toy 3 samples seed=3 file bytes"] = file_digest(
        lambda path: tr.save_dataset(path, data[:3]))
    return out


def main():
    TABLE.write_text(json.dumps({"build": build(), "digests": digests()}, indent=1) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    main()
