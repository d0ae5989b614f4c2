"""The file container holds each record once: the traced peak of a save or
load against the records' data bytes, and a failed load that leaves the
target model as it was."""

import tracemalloc

import numpy as np
import pytest

from bihand import train as tr
from bihand.pipeline import BimanualHandNet, PipelineConfig, load_checkpoint


def traced_peak(fn):
    """Peak bytes ``fn()`` allocates under tracemalloc (numpy's data included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """A toy net 256 channels wide (8.6 MiB of parameters) and its checkpoint."""
    net = BimanualHandNet(PipelineConfig.toy(backbone_channels=256))
    path = tmp_path_factory.mktemp("wide") / "model.ckpt"
    net.save_checkpoint(path)
    return net, path, sum(t.data.nbytes for _, t in net.params())


def test_load_checkpoint_holds_one_copy_of_the_records(wide):
    _, path, data_bytes = wide
    peak = traced_peak(lambda: load_checkpoint(path))
    assert peak <= 1.1 * data_bytes, f"peak {peak / data_bytes:.2f}x the data"


def test_save_checkpoint_copies_no_record(wide, tmp_path):
    net, _, data_bytes = wide
    peak = traced_peak(lambda: net.save_checkpoint(tmp_path / "again.ckpt"))
    assert peak <= 0.05 * data_bytes, f"peak {peak / data_bytes:.2f}x the data"


def test_load_dataset_holds_one_copy_of_the_records(tmp_path):
    cfg = PipelineConfig.toy()
    samples = tr.synth_dataset(cfg, BimanualHandNet(cfg).rig, 8, seed=0)
    path = tmp_path / "dataset.bin"
    tr.save_dataset(path, samples)
    data_bytes = sum(getattr(s, name).nbytes for s in samples
                     for name in tr.TrainingSample.shapes(cfg))
    peak = traced_peak(lambda: tr.load_dataset(path, cfg))
    assert peak <= 1.1 * data_bytes, f"peak {peak / data_bytes:.2f}x the data"


def flipped_bit(path):
    BimanualHandNet(PipelineConfig.toy(seed=2)).save_checkpoint(path)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0x10  # the last float64's high byte, just before the 4-byte checksum
    path.write_bytes(bytes(blob))


def non_finite_record(path):
    net = BimanualHandNet(PipelineConfig.toy(seed=2))
    net.params()[-1][1].data.flat[-1] = np.nan
    net.save_checkpoint(path)


def other_registry(path):
    BimanualHandNet(PipelineConfig.toy(jvm_depth=1)).save_checkpoint(path)


@pytest.mark.parametrize("write, message", [
    (flipped_bit, "checkpoint checksum mismatch"),
    (non_finite_record, "holds a non-finite value"),
    (other_registry, "checkpoint mismatch at record 'regressor.theta_fc.weight'")],
    ids=["flipped bit", "non-finite record", "other registry"])
def test_a_failed_load_leaves_every_parameter_as_it_was(tmp_path, write, message):
    net = BimanualHandNet(PipelineConfig.toy(seed=1))
    before = [(t.data, t.data.tobytes()) for _, t in net.params()]
    path = tmp_path / "bad.ckpt"
    write(path)
    with pytest.raises(ValueError, match=message):
        net.load_checkpoint(path)
    for (name, t), (arr, raw) in zip(net.params(), before):
        assert t.data is arr and t.data.tobytes() == raw, name
