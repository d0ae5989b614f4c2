import csv
import io
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bihand import cli, gradcheck, handmodel, train as tr
from bihand.pipeline import (BimanualHandNet, PipelineConfig, load_checkpoint, save_checkpoint,
                             save_config_json)
from bihand.tensor import Tensor


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One short CLI training run shared by the eval tests."""
    out = tmp_path_factory.mktemp("trained")
    code = run(["--out", str(out), "--seed", "3", "train-toy",
                "--epochs", "12", "--samples", "4", "--batch-size", "4"])
    assert code == 0
    return out


GRADCHECK_NAMES = ["matmul", "linear", "elementwise", "abs", "reduce", "conv2d", "conv1d",
                   "layernorm", "softmax", "grid_sample", "non_local", "mlp",
                   "selective_scan", "vmblock", "soft_argmax", "rodrigues", "lbs", "loss",
                   "end_to_end"]


def test_gradcheck_reports_every_op_once(capsys):
    assert run(["gradcheck"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split()[0] for line in lines if "max_rel_err" in line]
    assert names == [name for name, _, _ in gradcheck.GRADCHECK_REGISTRY] == GRADCHECK_NAMES
    tols = {name: tol for name, _, tol in gradcheck.GRADCHECK_REGISTRY}
    assert tols == {name: 1e-5 if name == "end_to_end" else 1e-6 for name in GRADCHECK_NAMES}


def test_gradcheck_corrupted_rule_fails(capsys):
    assert run(["gradcheck", "--corrupt", "scan"]) == 1
    out = capsys.readouterr()
    assert "FAIL" in out.out


def test_gradcheck_unknown_corrupt_tag_exits_2_before_any_check(capsys):
    assert run(["gradcheck", "--corrupt", "matmull"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'matmull'" in captured.err


def test_train_toy_writes_artifacts(trained):
    for name in ("loss_trace.csv", "model.ckpt", "metrics.csv", "dataset.bin"):
        assert (trained / name).exists(), name
    header = (trained / "loss_trace.csv").read_text().splitlines()[0]
    assert header == "step,epoch,lr,total,theta_l,theta_r,beta_l,beta_r,joint_l,joint_r,vert_l,vert_r,trel"


def test_train_toy_deterministic_outputs(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["--out", str(out), "--seed", "7", "train-toy",
                    "--epochs", "4", "--samples", "2", "--batch-size", "2"]) == 0
        outs.append(out)
    assert (outs[0] / "loss_trace.csv").read_bytes() == (outs[1] / "loss_trace.csv").read_bytes()
    assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
    assert (outs[0] / "dataset.bin").read_bytes() == (outs[1] / "dataset.bin").read_bytes()


def test_train_toy_zero_lr_flat_trace(tmp_path):
    out = tmp_path / "flat"
    assert run(["--out", str(out), "--seed", "5", "train-toy",
                "--epochs", "5", "--samples", "2", "--batch-size", "2",
                "--lr", "0"]) == 0
    rows = (out / "loss_trace.csv").read_text().strip().splitlines()[1:]
    totals = {row.split(",")[3] for row in rows}
    assert len(totals) == 1


def test_eval_trained_checkpoint(trained, tmp_path, capsys):
    out = tmp_path / "eval"
    code = run(["--out", str(out), "--seed", "3", "eval",
                "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(trained / "dataset.bin")])
    assert code == 0
    got = capsys.readouterr().out
    assert "mpjpe_single" in got
    assert (out / "metrics.csv").exists()


def test_eval_stdout_row_quotes_split_like_metrics_csv(trained, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run(["--out", str(out), "--seed", "3", "eval", "--split", "x,y",
                "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(trained / "dataset.bin")]) == 0
    printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    written = list(csv.reader(io.StringIO((out / "metrics.csv").read_text())))
    assert [len(row) for row in printed] == [7, 7]
    assert printed[0] == written[0] == list(cli.tr.METRICS_HEADER)
    assert printed[1][0] == written[1][0] == "x,y"
    np.testing.assert_allclose([float(v) for v in printed[1][1:]],
                               [float(v) for v in written[1][1:]], rtol=0, atol=5e-7)


def test_eval_corrupted_magic(trained, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    blob = bytearray((trained / "model.ckpt").read_bytes())
    blob[:4] = b"XXXX"
    bad.write_bytes(bytes(blob))
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(bad), "--data", str(trained / "dataset.bin")])
    assert code == 1
    assert "magic" in capsys.readouterr().err


def test_eval_truncated_checkpoint_is_named_error(trained, tmp_path, capsys):
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((trained / "model.ckpt").read_bytes()[:10])
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(cut), "--data", str(trained / "dataset.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert "truncated in the header at byte 8" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def flipped_bit(blob):
    """``blob`` with one bit flipped in its last record's data."""
    bad = bytearray(blob)
    bad[-5] ^= 0x10  # the last float64's high byte, just before the 4-byte checksum
    return bytes(bad)


def as_version_1(blob):
    """``blob`` as a version-1 file: the same records, no checksum trailer."""
    return blob[:4] + struct.pack("<I", 1) + blob[8:-4]


@pytest.mark.parametrize("corrupt, message", [
    (flipped_bit, "checkpoint checksum mismatch: its bytes give CRC-32 0x"),
    (as_version_1, "unsupported checkpoint version 1")])
@pytest.mark.parametrize("name", ["model.ckpt", "dataset.bin"])
def test_eval_refuses_a_corrupt_or_version_1_file_by_name(trained, tmp_path, capsys, name,
                                                        corrupt, message):
    bad = tmp_path / name
    bad.write_bytes(corrupt((trained / name).read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(bad)
    files = {"model.ckpt": trained / "model.ckpt", "dataset.bin": trained / "dataset.bin",
             name: bad}
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(files["model.ckpt"]), "--data", str(files["dataset.bin"])])
    assert code == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {message}"), errors
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_gen_data_file_with_a_flipped_bit_is_a_checksum_error(tmp_path):
    out = tmp_path / "data"
    assert run(["--out", str(out), "--seed", "11", "gen-data", "--samples", "2"]) == 0
    bad = tmp_path / "flipped.bin"
    bad.write_bytes(flipped_bit((out / "dataset.bin").read_bytes()))
    for load in (load_checkpoint, lambda path: tr.load_dataset(path, PipelineConfig.toy(seed=11))):
        with pytest.raises(ValueError, match="checkpoint checksum mismatch"):
            load(bad)


def test_eval_mismatched_checkpoint_names_record(trained, tmp_path, capsys):
    cfg_path = tmp_path / "other.json"
    save_config_json(PipelineConfig.toy(vm_ife_depth=1), cfg_path)
    code = run(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "eval",
                "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(trained / "dataset.bin")])
    assert code == 1
    saved = [name for name, _ in load_checkpoint(trained / "model.ckpt")]
    own = [name for name, _ in BimanualHandNet(PipelineConfig.toy(vm_ife_depth=1)).params()]
    first = next(a for a, b in zip(saved, own) if a != b)
    err = capsys.readouterr().err
    assert f"checkpoint mismatch at record {first!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_eval_non_finite_checkpoint_is_named_error(trained, tmp_path, capsys, value):
    bad = tmp_path / "bad.ckpt"
    name = "backbone.stage0.conv.weight"
    weight = dict(load_checkpoint(trained / "model.ckpt"))[name].copy()
    weight[0, 0, 1, 1] = value
    write_dataset_with(trained / "model.ckpt", bad, name, weight)
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(bad), "--data", str(trained / "dataset.bin")])
    assert code == 1
    captured = capsys.readouterr()
    assert f"checkpoint record {name!r} holds a non-finite value" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_eval_non_finite_output_names_the_sample(trained, tmp_path, capsys):
    # a finite but huge weight loads, and the forward's outputs overflow to nan
    bad = tmp_path / "huge.ckpt"
    name = "interaction.initial_conv.weight"
    weight = dict(load_checkpoint(trained / "model.ckpt"))[name].copy()
    weight[0] = 1e300
    write_dataset_with(trained / "model.ckpt", bad, name, weight)
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(bad), "--data", str(trained / "dataset.bin")])
    assert code == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: sample 0 (s00000): the network's joints_mm holds a non-finite value"]
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_eval_empty_dataset_is_explicit_error(trained, tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    tr.save_dataset(empty, [])
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(trained / "model.ckpt"), "--data", str(empty)])
    assert code == 1
    assert "empty" in capsys.readouterr().err


def write_dataset_with(src, path, name, value):
    """Copy of the dataset (or checkpoint) ``src`` with record ``name``
    replaced by ``value``, or dropped when ``value`` is None."""
    records = load_checkpoint(src)
    save_checkpoint(path, [(n, Tensor(value if n == name else arr)) for n, arr in records
                           if n != name or value is not None])


def test_load_dataset_rejects_bad_records(trained, tmp_path):
    src = trained / "dataset.bin"
    vertices = dict(load_checkpoint(src))["s00001/gt_vertices"].copy()
    vertices[1, 3, 1] = np.nan
    cases = [("s00001/gt_vertices", vertices),
             ("s00000/image", np.full((3, 64, 64), np.inf)),
             ("s00000/gt_theta", np.zeros(3)), ("s00001/gt_beta", None)]
    path = tmp_path / "bad.bin"
    for name, value in cases:
        write_dataset_with(src, path, name, value)
        with pytest.raises(ValueError, match=name):
            tr.load_dataset(path, PipelineConfig.toy())


def test_eval_non_finite_dataset_is_named_error(trained, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    theta = np.array(dict(load_checkpoint(trained / "dataset.bin"))["s00002/gt_theta"])
    theta[1, 0, 0] = np.inf
    write_dataset_with(trained / "dataset.bin", bad, "s00002/gt_theta", theta)
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(trained / "model.ckpt"), "--data", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "'s00002/gt_theta' holds a non-finite value" in err
    assert "Traceback" not in err


def test_eval_wrong_shape_dataset_is_named_error(trained, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    write_dataset_with(trained / "dataset.bin", bad, "s00000/gt_theta", np.zeros(3))
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(trained / "model.ckpt"), "--data", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "dataset mismatch at record 's00000/gt_theta'" in err
    assert "Traceback" not in err


def test_eval_refuses_per_hand_dataset_layout_by_name(trained, tmp_path, capsys):
    # files written before the hand pair became one record held each hand's
    # ground truth in its own record; such a file is refused, not misread
    old = []
    for name, arr in load_checkpoint(trained / "dataset.bin"):
        if "/gt_" in name and not name.endswith("/gt_t_rel"):
            old += [(f"{name}_l", arr[0]), (f"{name}_r", arr[1])]
        else:
            old.append((name, arr))
    bad = tmp_path / "old.bin"
    save_checkpoint(bad, old)
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(trained / "model.ckpt"), "--data", str(bad)])
    assert code == 1
    captured = capsys.readouterr()
    assert ("dataset mismatch at record 's00000/gt_theta_l': expected 's00000/gt_theta'"
            in captured.err)
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_eval_refuses_the_counted_dataset_layout_by_name(trained, tmp_path, capsys):
    # files written before the records counted the samples led with a float
    # 'meta/count' record; such a file is refused, not misread
    records = load_checkpoint(trained / "dataset.bin")
    bad = tmp_path / "counted.bin"
    save_checkpoint(bad, [("meta/count", np.array(len(records) / 7))] + records)
    message = "dataset mismatch at record 'meta/count': expected 's00000/image'"
    with pytest.raises(ValueError, match=message):
        tr.load_dataset(bad, PipelineConfig.toy(seed=3))
    code = run(["--out", str(tmp_path / "o"), "--seed", "3", "eval",
                "--checkpoint", str(trained / "model.ckpt"), "--data", str(bad)])
    assert code == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {message}"], errors
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_config_with_malformed_rig_is_named_error(tmp_path, capsys):
    rig_path = tmp_path / "rig.json"
    handmodel.save_rig_json(handmodel.make_default_rig(seed=0), rig_path)
    doc = json.loads(rig_path.read_text())
    doc["template"][0][0] = float("nan")
    rig_path.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    save_config_json(PipelineConfig.toy(hand_model=str(rig_path)), cfg_path)
    for argv in (["train-toy", "--epochs", "1", "--samples", "1", "--batch-size", "1"],
                 ["gen-data", "--samples", "1"], ["rig-export"]):
        code = run(["--config", str(cfg_path), "--out", str(tmp_path / "o")] + argv)
        assert code == 1, argv
        err = capsys.readouterr().err
        assert "template holds a non-finite value" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists(), argv


def test_config_missing_rig_file_leaves_no_out(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    save_config_json(PipelineConfig.toy(hand_model=str(tmp_path / "missing.json")), cfg_path)
    code = run(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "train-toy",
                "--epochs", "1", "--samples", "1", "--batch-size", "1"])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", ["[]", "null", "123"])
def test_config_not_an_object_is_named_error(doc, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    assert run(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "rig-export"]) == 1
    err = capsys.readouterr().err
    assert "error: config file must hold a JSON object" in err
    assert "Traceback" not in err


def test_config_with_removed_key_is_named_error(tmp_path, capsys):
    # share_hand_heads was once a config field; a file that still holds it is refused
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"share_hand_heads": True}))
    assert run(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "rig-export"]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys: share_hand_heads" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_gen_data_roundtrip(tmp_path):
    out = tmp_path / "data"
    assert run(["--out", str(out), "--seed", "11", "gen-data", "--samples", "3"]) == 0
    samples = tr.load_dataset(out / "dataset.bin", PipelineConfig.toy(seed=11))
    assert len(samples) == 3
    assert samples[0].image.shape == (3, 64, 64)
    assert samples[0].gt_vertices.shape == (2, 252, 3)


def test_gen_data_deterministic(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["--out", str(out), "--seed", "13", "gen-data", "--samples", "2"]) == 0
        blobs.append((out / "dataset.bin").read_bytes())
    assert blobs[0] == blobs[1]


def test_gen_data_follows_configured_rig(tmp_path):
    rig_path = tmp_path / "rig.json"
    handmodel.save_rig_json(handmodel.make_default_rig(seed=0), rig_path)
    doc = json.loads(rig_path.read_text())
    doc["template"] = (np.array(doc["template"]) * 1.5).tolist()
    rig_path.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    save_config_json(PipelineConfig.toy(hand_model=str(rig_path)), cfg_path)
    assert run(["--out", str(tmp_path / "default"), "gen-data", "--samples", "1"]) == 0
    assert run(["--config", str(cfg_path), "--out", str(tmp_path / "scaled"),
                "gen-data", "--samples", "1"]) == 0
    default = dict(load_checkpoint(tmp_path / "default" / "dataset.bin"))
    scaled = dict(load_checkpoint(tmp_path / "scaled" / "dataset.bin"))
    assert not np.allclose(default["s00000/gt_vertices"], scaled["s00000/gt_vertices"])


def test_rig_export_validates(tmp_path):
    out = tmp_path / "rig"
    assert run(["--out", str(out), "--seed", "17", "rig-export"]) == 0
    from bihand.handmodel import load_rig_json
    rig = load_rig_json(out / "rig.json")
    assert rig.num_vertices == 252


def test_rig_export_follows_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config_json(PipelineConfig.toy(vertices=244), cfg_path)
    assert run(["--config", str(cfg_path), "--out", str(tmp_path / "rig"), "rig-export"]) == 0
    assert handmodel.load_rig_json(tmp_path / "rig" / "rig.json").num_vertices == 244


def test_count_reports_reference(capsys):
    assert run(["count"]) == 0
    out = capsys.readouterr().out
    assert "published_reference=36.99M/12.97GF" in out
    assert "toy" in out and "full" in out


def test_out_of_memory_is_named_exit_1(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 6.79 GiB")
    monkeypatch.setattr(cli, "cmd_count", exhausted)
    assert run(["count"]) == 1
    assert "error: out of memory: Unable to allocate 6.79 GiB" in capsys.readouterr().err


def test_unknown_command_exit_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_flag_exit_2(capsys):
    assert run(["eval", "--data", "x.bin"]) == 2


def test_missing_config_file_exit_2(capsys):
    assert run(["--config", "/nonexistent/cfg.json", "count"]) == 2


@pytest.mark.parametrize("argv", [
    ["train-toy", "--epochs", "0"],
    ["train-toy", "--batch-size", "0"],
    ["train-toy", "--samples", "-1"],
    ["train-toy", "--epochs", "two"],
    ["gen-data", "--samples", "0"],
    ["gen-data", "--noise", "-1"],
    ["gen-data", "--noise", "nan"],
    ["gen-data", "--noise", "inf"],
    ["train-toy", "--lr", "nan"],
    ["train-toy", "--lr", "inf"],
    ["train-toy", "--lr", "-1"],
    ["--seed", "-1", "train-toy"],
])
def test_non_positive_loop_bounds_exit_2(argv, tmp_path, capsys):
    assert run(["--out", str(tmp_path / "o")] + argv) == 2
    wants = {"--noise": "a finite non-negative number", "--lr": "a finite non-negative number",
             "--seed": "a non-negative integer"}
    want = next((w for flag, w in wants.items() if flag in argv), "a positive integer")
    assert f"must be {want}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_train_toy_divergence_leaves_no_out(tmp_path, capsys):
    code = run(["--out", str(tmp_path / "o"), "train-toy", "--epochs", "3", "--samples", "1",
                "--batch-size", "1", "--lr", "1e300"])
    assert code == 1
    assert "error: non-finite loss at step" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_benchmark_hooks_resolve():
    """The benchmark driver looks up package names no other test reaches.
    Only training reaches ``Adam.step``, ``loss_terms``, ``Tensor.backward``
    and the shapes ``conv2d_raw`` and ``selective_scan`` see under grad."""
    root = Path(__file__).resolve().parent.parent
    for workload in ("infer_toy", "train_toy"):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seconds", "1", "--trace", "1"],
                              cwd=root, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0
