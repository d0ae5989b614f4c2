"""The benchmark's workloads: closed loops with one caller in one process.

Each workload builds its model and inputs from the seed in ``setup``, runs
one timed unit of work per ``run`` call, and checks every output it makes.
A unit is a round of training steps or a pass over a pool of inference
inputs, so each unit yields several latency samples.
"""

import math
import os
import statistics
import time

import numpy as np

from bihand import handmodel, train
from bihand.pipeline import BETA_DIM, THETA_SHAPE, BimanualHandNet, PipelineConfig
from bihand.tensor import Tensor, no_grad

clock = time.perf_counter


class Checks:
    """Output checks: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)


class StepClock:
    """Timestamps the end of every optimizer step, for per-step latency.

    One clock read per step; this is not tracing and stays on in every run.
    """

    def __enter__(self):
        self.ends = []
        self._step = train.Adam.__dict__["step"]
        step, ends = self._step, self.ends

        def timed_step(opt):
            step(opt)
            ends.append(clock())

        train.Adam.step = timed_step
        return self

    def __exit__(self, *exc):
        train.Adam.step = self._step
        return False


def _finite(*arrays):
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _output_arrays(out):
    return [out.theta_l.data, out.theta_r.data, out.beta_l.data, out.beta_r.data,
            out.joints_uvd_l.data, out.joints_uvd_r.data, out.joints_mm_l.data,
            out.joints_mm_r.data, out.vertices_l.data, out.vertices_r.data,
            out.t_rel.data]


class State:
    """What one setup produced, plus counters the runs add to."""

    def __init__(self, config, net, data):
        self.config = config
        self.net = net
        self.data = data
        self.synth_s = 0.0
        self.ckpt_save_s = 0.0
        self.ckpt_load_s = 0.0
        self.ckpt_bytes = 0
        self.eval_s = []
        self.loss_ratios = []


class TrainWorkload:
    """``train.train_loop`` rounds of a fixed step count from one snapshot.

    Every round restores the initial parameters, trains ``round_steps`` steps
    and evaluates the training set, so every round repeats the same
    computation and its loss trace must match the first round's bit for bit.
    """

    kind = "train"
    setup_repeats = 9

    def __init__(self, name, why, tail, overrides, samples, batch, round_steps=10, lr=1e-3):
        self.name = name
        self.why = why
        self.tail = tail
        self.overrides = overrides
        self.samples = samples
        self.batch = batch
        self.round_steps = round_steps
        self.lr = lr
        self.min_units = 2   # the second round is the determinism check

    def setup(self, seed, workdir):
        config = PipelineConfig.toy(seed=seed, **self.overrides)
        net = BimanualHandNet(config)
        t0 = clock()
        data = train.synth_dataset(config, net.rig, self.samples, seed=seed + 1)
        state = State(config, net, data)
        state.synth_s = clock() - t0
        state.snapshot = [p.data.copy() for _, p in net.params()]
        state.reference_trace = None
        return state

    def _restore(self, state):
        for (_, p), saved in zip(state.net.params(), state.snapshot):
            p.data = saved.copy()

    def warmup(self, state):
        train.train_loop(state.net, state.data, epochs=1, batch_size=self.batch, lr=self.lr)
        self._restore(state)

    def run(self, state, checks):
        """One round; returns (training samples, per-step latencies in s)."""
        self._restore(state)
        with StepClock() as steps:
            start = clock()
            try:
                result = train.train_loop(state.net, state.data, epochs=self.round_steps,
                                          batch_size=self.batch, lr=self.lr)
            except RuntimeError:
                checks.check("training loss finite", False)
                return 0, []
        t0 = clock()
        metrics = train.evaluate(state.net, state.data)
        state.eval_s.append(clock() - t0)

        for row in result.trace:
            checks.check("training loss finite", _finite(np.array(row[3:], dtype=float)))
        # a split with no samples reads nan by design; the totals must not
        checks.check("evaluation finite", _finite(np.array([metrics["mpjpe_all"],
                                                           metrics["mpvpe_all"]])))
        if state.reference_trace is None:
            state.reference_trace = result.trace
        else:
            checks.check("same seed, same loss trace", result.trace == state.reference_trace)
        state.loss_ratios.append(result.final_loss / result.initial_loss)

        ends = [start] + steps.ends
        steps_per_round = len(steps.ends)
        return steps_per_round * self.batch, [b - a for a, b in zip(ends, ends[1:])]

    def latency_p50(self, latencies):
        """Median step latency. Steps are not repeated often enough in a run
        for a per-step best, and their GC pauses belong in the result."""
        return statistics.median(latencies)

    def final_checks(self, state, checks):
        pass

    def report(self, state):
        return {"loss_ratio": state.loss_ratios[0] if state.loss_ratios else math.nan,
                "round_steps": self.round_steps}


class InferWorkload:
    """``BimanualHandNet.forward`` under ``no_grad``, one sample per call,
    cycling over a pool of distinct generated samples."""

    kind = "infer"
    batch = 1
    min_units = 1

    def __init__(self, name, why, tail, profile, pool, setup_repeats,
                 best_per_input=False, checkpoint=False, grad_check=False):
        self.name = name
        self.why = why
        self.tail = tail
        self.profile = profile
        self.pool = pool
        self.setup_repeats = setup_repeats
        self.best_per_input = best_per_input
        self.checkpoint = checkpoint
        self.grad_check = grad_check

    def setup(self, seed, workdir):
        config = self.profile(seed=seed)
        net = BimanualHandNet(config)
        t0 = clock()
        data = train.synth_dataset(config, net.rig, self.pool, seed=seed + 1)
        state = State(config, net, data)
        state.synth_s = clock() - t0
        state.images = [Tensor(s.image) for s in data]
        if self.checkpoint:
            self._checkpoint_round_trip(state, seed, workdir)
        return state

    def _checkpoint_round_trip(self, state, seed, workdir):
        """Save the model, then serve from a fresh model loaded from the file."""
        path = os.path.join(workdir, f"{self.name}-{seed}.ckpt")
        t0 = clock()
        state.net.save_checkpoint(path)
        t1 = clock()
        served = BimanualHandNet(state.config)
        t2 = clock()
        served.load_checkpoint(path)
        t3 = clock()
        state.ckpt_save_s = t1 - t0
        state.ckpt_load_s = t3 - t2
        state.ckpt_bytes = os.path.getsize(path)
        os.remove(path)
        state.saved_params = [p.data for _, p in state.net.params()]
        state.net = served

    def warmup(self, state):
        with no_grad():
            state.net.forward(state.images[0])

    def _check_output(self, state, out, checks):
        arrays = _output_arrays(out)
        checks.check("inference outputs finite", _finite(*arrays))
        regressor = state.net.rig.regressor
        checks.check("joints_mm == regressor @ vertices",
                     np.array_equal(out.joints_mm_l.data, regressor @ out.vertices_l.data)
                     and np.array_equal(out.joints_mm_r.data, regressor @ out.vertices_r.data))
        cfg = state.config
        j, v, k = cfg.joints, cfg.vertices, handmodel.NUM_EVAL_JOINTS
        shapes = [THETA_SHAPE, THETA_SHAPE, (BETA_DIM,), (BETA_DIM,), (j, 3), (j, 3),
                  (k, 3), (k, 3), (v, 3), (v, 3), (3,)]
        fmap = (cfg.hand_channels, cfg.map_h, cfg.map_w)
        checks.check("documented output shapes",
                     [a.shape for a in arrays] == shapes
                     and out.aux.f_l.shape == fmap and out.aux.starred_r.shape == fmap
                     and out.aux.heatmap_l.spatial_logits.shape == (j, cfg.map_h, cfg.map_w)
                     and out.aux.heatmap_l.depth_logits.shape == (j, cfg.depth_bins))

    def run(self, state, checks):
        """One pass over the pool; returns (samples, per-call latencies in s)."""
        latencies = []
        for image in state.images:
            t0 = clock()
            with no_grad():
                out = state.net.forward(image)
            latencies.append(clock() - t0)
            self._check_output(state, out, checks)
        return len(latencies), latencies

    def latency_p50(self, latencies):
        """Median call latency, or with ``best_per_input`` the median over
        the pool's inputs of each input's fastest call.

        Every pass calls the inputs in pool order, so input ``i`` owns every
        ``pool``-th latency. Contention from other tenants of a shared host
        only adds delay, and its share drifts over seconds. On short calls
        that moves a plain median between runs by more than any bound a
        change could be held to, while an input's best of its ~100 calls is
        its latency without that contention. Long calls get too few repeats
        for a steady best, and their plain median is steady.
        """
        if not self.best_per_input:
            return statistics.median(latencies)
        return statistics.median(min(latencies[i::self.pool]) for i in range(self.pool))

    def final_checks(self, state, checks):
        if self.checkpoint:
            checks.check("checkpoint round trip",
                         all(np.array_equal(a, p.data) for a, (_, p)
                             in zip(state.saved_params, state.net.params())))
        if self.grad_check:
            image = state.images[0]
            with no_grad():
                plain = _output_arrays(state.net.forward(image))
            graded = _output_arrays(state.net.forward(image))
            checks.check("no_grad forward equals grad-mode forward",
                         all(np.allclose(a, b, rtol=1e-12, atol=1e-12)
                             for a, b in zip(plain, graded)))

    def report(self, state):
        return {}


WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        "train_toy",
        "toy train step at batch 8 on 8 samples, the overfit fixture's shape: "
        "interpreter- and graph-bound",
        tail=80, overrides={}, samples=8, batch=8),
    InferWorkload(
        "infer_toy",
        "toy single-sample forward under no_grad: same stages, no graph, "
        "no backward",
        tail=90, profile=PipelineConfig.toy, pool=8, setup_repeats=9,
        best_per_input=True, checkpoint=True, grad_check=True),
    InferWorkload(
        "infer_full",
        "full-profile forward (256x256, C=2048) under no_grad: BLAS- and "
        "memory-bound",
        tail=75, profile=PipelineConfig.full, pool=2, setup_repeats=3),
    TrainWorkload(
        "train_seq256",
        "toy widths at 128x128, batch 4: 256-step scans and a 256x256 "
        "attention matrix",
        tail=80, overrides={"image_h": 128, "image_w": 128}, samples=4, batch=4),
)}
