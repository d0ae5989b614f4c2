import numpy as np
import numpy.testing as npt
import pytest

from bihand import ssm
from bihand.tensor import Tensor, no_grad
from bihand.gradcheck import fd_check
from scan_reference import dense_scan_flops, dense_scan_reference


def random_coeffs(rng, seq, ch, state):
    delta = Tensor(rng.uniform(0.01, 0.3, (seq, ch)))
    a = Tensor(-rng.uniform(0.5, 4.0, (ch, state)))
    b = Tensor(rng.uniform(-1, 1, (seq, state)))
    c = Tensor(rng.uniform(-1, 1, (seq, state)))
    d = Tensor(rng.uniform(-1, 1, ch))
    return ssm.ScanCoeffs(delta, a, b, c, d)


def unrolled_oracle(coeffs, x):
    """Direct evaluation of the unrolled recurrence, explicit python loops."""
    delta, a, b, c, d = (coeffs.delta.data, coeffs.a.data, coeffs.b.data,
                         coeffs.c.data, coeffs.d_skip.data)
    seq, ch = x.shape
    state = a.shape[1]
    y = np.zeros((seq, ch))
    for t in range(seq):
        for dd in range(ch):
            acc = d[dd] * x[t, dd]
            for s in range(state):
                h = 0.0
                for tau in range(t + 1):
                    contrib = delta[tau, dd] * b[tau, s] * x[tau, dd]
                    for r in range(tau + 1, t + 1):
                        contrib *= np.exp(delta[r, dd] * a[dd, s])
                    h += contrib
                acc += c[t, s] * h
            y[t, dd] = acc
    return y


def test_scan_zero_input_gives_zero():
    rng = np.random.default_rng(3)
    coeffs = random_coeffs(rng, 5, 3, 4)
    y = ssm.selective_scan(coeffs, Tensor(np.zeros((5, 3))))
    npt.assert_array_equal(y.data, np.zeros((5, 3)))


def test_scan_single_step_closed_form():
    rng = np.random.default_rng(5)
    coeffs = random_coeffs(rng, 1, 3, 4)
    x = Tensor(rng.uniform(-1, 1, (1, 3)))
    y = ssm.selective_scan(coeffs, x).data
    want = (coeffs.c.data[0] @ (coeffs.delta.data[0][:, None]
                                * coeffs.b.data[0][None, :] * x.data[0][:, None]).T
            + coeffs.d_skip.data * x.data[0])
    npt.assert_allclose(y[0], want, rtol=0, atol=1e-14)


def test_scan_matches_unrolled_loops():
    rng = np.random.default_rng(7)
    coeffs = random_coeffs(rng, 6, 2, 4)
    x = Tensor(rng.uniform(-1, 1, (6, 2)))
    got = ssm.selective_scan(coeffs, x).data
    assert np.max(np.abs(got - unrolled_oracle(coeffs, x.data))) <= 1e-10


def test_scan_matches_dense_reference_many_trials():
    rng = np.random.default_rng(11)
    for _ in range(100):
        seq = int(rng.integers(1, 9))
        ch = int(rng.integers(1, 4))
        state = int(rng.integers(1, 5))
        coeffs = random_coeffs(rng, seq, ch, state)
        x = rng.uniform(-1, 1, (seq, ch))
        got = ssm.selective_scan(coeffs, Tensor(x)).data
        want = dense_scan_reference(coeffs.delta.data, coeffs.a.data,
                                    coeffs.b.data, coeffs.c.data,
                                    coeffs.d_skip.data, x)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_scan_rejects_nonpositive_delta():
    rng = np.random.default_rng(13)
    coeffs = random_coeffs(rng, 4, 2, 3)
    coeffs.delta.data[2, 1] = 0.0
    with pytest.raises(RuntimeError, match="positive"):
        ssm.selective_scan(coeffs, Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("value", [np.nan, 0.0, -0.0, -0.05, -np.inf])
def test_scan_rejects_nan_zero_or_negative_delta(value):
    rng = np.random.default_rng(13)
    coeffs = random_coeffs(rng, 4, 2, 3)
    coeffs.delta.data[1, 0] = value
    with pytest.raises(RuntimeError, match="requires strictly positive delta"):
        ssm.selective_scan(coeffs, Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("value, later_nan, underflow", [
    (np.nan, False, False), (0.0, False, True), (0.0, True, False), (-0.05, False, False)])
def test_scan_guard_names_the_first_bad_delta(value, later_nan, underflow):
    rng = np.random.default_rng(13)
    coeffs = random_coeffs(rng, 4, 2, 3)
    coeffs.delta.data[1, 0] = value
    if later_nan:
        coeffs.delta.data[3, 1] = np.nan
    with pytest.raises(RuntimeError, match="requires strictly positive delta") as err:
        ssm.selective_scan(coeffs, Tensor(np.zeros((4, 2))))
    assert f"delta[1, 0] = {float(value)!r}" in str(err.value)
    assert ("softplus underflow" in str(err.value)) == underflow


def test_scan_linear_in_input_for_frozen_coeffs():
    rng = np.random.default_rng(17)
    coeffs = random_coeffs(rng, 8, 3, 4)
    x1 = Tensor(rng.uniform(-1, 1, (8, 3)))
    x2 = Tensor(rng.uniform(-1, 1, (8, 3)))
    alpha, beta = 0.7, -1.9
    lhs = ssm.selective_scan(coeffs, Tensor(alpha * x1.data + beta * x2.data)).data
    rhs = (alpha * ssm.selective_scan(coeffs, x1).data
           + beta * ssm.selective_scan(coeffs, x2).data)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_scan_causal_for_frozen_coeffs():
    rng = np.random.default_rng(19)
    coeffs = random_coeffs(rng, 10, 2, 3)
    x = rng.uniform(-1, 1, (10, 2))
    y_full = ssm.selective_scan(coeffs, Tensor(x)).data
    x_tail = x.copy()
    x_tail[6:] += rng.uniform(0.5, 2.0, (4, 2))
    y_tail = ssm.selective_scan(coeffs, Tensor(x_tail)).data
    npt.assert_array_equal(y_full[:6], y_tail[:6])
    assert np.max(np.abs(y_full[6:] - y_tail[6:])) > 0


def test_scan_stable_over_long_sequences():
    rng = np.random.default_rng(23)
    seq = 4096
    ch, state = 4, 8
    coeffs = random_coeffs(rng, seq, ch, state)
    x = Tensor(rng.uniform(-1, 1, (seq, ch)))
    with no_grad():
        y = ssm.selective_scan(coeffs, x)
    assert np.all(np.isfinite(y.data))


def test_scan_gradients_all_inputs():
    rng = np.random.default_rng(29)
    seq, ch, state = 5, 2, 3
    coeffs = random_coeffs(rng, seq, ch, state)
    x = Tensor(rng.uniform(-1, 1, (seq, ch)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (seq, ch)))
    leaves = [x, coeffs.delta, coeffs.a, coeffs.b, coeffs.c, coeffs.d_skip]
    err = fd_check(lambda: (ssm.selective_scan(coeffs, x) * probe).sum(), leaves)
    assert err <= 1e-6


def test_scan_flop_counters_scale_as_claimed():
    lin = ssm.scan_flops(2048, 4, 8) / ssm.scan_flops(1024, 4, 8)
    quad = dense_scan_flops(2048, 4, 8) / dense_scan_flops(1024, 4, 8)
    assert 1.9 <= lin <= 2.1
    assert 3.8 <= quad <= 4.2


def test_ssm_params_produce_stable_coefficients():
    rng = np.random.default_rng(51)
    params = ssm.SsmParams(6, 4, rng)
    u = Tensor(rng.uniform(-3, 3, (9, 6)))
    coeffs = params.coeffs(u)
    assert np.all(coeffs.a.data < 0.0)        # decay always strictly stable
    assert np.all(coeffs.delta.data > 0.0)    # softplus keeps steps positive
    y = ssm.selective_scan(coeffs, u)
    assert np.all(np.isfinite(y.data))


def test_vmblock_is_identity_at_init():
    rng = np.random.default_rng(31)
    block = ssm.VmBlockLayer(8, rng=np.random.default_rng(0))
    x = Tensor(rng.uniform(-2, 2, (5, 8)))
    assert np.array_equal(block(x).data, x.data)


def test_vmblock_seq_one():
    block = ssm.VmBlockLayer(6, rng=np.random.default_rng(1))
    out = block(Tensor(np.random.default_rng(2).uniform(-1, 1, (1, 6))))
    assert out.shape == (1, 6)


def test_vmblock_width_mismatch():
    block = ssm.VmBlockLayer(6, rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        block(Tensor(np.zeros((3, 5))))


def test_vmblock_gradients():
    rng = np.random.default_rng(37)
    block = ssm.VmBlockLayer(8, state_dim=4, conv_width=3,
                             rng=np.random.default_rng(4))
    # perturb the zero-initialized projections so every path carries signal
    block.out_proj.weight.data[:] = rng.normal(0, 0.2, block.out_proj.weight.shape)
    block.mlp.fc2.weight.data[:] = rng.normal(0, 0.2, block.mlp.fc2.weight.shape)
    x = Tensor(rng.uniform(-1, 1, (4, 8)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (4, 8)))
    leaves = [x] + [t for _, t in block.params()]
    err = fd_check(lambda: (block(x) * probe).sum(), leaves)
    assert err <= 1e-6


def test_sequence_roundtrip_one_pixel():
    f = Tensor(np.random.default_rng(41).uniform(-1, 1, (3, 1, 1)))
    seq = ssm.featuremap_to_sequence(f)
    back = ssm.sequence_to_featuremap(seq, 1, 1)
    assert np.array_equal(back.data, f.data)


def test_sequence_row_major_visit_order():
    f = Tensor(np.arange(4.0).reshape(1, 2, 2))  # values 0..3 laid out row-major
    seq = ssm.featuremap_to_sequence(f)
    npt.assert_array_equal(seq.data[:, 0], [0.0, 1.0, 2.0, 3.0])


def test_sequence_roundtrip_all_orders():
    rng = np.random.default_rng(43)
    for _ in range(10):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(1, 6))
        w = int(rng.integers(1, 6))
        f = Tensor(rng.uniform(-1, 1, (c, h, w)))
        back = ssm.sequence_to_featuremap(ssm.featuremap_to_sequence(f), h, w)
        assert np.array_equal(back.data, f.data)
