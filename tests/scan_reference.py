"""The selective scan as a dense quadratic operator: a correctness oracle for
``ssm.selective_scan`` and the cost baseline its linear scaling is checked
against (criteria 2a and 5, ``tests/test_ssm.py``)."""

import numpy as np


def dense_scan_reference(delta, a, b, c, d_skip, x):
    """Materialize the scan as one lower-triangular matrix per channel.

    Same linear map as ``selective_scan`` built along a completely different
    route: cumulative log-decays, an explicit [seq, seq] kernel, then a
    matvec. Quadratic in sequence length; used as oracle and as the
    efficiency baseline. Inputs and output are plain numpy arrays.
    """
    seq, ch = x.shape
    y = np.empty_like(x)
    logdecay = np.cumsum(delta[:, :, None] * a[None, :, :], axis=0)  # [T, C, S]
    tril = np.tril(np.ones((seq, seq)))
    for d in range(ch):
        decay = np.exp(logdecay[:, None, d, :] - logdecay[None, :, d, :])  # [t, tau, S]
        kernel = np.einsum("ts,tus,us->tu", c, decay,
                           delta[:, d, None] * b)                   # [t, tau]
        kernel *= tril
        y[:, d] = kernel @ x[:, d] + d_skip[d] * x[:, d]
    return y


def dense_scan_flops(seq, channels, state):
    """Floating-point work of the dense materialized operator."""
    # per channel: decay exponentials (sub+exp), kernel contraction (3), mask,
    # matvec (2) -> seq^2 * (3*state + ...) dominated terms counted explicitly
    per_channel = (seq * seq * state * 2      # pairwise decay: subtract + exp
                   + seq * seq * state * 3    # kernel einsum: 2 mul + accumulate
                   + seq * seq               # triangular mask multiply
                   + 2 * seq * seq)          # kernel @ x
    return channels * (per_channel + 2 * seq * state + 2 * seq)
