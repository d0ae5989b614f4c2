"""Central finite-difference verification of recorded gradient rules.

``fd_check`` rebuilds a scalar-valued computation while nudging one input
coordinate at a time by ±eps and compares the resulting slope against the
gradient accumulated by ``backward()``. Everything runs in float64, where
central differences are good to roughly 1e-10 relative, so the default
pass tolerance of 1e-6 has real margin.
"""

import numpy as np

from .tensor import no_grad, reset_grads

DEFAULT_EPS = 1e-6
DEFAULT_RTOL = 1e-6
DEFAULT_FLOOR = 1e-9


def rel_error(analytic, numeric, rtol=DEFAULT_RTOL, floor=DEFAULT_FLOOR):
    """Worst relative disagreement, with an absolute floor for tiny entries.

    Defined so that ``rel_error(...) <= rtol`` holds exactly when every entry
    satisfies |a - n| <= max(rtol * max(|a|,|n|), floor).
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor / rtol)
    return float(np.max(np.abs(analytic - numeric) / scale)) if analytic.size else 0.0


def numeric_grad(fn, leaf, eps=DEFAULT_EPS, coords=None):
    """d fn() / d leaf by central differences, perturbing ``leaf.data`` in place.

    ``coords`` optionally restricts the check to a subset of flat indices
    (used for large parameter tensors where a full sweep is wasteful).
    """
    flat = leaf.data.reshape(-1)
    coords = list(range(flat.size)) if coords is None else list(coords)
    grad = np.zeros(len(coords))
    with no_grad():
        for k, i in enumerate(coords):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn().item()
            flat[i] = orig - eps
            f_minus = fn().item()
            flat[i] = orig
            grad[k] = (f_plus - f_minus) / (2.0 * eps)
    return grad, coords


def fd_check(fn, leaves, eps=DEFAULT_EPS, rtol=DEFAULT_RTOL, floor=DEFAULT_FLOOR,
             max_coords_per_leaf=None, rng=None):
    """Compare analytic and numeric gradients of ``fn`` w.r.t. ``leaves``.

    ``fn`` must rebuild the graph on every call and return a scalar Tensor.
    Returns the worst relative error across all checked coordinates; a leaf
    that ``fn`` gives no gradient is a ValueError, not a check of zeros.
    """
    for leaf in leaves:
        leaf.zero_grad()
        leaf.requires_grad = True
    out = fn()
    out.backward()
    for index, leaf in enumerate(leaves):
        if leaf.grad is None:
            raise ValueError(f"leaf {index} of shape {leaf.shape} gets no gradient from fn")
    analytic = [leaf.grad.copy() for leaf in leaves]
    reset_grads(out)

    worst = 0.0
    for leaf, a in zip(leaves, analytic):
        coords = None
        if max_coords_per_leaf is not None and leaf.data.size > max_coords_per_leaf:
            r = rng if rng is not None else np.random.default_rng(0)
            coords = sorted(r.choice(leaf.data.size, size=max_coords_per_leaf,
                                     replace=False).tolist())
        numeric, picked = numeric_grad(fn, leaf, eps=eps, coords=coords)
        a_flat = a.reshape(-1)[picked]
        worst = max(worst, rel_error(a_flat, numeric, rtol=rtol, floor=floor))
    return worst
