"""Dense float64 tensors with reverse-mode automatic differentiation.

Storage is contiguous row-major numpy float64. ``reshape``, and a
``transpose`` or basic slice whose result is contiguous, return views of
their input's array; the other structural ops copy. This is safe because
nothing writes into ``.data`` in place while a graph that reads it is alive:
``Adam.step`` and ``load_checkpoint`` rebind ``.data`` instead.

Handles and nodes. An op returns a handle: a ``Tensor`` that owns its
``.data``. When gradient mode is on and a parent takes gradients,
``graph_op`` also gives the handle a graph ``Node``: its ``grad``,
``requires_grad``, the parents' nodes, the gradient rule, the op tag and the
shape, but not the data. A leaf (a parameter, an input, a constant) is its
own node. The handle shows its node's ``grad``, parents, rule and tag; the
graph links node to node and never to a handle. ``no_grad`` builds no node.

A rule is a closure ``bw(grad)`` that each op defines before its output
exists and passes to ``graph_op``. It captures its parents' nodes, no
handle, and the arrays it reads (a softmax's probabilities, a convolution's
columns) or an exact smaller stand-in (``relu``'s mask, ``silu``'s derivative);
one cheap to rebuild (the scan's decay factors) it rebuilds. So a graph holds
the leaves, the nodes and the arrays some rule reads, and an op output that
no rule reads is freed as soon as its handle dies. A rule cannot capture its
own node, and no node references a handle, so a graph has no reference
cycle and reference counting frees it once its root goes out of scope.

``backward()`` on a scalar walks the root's graph once, in reverse
topological order, calling each rule with its node's accumulated gradient
and accumulating ``grad`` on every reachable node with ``requires_grad``.
Gradients of broadcast operands are summed over the broadcast axes, so a
``grad`` always matches its node's shape. ``backward()`` drops each interior
gradient once its rule has run: afterwards only leaves hold ``grad``. A
graph supports exactly one ``backward()``; a second call raises unless
``reset_grads`` was invoked on the root first, which guards against silent
double accumulation.
"""

import contextlib

import numpy as np

_grad_enabled = True
_op_observer = None


class no_grad:
    """Context manager that disables graph recording (pure evaluation)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


@contextlib.contextmanager
def observe_ops(fn):
    """Call ``fn(op_tag, out_data, parents)`` from ``graph_op`` for every op run
    inside the block, under grad or no_grad; ``parents`` are the op's input
    handles, with their data. The previous observer comes back on exit, also
    when the block raises."""
    global _op_observer
    prev = _op_observer
    _op_observer = fn
    try:
        yield
    finally:
        _op_observer = prev


def _contig(a):
    # ascontiguousarray would promote 0-d arrays to shape (1,); avoid that
    return a if a.flags["C_CONTIGUOUS"] else np.ascontiguousarray(a)


def _sigmoid(x):
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, both from exp(-|x|)
    with no mask; the bits are the per-sign formulas' (a NaN's sign may differ)."""
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=num)


def _unbroadcast(grad, shape):
    """Sum ``grad`` over axes introduced or stretched by broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _accum(node, g):
    if node.grad is None:
        node.grad = g
    else:
        node.grad = node.grad + g


class Node:
    """What the graph keeps of an op output: everything but its data."""
    __slots__ = ("grad", "requires_grad", "_parents", "_backward", "_op", "shape")

    def __init__(self, shape, parents, op_tag, backward):
        self.grad = None
        self.requires_grad = True
        self._parents = parents
        self._backward = backward
        self._op = op_tag
        self.shape = shape


class Tensor:
    __slots__ = ("data", "requires_grad", "_grad", "_node", "_backward_ran")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=np.float64)
        self.data = _contig(arr)
        self.requires_grad = bool(requires_grad)
        self._grad = None
        self._node = None  # an op output's graph node; a leaf is its own
        self._backward_ran = False

    # a handle shows its node's graph state; a leaf has no parents and no rule
    @property
    def grad(self):
        return self._grad if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        if self._node is None:
            self._grad = g
        else:
            self._node.grad = g

    _parents = property(lambda self: () if self._node is None else self._node._parents)
    _backward = property(lambda self: None if self._node is None else self._node._backward)
    _op = property(lambda self: "" if self._node is None else self._node._op)

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate d(self)/d(leaf) on every reachable leaf with requires_grad.

        ``self`` must be a scalar. Raises on a second call for the same graph;
        call ``reset_grads(self)`` first if a fresh accumulation is wanted.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        if self._backward_ran:
            raise RuntimeError(
                "backward() already ran for this graph; rebuild the graph or "
                "call reset_grads(root) before running it again")
        self._backward_ran = True
        order = _toposort(self)
        order[0].grad = np.ones_like(self.data)
        for node in order:
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            node.grad = None  # spent: only leaves keep their gradients

    # -- operator overloads ---------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __abs__(self):
        return abs(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    # method-style spellings used all over the package
    def exp(self):
        return exp(self)

    def sqrt(self):
        return sqrt(self)

    def sin(self):
        return sin(self)

    def relu(self):
        return relu(self)

    def silu(self):
        return silu(self)

    def softplus(self):
        return softplus(self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node_of(t):
    return t._node or t


def graph_op(data, parents, op_tag, backward):
    """Create the handle of an op output, with gradient rule ``backward``.

    Gives the handle a ``Node`` recording the parents' nodes, ``op_tag`` and
    the rule, and only when gradient mode is on and at least one parent
    takes gradients, so pure evaluation builds no graph. The rule receives
    the output gradient as its argument; it is defined before the output
    exists and so cannot reference its node. Values it needs from the
    output (``exp``, ``sqrt``) are captured as the computed array instead;
    values only it needs are computed inside it, or before it only when
    ``_recording``, so pure evaluation does no work for them.
    """
    out = Tensor(data)
    if _op_observer is not None:
        _op_observer(op_tag, out.data, parents)
    if _recording(parents):
        out.requires_grad = True
        out._node = Node(out.data.shape, tuple([p._node or p for p in parents]), op_tag, backward)
    return out


def _recording(parents):  # whether graph_op gives an op over parents a node
    return _grad_enabled and any(p.requires_grad for p in parents)


def _toposort(root):
    """The nodes reachable from the handle ``root``, its own node first."""
    order = []
    visited = set()
    stack = [(_node_of(root), False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def reset_grads(root):
    """Clear grads over the whole graph and re-arm ``backward`` on the root."""
    for node in _toposort(root):
        node.grad = None
    root._backward_ran = False


# -- elementwise primitives -------------------------------------------------

def add(a, b):
    a, b = _lift(a), _lift(b)
    na, nb = _node_of(a), _node_of(b)
    def bw(g):
        if na.requires_grad:
            _accum(na, _unbroadcast(g, na.shape))
        if nb.requires_grad:
            _accum(nb, _unbroadcast(g, nb.shape))
    return graph_op(np.add(a.data, b.data), (a, b), "add", bw)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    na, nb = _node_of(a), _node_of(b)
    def bw(g):
        if na.requires_grad:
            _accum(na, _unbroadcast(g, na.shape))
        if nb.requires_grad:
            _accum(nb, _unbroadcast(-g, nb.shape))
    return graph_op(np.subtract(a.data, b.data), (a, b), "sub", bw)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    na, nb = _node_of(a), _node_of(b)
    ad = a.data if b.requires_grad else None  # each operand is read by the other's gradient
    bd = b.data if a.requires_grad else None
    def bw(g):
        if na.requires_grad:
            _accum(na, _unbroadcast(g * bd, na.shape))
        if nb.requires_grad:
            _accum(nb, _unbroadcast(g * ad, nb.shape))
    return graph_op(np.multiply(a.data, b.data), (a, b), "mul", bw)


def div(a, b):
    a, b = _lift(a), _lift(b)
    na, nb = _node_of(a), _node_of(b)
    ad, bd = a.data if b.requires_grad else None, b.data
    def bw(g):
        if na.requires_grad:
            _accum(na, _unbroadcast(g / bd, na.shape))
        if nb.requires_grad:
            _accum(nb, _unbroadcast(-g * ad / (bd * bd), nb.shape))
    return graph_op(np.divide(a.data, b.data), (a, b), "div", bw)


def neg(a):
    na = _node_of(a)
    def bw(grad):
        _accum(na, -grad)
    return graph_op(np.negative(a.data), (a,), "neg", bw)


def exp(a):
    na, y = _node_of(a), np.exp(a.data)
    def bw(grad):
        _accum(na, grad * y)
    return graph_op(y, (a,), "exp", bw)


def sqrt(a):
    na, y = _node_of(a), np.sqrt(a.data)
    def bw(grad):
        _accum(na, grad * 0.5 / y)
    return graph_op(y, (a,), "sqrt", bw)


def sin(a):
    na, x = _node_of(a), a.data
    def bw(grad):
        _accum(na, grad * np.cos(x))
    return graph_op(np.sin(x), (a,), "sin", bw)


def abs(a):
    """|x|; the subgradient at 0 is 0."""
    na, x = _node_of(a), a.data
    def bw(grad):
        _accum(na, grad * np.sign(x))
    return graph_op(np.abs(x), (a,), "abs", bw)


def relu(a):
    na, x = _node_of(a), a.data
    positive = x > 0.0 if _recording((a,)) else None
    def bw(grad):
        _accum(na, grad * positive)
    return graph_op(np.maximum(x, 0.0), (a,), "relu", bw)


def silu(a):
    """x * sigmoid(x); smooth gate used by the sequence blocks."""
    na, x = _node_of(a), a.data
    s = _sigmoid(x)
    ds = s * (1.0 + x * (1.0 - s)) if _recording((a,)) else None
    def bw(grad):
        _accum(na, grad * ds)
    return graph_op(x * s, (a,), "silu", bw)


def softplus(a):
    na, x = _node_of(a), a.data
    def bw(grad):
        _accum(na, grad * _sigmoid(x))
    return graph_op(np.logaddexp(0.0, x), (a,), "softplus", bw)


# -- matrix products ---------------------------------------------------------

def matmul(a, b):
    """[..., p,q] @ [..., q,r]; an operand whose leading dims end the other's is shared."""
    short, long = sorted((a.shape[:-2], b.shape[:-2]), key=len)
    if a.ndim < 2 or b.ndim < 2 or long[len(long) - len(short):] != short \
            or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul expects [...,p,q]@[...,q,r] with matching leading dims, "
                         f"got {a.shape} and {b.shape}")
    na, nb = _node_of(a), _node_of(b)
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    def bw(g):
        if na.requires_grad:
            _accum(na, _unbroadcast(g @ bd.swapaxes(-1, -2), na.shape))
        if nb.requires_grad:
            _accum(nb, _unbroadcast(ad.swapaxes(-1, -2) @ g, nb.shape))
    return graph_op(a.data @ b.data, (a, b), "matmul", bw)


# -- reductions ---------------------------------------------------------------

def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(sorted(a % ndim for a in axis))
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate reduction axes {axis}")
    return axes


def _check_nonempty(t, axes):
    for ax in axes:
        if t.data.shape[ax] == 0:
            raise ValueError(f"cannot reduce over empty axis {ax} of shape {t.shape}")


def _keepdims_shape(shape, axes):
    return tuple(1 if i in axes else n for i, n in enumerate(shape))


def reduce_sum(t, axis=None, keepdims=False):
    axes = _norm_axes(axis, t.ndim)
    _check_nonempty(t, axes)
    nt = _node_of(t)
    def bw(grad):
        g = grad.reshape(_keepdims_shape(nt.shape, axes))
        _accum(nt, np.broadcast_to(g, nt.shape).copy())
    return graph_op(t.data.sum(axis=None if axis is None else axes, keepdims=keepdims),
                    (t,), "sum", bw)


def reduce_mean(t, axis=None, keepdims=False):
    axes = _norm_axes(axis, t.ndim)
    _check_nonempty(t, axes)
    nt = _node_of(t)
    def bw(grad):
        count = 1
        for ax in axes:
            count *= nt.shape[ax]
        g = grad.reshape(_keepdims_shape(nt.shape, axes)) / count
        _accum(nt, np.broadcast_to(g, nt.shape).copy())
    return graph_op(t.data.mean(axis=None if axis is None else axes, keepdims=keepdims),
                    (t,), "mean", bw)


# -- movement -----------------------------------------------------------------

def reshape(t, shape):
    nt = _node_of(t)
    def bw(grad):
        _accum(nt, grad.reshape(nt.shape))
    return graph_op(_contig(t.data.reshape(shape)), (t,), "reshape", bw)


def transpose(t, axes=None):
    if axes is None:
        axes = tuple(reversed(range(t.ndim)))
    axes = tuple(a % t.ndim for a in axes)
    nt = _node_of(t)
    def bw(grad):
        _accum(nt, _contig(np.transpose(grad, np.argsort(axes))))
    return graph_op(_contig(np.transpose(t.data, axes)), (t,), "transpose", bw)


def getitem(t, key):
    nt = _node_of(t)
    def bw(grad):
        buf = np.zeros(nt.shape)
        # a key of ints and slices selects each element at most once, so its
        # gradient is assigned; fancy keys may repeat elements and accumulate
        if all(isinstance(k, (int, np.integer, slice)) or k is Ellipsis
               for k in (key if isinstance(key, tuple) else (key,))):
            buf[key] = grad
        else:
            np.add.at(buf, key, grad)
        _accum(nt, buf)
    return graph_op(_contig(t.data[key]), (t,), "getitem", bw)


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    nodes = [_node_of(t) for t in tensors]
    def bw(grad):
        offset = 0
        for node in nodes:
            n = node.shape[axis]
            if node.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(offset, offset + n)
                _accum(node, _contig(grad[tuple(sl)]))
            offset += n
    return graph_op(np.concatenate([t.data for t in tensors], axis=axis),
                    tuple(tensors), "concat", bw)


def stack(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    nodes = [_node_of(t) for t in tensors]
    def bw(grad):
        for i, node in enumerate(nodes):
            if node.requires_grad:
                _accum(node, _contig(np.take(grad, i, axis=axis)))
    return graph_op(np.stack([t.data for t in tensors], axis=axis),
                    tuple(tensors), "stack", bw)
