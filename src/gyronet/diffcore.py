"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tape` records primitive operations as they are executed eagerly,
so the node list is topologically ordered by construction.  Every recorded
value is finite: a non-finite value raises :class:`TapeError` naming the
node index and op.  Each :class:`Tensor` carries bounds ``lo <= |entry| <=
hi`` that hold for all its entries, and each op computes its output's bounds
from its inputs' with a few float operations.  :meth:`Tape.record` scans a
value with :func:`gyronet.geometry._magnitude`, the one finite scan, only when
its ``hi`` is not below ``_PROVEN = 2**1000``, and a scanned value takes the
scan's result as its ``hi``: the square root of its sum of squares, or its
largest ``|entry|`` when that sum overflows.  So each value is scanned at
most once, and only when its op cannot prove it finite.

Unknown is ``hi = inf, lo = 0``; every test of a bound is written so that a
NaN bound (as from ``inf * 0``) reads as unknown, and ``min`` and ``max``
take the operand that may be NaN first, since ``max(h, nan)`` is ``h``.  A
finite Python-float leaf ``x`` has ``hi = lo = |x|``.  An array leaf, which
holds parameters or data, is unknown and is not checked itself, so the first
op that reads it scans its own output, and a non-finite leaf fails there.
The rules, for inputs ``a`` and ``b`` with entries ``x`` and ``y``:

- ``add``, ``sub``: ``|x +- y| <= |x| + |y|``, so ``hi = hi_a + hi_b``.
- ``mul``: ``|xy| = |x||y|``, so ``hi = hi_a * hi_b`` and ``lo = lo_a * lo_b``.
- ``div``: ``|x / y| <= hi_a / lo_b`` when ``lo_b > 0``; otherwise a divisor
  may be 0 and the bound is unknown.
- ``neg``, ``slice``, ``reshape``, ``swap_last``: the entries are the
  input's, up to sign, so both bounds carry over.  ``relu`` and ``max``: each
  entry is an input entry or 0, so ``hi`` carries over.
- ``clip_min(f)``: each entry is an input entry or ``f``, so ``hi = max(|f|,
  hi_a)``; each is at least ``f``, so ``lo = f`` when ``f > 0``.
- ``tanh``: ``|tanh x| <= 1``.  ``softmax``: ``e_i <= sum(e)``, and so each
  entry is at most 1.  Both hold for a finite input (``hi_a < inf``); a NaN
  stays NaN.
- ``exp``: ``exp(x) <= exp(hi_a)``, taken when ``hi_a < 700``: exp overflows
  at 709.78.  ``atanh``: ``|atanh x| <= atanh(hi_a)``, taken when ``hi_a <
  1 - 2**-20``, whose margin below the pole at 1 covers the rounding of the
  input's bound.  ``asinh``: ``|asinh x| <= asinh(hi_a)``, for a finite
  ``hi_a``.
- ``log``: none.  ``lo`` bounds ``|x|``, not ``x``, so ``lo > 0`` allows a
  negative entry, whose log is NaN.
- ``matmul``: each entry sums ``k`` products of at most ``hi_a hi_b``, so
  ``hi = k hi_a hi_b``.  ``sum``: ``hi = count * hi_a`` over the ``count``
  terms of each sum.  ``norm``: ``sqrt(n hi_a**2) = sqrt(n) hi_a`` over ``n``
  coordinates, taken while ``n hi_a**2 < 2**1000``, so that the sum of
  squares cannot overflow.  A ``norm`` that records the row norms an
  unclamped ``ball_project`` measured takes ``hi = max_norm`` of that clamp:
  it kept every row because its norm was below ``max_norm``, a test made on
  these very norms.  So ``atanh(norm / c)`` of a projection of radius ``c``,
  whose ``max_norm / c`` is ``1 - 1e-5`` up to rounding, is below
  ``_ATANH_MAX`` and is proved.
- ``ball_project``: a row it keeps has a norm below ``max_norm`` (a NaN norm
  fails that test), so its entries are too; a clamped row of a finite input
  is scaled by ``max_norm / norm <= 1``, or to 0 when its norm overflowed.
  So ``hi = min(max_norm, hi_a)``, for any input when no row is clamped and
  for a finite one when some row is.

Each rule holds in real arithmetic; the op and the rule round, so an entry
may pass its bound by a relative few units in the last place per op (``n``
of them for an ``n``-term sum), compounded along the chain.  ``_PROVEN`` is
2**24 below the largest double, so an entry of a value bounded below it
could overflow only after more than 10**16 such roundings.

A node keeps only what its VJP reads, as ``save_for_backward`` does in
PyTorch: each op tells :meth:`Tape.record` whether to save its input values,
its output value, both or neither.  ``mul``, ``div`` and ``matmul`` save
their inputs; ``log``, ``atanh``, ``asinh``, ``relu`` and ``clip_min`` their
input; ``exp``, ``tanh`` and ``softmax`` their output; ``norm`` and ``max``
both; ``add``, ``sub``, ``neg``, ``sum``, ``reshape``, ``swap_last``,
``slice`` and ``ball_project`` nothing.  A grad-enabled leaf keeps its value
and a constant keeps none.  Besides those, a node keeps its value's shape,
its attrs and its parent nodes, and no tape or tensor; every other value is
freed as soon as the forward drops its :class:`Tensor`.  A VJP rule gets an
unsaved value as the node itself, which has a shape and no data, so a rule
that reads data its op did not save raises.

A node's ``requires_grad`` flag is set when it is recorded: true when any of
its inputs requires grad.  The tape lists its grad-enabled leaves as it
makes them, and the recorded nodes that have the flag as it records them.
``backward`` walks that second list in reverse and accumulates
vector-Jacobian products on the nodes they flow to; a gradient whose shape
differs from its input's (the input was broadcast) is summed back to that
shape.  It returns the listed leaves' gradients, zeros for a leaf that no
gradient reached, and clears every gradient it set, also when it raises.
The saved values stay, so a tape can be differentiated again.  To evaluate
at new inputs, record a new tape.

:func:`norm`, :func:`softmax` and :func:`ball_project` act on the last
axis; ``norm`` and ``ball_project`` run :mod:`gyronet.geometry`'s norm and
radial clamp, which keeps its input array itself when no row reaches the
shell and rescales only when some row is clamped.  The clamp measures the
row norms of its input, so when it clamps no row, its output ``Tensor``,
whose value is that same input array, carries those norms as ``norms``; a
``norm`` of that tensor records them as its value instead of measuring
again.  They are the same function's result on the same array, so the bits
and the node are those of a fresh ``norm``; the tensor carries the clamp's
``max_norm`` as ``norms_hi``, the bound of those norms.  Every other tensor
has ``norms`` None.

Three rules pass a value through as it is, each bitwise the product it
stands for:

- the VJP of ``ball_project`` passes the output gradient through when no row
  was clamped, and that of ``clip_min`` when no entry is at or below its
  floor: each is the product with a mask that is all true;
- every leaf of the float 1.0 has the one read-only value ``_ONE``.  A
  ``mul`` with a ``_ONE`` operand, or a ``div`` by one, records its other
  operand's own array as its value, and its VJP for that operand returns the
  output gradient itself: ``x * 1.0`` and ``x / 1.0`` are ``x`` bit for bit.
  The leaf and the op are still recorded.  These are the scalings by a ball
  radius ``c = 1``; ROADMAP item 18 deletes them, and their leaves of 1.0,
  from the graph, and this rule with them.

So values and gradient arrays may be shared between nodes, as those of
``add`` always were; no op and no rule writes into one.

Every sum over the last axis, in ``tsum``, ``softmax`` and its VJP and in
summing a broadcast gradient back over a last axis of length 1, is
:mod:`gyronet.geometry`'s one last-axis kernel ``_sum_last``.  Its second,
``_inner``, sums a product over the last axis: ``norm`` and the clamp take
``_norm``, its square root, and the ``mul`` and ``div`` VJPs of an operand
whose last axis is 1 against a wider one sum the gradient times the other
operand with it before anything is as wide as the rows.  Both kernels call
``c_einsum``, the C function behind ``np.einsum``, whose bits for a row do
not depend on the batch it is in: the same bits as ``np.einsum`` without its
Python dispatch, which cost as much as the kernel on these short rows (numpy
1.x, which does not export it, takes ``np.einsum`` itself).  Sums over other
axes are ``np.add.reduce``, as is the ``max`` VJP's count of tied entries,
which is exact in any order; the tape calls array methods and ufuncs, not
the ``np.shape``, ``np.sum`` or ``np.swapaxes`` wrappers around them.

First-order gradients only.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _TINY, _clamp, _inner, _magnitude, _norm, _sum_last

_all = np.logical_and.reduce
_INF = math.inf
# a value whose bound is below this has finite entries: 2^24 below the largest
# double, which is far more than the rounding of any chain of bound rules
_PROVEN = 2.0 ** 1000
# atanh's bound needs its input's bound below 1 by more than that rounding
_ATANH_MAX = 1.0 - 2.0 ** -20
# the value of every leaf of the float 1.0: mul and div by it pass the other
# operand through
_ONE = np.array(1.0)
_ONE.flags.writeable = False


class Node:
    """One recorded op, keeping only what its VJP reads.

    ``operands`` holds, per input, the input's value when the op saves its
    inputs and the input's node otherwise; ``out`` is the op's value when it
    saves its output and None otherwise.  A node has a ``shape`` but no
    array, so a rule that reads data its op did not save raises.  ``grad``
    is set only while ``backward`` runs.
    """

    __slots__ = ("op", "parents", "operands", "out", "shape", "attrs", "requires_grad", "grad")

    def __init__(self, op, parents, operands, out, shape, attrs, requires_grad):
        self.op = op
        self.parents = parents
        self.operands = operands
        self.out = out
        self.shape = shape
        self.attrs = attrs
        self.requires_grad = requires_grad
        self.grad = None

    def __array__(self, dtype=None, copy=None):
        raise TypeError(f"a {self.op} node keeps only its shape here: its op did not save "
                        "this value")


class Tensor:
    """Handle to a node on a tape, with that node's (immutable) value and the
    bounds ``lo <= |entry| <= hi`` that hold for every entry of it."""

    __slots__ = ("tape", "nid", "value", "node", "norms", "norms_hi", "hi", "lo")

    def __init__(self, tape, nid, value, node=None, hi=_INF, lo=0.0):
        self.tape = tape
        self.nid = nid
        self.value = value
        self.node = node
        # _norm(value) when ball_project measured it, and then norms_hi bounds them
        self.norms = None
        self.hi = hi
        self.lo = lo

    @property
    def shape(self):
        return self.value.shape

    def __hash__(self):
        return hash((id(self.tape), self.nid))

    def __eq__(self, other):
        return isinstance(other, Tensor) and other.tape is self.tape and other.nid == self.nid

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return self.tape.leaf(other)

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __radd__(self, other):
        return add(self._coerce(other), self)

    def __sub__(self, other):
        return sub(self, self._coerce(other))

    def __rsub__(self, other):
        return sub(self._coerce(other), self)

    def __mul__(self, other):
        return mul(self, self._coerce(other))

    def __rmul__(self, other):
        return mul(self._coerce(other), self)

    def __truediv__(self, other):
        return div(self, self._coerce(other))

    def __rtruediv__(self, other):
        return div(self._coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, self._coerce(other))

    def __getitem__(self, key):
        return tslice(self, key)

    def __repr__(self):
        return f"Tensor(nid={self.nid}, shape={self.shape})"


class TapeError(RuntimeError):
    pass


class Tape:
    """Append-only record of primitive operations."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: list[int] = []  # node ids of the grad-enabled leaves, in order
        self.graded: list[Node] = []  # the recorded nodes that require grad, in order

    def leaf(self, data, requires_grad=False):
        """A leaf node; a grad-enabled leaf keeps its value, a constant keeps
        nothing (an op that reads it saves it).  A finite Python float is its
        own bound; an array's bound is unknown, and its value is not checked.
        Every leaf of the float 1.0 has the value ``_ONE``."""
        value = _ONE if isinstance(data, float) and data == 1.0 else np.asarray(data, dtype=float)
        hi = lo = abs(float(data)) if isinstance(data, float) else _INF
        if not hi < _INF:
            hi, lo = _INF, 0.0
        nodes = self.nodes
        if requires_grad:
            self.params.append(len(nodes))
        node = Node("leaf", (), (), value if requires_grad else None, value.shape, {},
                    requires_grad)
        nodes.append(node)
        return Tensor(self, len(nodes) - 1, value, node, hi, lo)

    def constant(self, data):
        return self.leaf(data, requires_grad=False)

    def record(self, op, inputs, value, *, _hi=_INF, _lo=0.0, _inputs=False, _out=False,
               **attrs):
        """Append a node computed from ``inputs``, whose entries its op bounds
        by ``_lo <= |entry| <= _hi``.  A value whose ``_hi`` is not below
        ``_PROVEN`` is scanned, and takes the scan's bound.  The node saves
        the input values when ``_inputs`` and the value itself when ``_out``:
        each op passes exactly what its VJP reads."""
        nodes = self.nodes
        if not _hi < _PROVEN:
            _hi = _magnitude(value)
            if not _hi < _INF:
                raise TapeError(f"non-finite value at node {len(nodes)} (op {op})")
        if len(inputs) == 1:
            a, = inputs
            pa = a.node
            parents = (pa,)
            requires_grad = pa.requires_grad
            operands = (a.value,) if _inputs else parents
        else:
            a, b = inputs
            pa, pb = a.node, b.node
            parents = (pa, pb)
            requires_grad = pa.requires_grad or pb.requires_grad
            operands = (a.value, b.value) if _inputs else parents
        node = Node(op, parents, operands, value if _out else None, value.shape, attrs,
                    requires_grad)
        if requires_grad:
            self.graded.append(node)
        nodes.append(node)
        return Tensor(self, len(nodes) - 1, value, node, _hi, _lo)


def _unbroadcast(grad, shape):
    """Sum a gradient over axes that were produced by broadcasting."""
    if grad.shape == shape:
        return grad
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    last = len(shape) - 1
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            if axis == last:
                grad = _sum_last(grad)
            else:
                grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad.reshape(shape)


def backward(tape: Tape, output: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse accumulation of d(output)/d(leaf) for all grad-enabled leaves.

    Returns a dict keyed by the leaf tensors.  Each gradient is held on the
    node it flows to while the walk runs, and every one it set is cleared
    before it returns or raises; the saved values stay, so a tape can be
    differentiated again.
    """
    out_node = output.node
    if output.value.size != 1:
        raise TapeError(f"backward output must be scalar, got shape {out_node.shape}")
    out_node.grad = np.ones(out_node.shape)
    try:
        for node in reversed(tape.graded):  # no leaf is listed, so each keeps its gradient
            g = node.grad
            if g is None:
                continue
            node.grad = None
            out = node.out
            if out is None:
                out = node
            parents = node.parents
            if len(parents) == 1:  # its one input requires grad, as the node does
                parent = parents[0]
                pg = _BACKWARD[node.op][0](g, out, node.operands, node.attrs)
                if pg.shape != parent.shape:
                    pg = _unbroadcast(pg, parent.shape)
                prev = parent.grad
                parent.grad = pg if prev is None else prev + pg
                continue
            pa, pb = parents
            rule_a, rule_b = _BACKWARD[node.op]
            if pa.requires_grad:
                pg = rule_a(g, out, node.operands, node.attrs)
                if pg.shape != pa.shape:
                    pg = _unbroadcast(pg, pa.shape)
                prev = pa.grad
                pa.grad = pg if prev is None else prev + pg
            if pb.requires_grad:
                pg = rule_b(g, out, node.operands, node.attrs)
                if pg.shape != pb.shape:
                    pg = _unbroadcast(pg, pb.shape)
                prev = pb.grad
                pb.grad = pg if prev is None else prev + pg
        result = {}
        nodes = tape.nodes
        for nid in tape.params:
            leaf = nodes[nid]
            g = leaf.grad
            leaf.grad = None
            result[Tensor(tape, nid, leaf.out, leaf)] = np.zeros_like(leaf.out) if g is None else g
        out_node.grad = None
        return result
    except BaseException:
        for node in tape.nodes:
            node.grad = None
        raise


# ---------------------------------------------------------------------------
# Primitive ops.  Each is an eager forward plus, in _BACKWARD, one VJP rule
# per input, called as rule(grad_out, out_value, input_values, attrs), where
# a value the op did not save is its shape-only node.  backward calls only
# the rules of inputs that require grad.
# ---------------------------------------------------------------------------

_BACKWARD = {}


def _same_tape(a, b):
    if a.tape is not b.tape:
        raise TapeError("operands live on different tapes")
    return a.tape


def add(a, b):
    tape = _same_tape(a, b)
    return tape.record("add", (a, b), a.value + b.value, _hi=a.hi + b.hi)


_BACKWARD["add"] = (lambda g, out, v, at: g,) * 2


def sub(a, b):
    tape = _same_tape(a, b)
    return tape.record("sub", (a, b), a.value - b.value, _hi=a.hi + b.hi)


_BACKWARD["sub"] = (lambda g, out, v, at: g, lambda g, out, v, at: -g)


def mul(a, b):
    tape = _same_tape(a, b)
    x, y = a.value, b.value
    return tape.record("mul", (a, b), y if x is _ONE else x if y is _ONE else x * y,
                       _hi=a.hi * b.hi, _lo=a.lo * b.lo, _inputs=True)


def _narrow(x, g):
    """Whether ``x`` has a last axis of length 1 that the gradient ``g`` widens."""
    return x.shape[-1:] == (1,) and g.shape[-1] != 1


def _mul_bwd(g, other, x):
    """The VJP of ``mul`` for its operand ``x``: the gradient itself when
    ``other`` is ``_ONE``; the last-axis inner product of the gradient and
    ``other`` when ``x`` has a last axis of 1 against a wider one, not the
    full-width product; else their product."""
    if other is _ONE:
        return g
    return _inner(g, other) if _narrow(x, g) else g * other


_BACKWARD["mul"] = (lambda g, out, v, at: _mul_bwd(g, v[1], v[0]),
                    lambda g, out, v, at: _mul_bwd(g, v[0], v[1]))


def div(a, b):
    tape = _same_tape(a, b)
    x, y = a.value, b.value
    lo = b.lo
    return tape.record("div", (a, b), x if y is _ONE else x / y,
                       _hi=a.hi / lo if lo > 0.0 else _INF, _inputs=True)


_BACKWARD["div"] = (lambda g, out, v, at: g if v[1] is _ONE else g / v[1],
                    lambda g, out, v, at: (-_inner(g, v[0]) if _narrow(v[1], g) else -g * v[0])
                    / (v[1] * v[1]))


def neg(a):
    return a.tape.record("neg", (a,), -a.value, _hi=a.hi, _lo=a.lo)


_BACKWARD["neg"] = (lambda g, out, v, at: -g,)


def matmul(a, b):
    tape = _same_tape(a, b)
    x = a.value
    return tape.record("matmul", (a, b), x @ b.value, _hi=x.shape[-1] * a.hi * b.hi,
                       _inputs=True)


_BACKWARD["matmul"] = (lambda g, out, v, at: g @ v[1].swapaxes(-1, -2),
                       lambda g, out, v, at: v[0].swapaxes(-1, -2) @ g)


def _sum(x, axis=None, keepdims=False):
    """``tsum``'s forward on an array: ``_sum_last`` over the last axis."""
    if axis == -1:
        return _sum_last(x) if keepdims else _sum_last(x)[..., 0]
    return np.add.reduce(x, axis=axis, keepdims=keepdims)


def tsum(a, axis=None, keepdims=False):
    x = a.value
    value = _sum(x, axis, keepdims)
    count = x.size // max(value.size, 1)  # the terms of each sum
    return a.tape.record("sum", (a,), value, _hi=count * a.hi, axis=axis, keepdims=keepdims)


def _expand_reduced(g, x_shape, axis, keepdims):
    """The gradient of a reduction copied back over the reduced axes."""
    if not (keepdims or axis is None):
        g = np.expand_dims(g, axis)
    out = np.empty(x_shape)
    out[...] = g
    return out


_BACKWARD["sum"] = (
    lambda g, out, v, at: _expand_reduced(g, v[0].shape, at["axis"], at["keepdims"]),)


def tmax(a, axis=None, keepdims=False):
    return a.tape.record("max", (a,), np.maximum.reduce(a.value, axis=axis, keepdims=keepdims),
                         _hi=a.hi, _inputs=True, _out=True, axis=axis, keepdims=keepdims)


def _max_bwd(g, out, v, at):
    x = v[0]
    axis, keepdims = at["axis"], at["keepdims"]
    out_k = out if (keepdims or axis is None) else np.expand_dims(out, axis)
    if axis is None:
        out_k = np.broadcast_to(out_k, x.shape) if out_k.ndim else out_k
    mask = (x == out_k).astype(float)
    count = np.add.reduce(mask, axis=axis, keepdims=axis is not None)
    g_exp = _expand_reduced(g, x.shape, axis, keepdims)
    return g_exp * mask / count


_BACKWARD["max"] = (_max_bwd,)


def _unary(name, f, vjp, saves, bound):
    """An elementwise op whose VJP reads its input (``saves`` "input") or its
    output ("out"), and whose output is bounded by ``bound(hi)`` of its
    input's bound."""
    inputs, out = saves == "input", saves == "out"

    def op(a):
        return a.tape.record(name, (a,), f(a.value), _hi=bound(a.hi), _inputs=inputs, _out=out)

    _BACKWARD[name] = (vjp,)
    return op


exp = _unary("exp", np.exp, lambda g, out, v, at: g * out, "out",
             lambda h: math.exp(h) if h < 700.0 else _INF)
log = _unary("log", np.log, lambda g, out, v, at: g / v[0], "input", lambda h: _INF)
tanh = _unary("tanh", np.tanh, lambda g, out, v, at: g * (1.0 - out * out), "out",
              lambda h: 1.0 if h < _INF else _INF)
atanh = _unary("atanh", np.arctanh, lambda g, out, v, at: g / (1.0 - v[0] * v[0]), "input",
               lambda h: math.atanh(h) if h < _ATANH_MAX else _INF)
asinh = _unary("asinh", np.arcsinh, lambda g, out, v, at: g / np.sqrt(1.0 + v[0] * v[0]),
               "input", lambda h: math.asinh(h) if h < _INF else _INF)
relu = _unary("relu", lambda x: np.maximum(x, 0.0), lambda g, out, v, at: g * (v[0] > 0.0),
              "input", lambda h: h)


def _softmax(x):
    """``softmax``'s forward on an array."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / _sum_last(e)


def softmax(a):
    """Softmax over the last axis."""
    return a.tape.record("softmax", (a,), _softmax(a.value), _hi=1.0 if a.hi < _INF else _INF,
                         _out=True)


_BACKWARD["softmax"] = (lambda g, out, v, at: out * (g - _sum_last(g * out)),)


def norm(a):
    """Euclidean norm over the last axis, which is kept with length 1."""
    n = a.norms
    if n is None:
        h, k = a.hi, a.value.shape[-1]
        return a.tape.record("norm", (a,), _norm(a.value),
                             _hi=math.sqrt(k) * h if k * h * h < _PROVEN else _INF,
                             _inputs=True, _out=True)
    return a.tape.record("norm", (a,), n, _hi=a.norms_hi, _inputs=True, _out=True)


_BACKWARD["norm"] = (lambda g, out, v, at: v[0] * (g / np.maximum(out, _TINY)),)


def tslice(a, key):
    return a.tape.record("slice", (a,), a.value[key], _hi=a.hi, _lo=a.lo, key=key)


def _slice_bwd(g, out, v, at):
    gx = np.zeros(v[0].shape)
    gx[at["key"]] = g
    return gx


_BACKWARD["slice"] = (_slice_bwd,)


def reshape(a, shape):
    return a.tape.record("reshape", (a,), a.value.reshape(shape), _hi=a.hi, _lo=a.lo,
                         shape=shape)


_BACKWARD["reshape"] = (lambda g, out, v, at: g.reshape(v[0].shape),)


def swap_last(a):
    """Transpose the last two axes (used for attention score matrices)."""
    return a.tape.record("swap_last", (a,), a.value.swapaxes(-1, -2), _hi=a.hi, _lo=a.lo)


_BACKWARD["swap_last"] = (lambda g, out, v, at: g.swapaxes(-1, -2),)


def clip_min(a, floor):
    """Elementwise lower clamp; gradient is identity above the floor, zero below."""
    f = float(floor)
    # the floor first: max(h, nan) would be h
    return a.tape.record("clip_min", (a,), np.maximum(a.value, floor), _hi=max(abs(f), a.hi),
                         _lo=f if f > 0.0 else 0.0, _inputs=True, floor=floor)


def _clip_min_bwd(g, out, v, at):
    above = v[0] > at["floor"]
    return g if _all(above, axis=None) else g * above


_BACKWARD["clip_min"] = (_clip_min_bwd,)


def ball_project(a, max_norm):
    """Radial clamp of the last axis onto the shell of radius ``max_norm``.

    Gradient convention: identity for rows that were inside, zero for rows
    that got clamped (projected-gradient treatment of the boundary).  The
    forward keeps the ``inside`` mask and a ``clamped`` flag for the VJP.
    When no row is clamped, the output is the input array itself and
    carries its row norms.
    """
    x, inside, n = _clamp(a.value, max_norm)
    unclamped = x is a.value
    h = a.hi
    # max_norm first: min(h, nan) would be h
    out = a.tape.record("ball_project", (a,), x,
                        _hi=min(float(max_norm), h) if unclamped or h < _INF else _INF,
                        max_norm=max_norm, inside=inside, clamped=not unclamped)
    if unclamped:
        out.norms, out.norms_hi = n, float(max_norm)
    return out


_BACKWARD["ball_project"] = (lambda g, out, v, at: g * at["inside"] if at["clamped"] else g,)
