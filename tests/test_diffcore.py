"""Tests for the tape autodiff core and the differentiable ball operations."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tape_memory
from gradcheck import check_gradient
from gyronet import cli, data
from gyronet import diffcore as dc
from gyronet import diffgeom as dg
from gyronet import geometry as geo
from gyronet import hypformer as hf
from gyronet import train
from gyronet.checks import random_ball_points
from taperecord import Recorded, node_log, recorded_bytes


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------

def test_forward_add():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0], requires_grad=True)
    y = tape.leaf([3.0, 4.0], requires_grad=True)
    out = x + y
    np.testing.assert_array_equal(out.value, [4.0, 6.0])


def test_forward_softmax():
    tape = dc.Tape()
    s = dc.softmax(tape.constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(s.value, np.full(3, 1.0 / 3.0))
    big = dc.softmax(tape.constant([1000.0, 1000.0]))  # max-shifted, no overflow
    np.testing.assert_array_equal(big.value, [0.5, 0.5])


def test_backward_is_bit_identical():
    x0 = np.random.default_rng(0).normal(size=(4, 3))

    def build():
        tape = dc.Tape()
        x = tape.leaf(x0, requires_grad=True)
        return tape, x, dc.tsum(dc.tanh(dc.matmul(x, dc.swap_last(x))))

    tape, x, out = build()
    g1 = dc.backward(tape, out)[x]
    g2 = dc.backward(tape, out)[x]
    assert np.array_equal(g1, g2)
    # recording the same program again reproduces value and gradient exactly
    tape2, x2, out2 = build()
    assert np.array_equal(out.value, out2.value)
    assert np.array_equal(g1, dc.backward(tape2, out2)[x2])


def test_non_finite_value_reports_node():
    tape = dc.Tape()
    x = tape.constant([1.0, 0.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(dc.TapeError, match="node"):
            dc.log(x - 1.0)


_NON_FINITE = {
    "nan": (lambda x: dc.log(x - 1.0), lambda x: np.log(x - 1.0), np.isnan, 3, "log"),
    "+inf": (lambda x: dc.exp(x * 1000.0), lambda x: np.exp(x * 1000.0), np.isposinf, 3, "exp"),
    "-inf": (lambda x: dc.log(x - x), lambda x: np.log(x - x), np.isneginf, 2, "log"),
    "div-by-zero": (lambda x: x / (x - x), lambda x: x / (x - x), np.isposinf, 2, "div"),
}


@pytest.mark.parametrize("build, plain, check, index, op", [
    pytest.param(*case, id=name) for name, case in _NON_FINITE.items()])
def test_non_finite_value_names_exact_node_and_op(build, plain, check, index, op):
    tape = dc.Tape()
    x = tape.leaf([2.0, 0.5], requires_grad=True)
    with np.errstate(all="ignore"):
        assert check(plain(x.value)).any()
        with pytest.raises(dc.TapeError, match=rf"^non-finite value at node {index} \(op {op}\)$"):
            build(x)
    # the bad node is not recorded
    assert len(tape.nodes) == index


def test_extreme_finite_values_record_cleanly():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        tape = dc.Tape()
        big = tape.leaf([1e308, 1e308], requires_grad=True)
        neg = dc.neg(big)
        scalar = dc.exp(tape.leaf(0.5, requires_grad=True))  # 0-d array
        total = dc.tsum(tape.leaf(np.arange(3.0)))  # numpy scalar
        empty = tape.leaf(np.zeros((0, 3)), requires_grad=True)
        norms = dc.norm(empty)
        projected = dc.ball_project(empty, 0.5)
    np.testing.assert_array_equal(neg.value, [-1e308, -1e308])
    assert np.shape(scalar.value) == () and np.shape(total.value) == ()
    assert norms.value.shape == (0, 1) and projected.value.shape == (0, 3)
    assert [n.requires_grad for n in tape.nodes] == [True, True, True, True, False, False,
                                                      True, True, True]


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def test_backward_product():
    tape = dc.Tape()
    x = tape.leaf(2.0, requires_grad=True)
    y = tape.leaf(3.0, requires_grad=True)
    grads = dc.backward(tape, x * y)
    assert grads[x] == 3.0
    assert grads[y] == 2.0


def test_backward_squared_norm():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0], requires_grad=True)
    grads = dc.backward(tape, dc.tsum(x * x))
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_backward_requires_scalar():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0], requires_grad=True)
    with pytest.raises(dc.TapeError):
        dc.backward(tape, x + x)


def test_backward_linearity():
    rng = np.random.default_rng(1)
    value = rng.normal(size=5)

    def grad_of(weights):
        tape = dc.Tape()
        x = tape.leaf(value, requires_grad=True)
        loss = weights[0] * dc.tsum(dc.tanh(x)) + weights[1] * dc.tsum(x * x)
        return dc.backward(tape, loss)[x]

    ga = grad_of((1.0, 0.0))
    gb = grad_of((0.0, 1.0))
    gsum = grad_of((1.0, 1.0))
    np.testing.assert_allclose(gsum, ga + gb, atol=1e-12)


def test_backward_through_slice_and_broadcast():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0, 3.0], requires_grad=True)
    rows = tape.constant(np.ones((2, 3)))
    out = dc.tsum(x[:2]) + dc.tsum(x[1:]) + dc.tsum(rows * x)
    grads = dc.backward(tape, out)
    np.testing.assert_array_equal(grads[x], [3.0, 4.0, 3.0])


def test_unused_leaf_gets_zero_gradient():
    tape = dc.Tape()
    x = tape.leaf([1.0], requires_grad=True)
    y = tape.leaf([5.0], requires_grad=True)
    grads = dc.backward(tape, dc.tsum(x * x))
    np.testing.assert_array_equal(grads[y], [0.0])


def test_backward_clears_the_gradients_it_held_on_the_nodes():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0], requires_grad=True)
    y = dc.tanh(x * x)
    loss = dc.tsum(y * y)
    first = dc.backward(tape, loss)[x]
    assert all(node.grad is None for node in tape.nodes)
    assert _same_bits(dc.backward(tape, loss)[x], first)


def test_backward_clears_the_gradients_it_held_when_it_raises(monkeypatch):
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0], requires_grad=True)
    y = dc.exp(x) + dc.tanh(x)
    loss = dc.tsum(dc.exp(y))  # the exp of x runs after the sum, the tanh and the outer exp
    (exp_rule,) = dc._BACKWARD["exp"]
    calls = []

    def second_exp_fails(g, out, v, at):
        calls.append(g)
        if len(calls) == 2:
            raise FloatingPointError("rule failed")
        return exp_rule(g, out, v, at)

    monkeypatch.setitem(dc._BACKWARD, "exp", (second_exp_fails,))
    with pytest.raises(FloatingPointError, match="rule failed"):
        dc.backward(tape, loss)
    assert len(calls) == 2 and all(node.grad is None for node in tape.nodes)
    monkeypatch.setitem(dc._BACKWARD, "exp", (exp_rule,))
    fresh = dc.Tape()
    xf = fresh.leaf([1.0, 2.0], requires_grad=True)
    expected = dc.backward(fresh, dc.tsum(dc.exp(dc.exp(xf) + dc.tanh(xf))))[xf]
    assert _same_bits(dc.backward(tape, loss)[x], expected)


# ---------------------------------------------------------------------------
# What a node keeps: each op saves what its VJP reads, and nothing else
# ---------------------------------------------------------------------------

# what each op's node keeps: its inputs' values, its own value, both or neither
_SAVES = {
    "mul": {"inputs"}, "div": {"inputs"}, "matmul": {"inputs"},
    "log": {"inputs"}, "atanh": {"inputs"}, "asinh": {"inputs"}, "relu": {"inputs"},
    "clip_min": {"inputs"},
    "exp": {"out"}, "tanh": {"out"}, "softmax": {"out"},
    "norm": {"inputs", "out"}, "max": {"inputs", "out"},
    "add": set(), "sub": set(), "neg": set(), "sum": set(), "reshape": set(),
    "swap_last": set(), "slice": set(), "ball_project": set(),
}


def test_every_vjp_op_declares_its_saves():
    assert _SAVES.keys() == dc._BACKWARD.keys()


@pytest.mark.parametrize("op", sorted(dc._BACKWARD))
def test_each_node_keeps_exactly_its_declared_saves(op):
    f, arrays = _op_cases(np.random.default_rng(0))[op]
    tape = dc.Tape()
    xs = [tape.leaf(a, requires_grad=True) for a in arrays]
    out = f(*xs)
    node = out.node
    assert node.op == op and node.shape == np.shape(out.value)
    assert len(node.parents) == len(xs) and all(p is x.node for p, x in zip(node.parents, xs))
    kept = [x.value if "inputs" in _SAVES[op] else x.node for x in xs]
    assert len(node.operands) == len(xs) and all(v is k for v, k in zip(node.operands, kept))
    assert node.out is (out.value if "out" in _SAVES[op] else None)


def test_a_parameter_leaf_keeps_its_value_and_a_constant_nothing():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0], requires_grad=True)
    c = tape.constant(np.zeros((2, 3)))
    assert x.node.out is x.value and c.node.out is None
    assert x.node.operands == c.node.operands == () and c.node.shape == (2, 3)


def test_a_rule_that_reads_an_unsaved_value_raises():
    tape = dc.Tape()
    x = tape.constant([1.0, 2.0])
    y = x + x  # add saves nothing: its operands are its parents, shape-only stand-ins
    (mul_x, _) = dc._BACKWARD["mul"]
    with pytest.raises(TypeError, match="a leaf node keeps only its shape"):
        mul_x(np.ones(2), y.node, y.node.operands, {})
    assert np.shape(y.node.operands[0]) == (2,)


def _save_oracle_cases():
    """(op, function, input arrays, which inputs require grad) for every
    primitive: each input requiring grad alone and both together, operands
    of one shape, broadcast against each other and of last axis 1 against
    wide rows; ball_project clamped and not, clip_min at its floor and above
    it, and max with ties."""
    rng = np.random.default_rng(11)
    cases = []

    def add(op, f, arrays, flags=None, tag=""):
        for flag in flags or [(True,) * len(arrays)]:
            name = "".join("xy"[i] for i, r in enumerate(flag) if r)
            cases.append(pytest.param(op, f, arrays, flag, id=f"{op}{tag}-d{name}"))

    pairs = [(True, False), (False, True), (True, True)]
    shapes = {"same": ((2, 3, 4), (2, 3, 4)), "broadcast": ((2, 3, 4), (4,)),
              "narrow-y": ((2, 3, 4), (2, 3, 1)), "narrow-x": ((2, 3, 1), (2, 3, 4))}
    for op, f in (("add", lambda x, y: x + y), ("sub", lambda x, y: x - y),
                  ("mul", lambda x, y: x * y), ("div", lambda x, y: x / y)):
        for kind, (sx, sy) in shapes.items():
            y = rng.uniform(0.5, 2.0, size=sy) if op == "div" else rng.normal(size=sy)
            add(op, f, [rng.normal(size=sx), y], pairs, f"-{kind}")
    add("matmul", dc.matmul, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], pairs)
    add("matmul", dc.matmul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))], pairs,
        "-batch")
    a = rng.normal(size=(3, 4))
    a[1] = 0.0  # a zero row, where norm's VJP divides by its floor
    ties = np.array([[1.0, 3.0, 3.0, 0.0], [2.0, 2.0, 2.0, 2.0], [-1.0, 0.5, -1.0, 0.5]])
    inside = random_ball_points(rng, 3, 4, radius=0.8)
    for op, f, x, tag in (
            ("neg", dc.neg, a, ""), ("exp", dc.exp, a, ""),
            ("log", dc.log, rng.uniform(0.5, 2.0, size=(3, 4)), ""), ("tanh", dc.tanh, a, ""),
            ("atanh", dc.atanh, rng.uniform(-0.8, 0.8, size=(3, 4)), ""),
            ("asinh", dc.asinh, a, ""), ("relu", dc.relu, a, ""),
            ("softmax", dc.softmax, a, ""), ("norm", dc.norm, a, ""),
            ("sum", dc.tsum, a, "-all"), ("sum", lambda x: dc.tsum(x, axis=0), a, "-axis0"),
            ("sum", lambda x: dc.tsum(x, axis=-1, keepdims=True), a, "-last-kept"),
            ("sum", lambda x: dc.tsum(x, axis=-1), a, "-last"),
            ("reshape", lambda x: dc.reshape(x, (2, 6)), a, ""),
            ("swap_last", dc.swap_last, a, ""), ("slice", lambda x: x[1:, ::2], a, ""),
            ("clip_min", lambda x: dc.clip_min(x, 0.0), np.abs(a) + 0.5, "-above"),
            ("clip_min", lambda x: dc.clip_min(x, 0.0), np.where(a < 0.0, -0.0, a), "-at"),
            ("clip_min", lambda x: dc.clip_min(x, 0.5), a, "-below"),
            ("max", lambda x: dc.tmax(x, axis=-1), ties, "-ties-last"),
            ("max", lambda x: dc.tmax(x, axis=0, keepdims=True), ties, "-ties-first"),
            ("max", dc.tmax, ties, "-ties-all"),
            ("ball_project", lambda x: dc.ball_project(x, 0.9), inside, "-unclamped"),
            ("ball_project", lambda x: dc.ball_project(x, 0.9), inside * 3.0, "-clamped")):
        add(op, f, [x], tag=tag)
    return cases


_SAVE_ORACLE_CASES = _save_oracle_cases()


def _leaf_grads(op, f, arrays, flags):
    tape = dc.Tape()
    xs = [tape.leaf(a, requires_grad=r) for a, r in zip(arrays, flags)]
    out = f(*xs)
    assert out.node.op == op
    probe = np.linspace(-1.0, 2.0, np.size(out.value)).reshape(out.shape)
    grads = dc.backward(tape, dc.tsum(out * tape.constant(probe)))
    return [grads[x] for x, r in zip(xs, flags) if r]


def test_save_oracle_covers_every_vjp_op():
    assert {case.values[0] for case in _SAVE_ORACLE_CASES} == dc._BACKWARD.keys()


@pytest.mark.parametrize("op, f, arrays, flags", _SAVE_ORACLE_CASES)
def test_vjps_read_only_what_their_ops_save(op, f, arrays, flags):
    # an unsaved value reaches a rule as a shape-only node, on which reading
    # data raises; against a tape whose nodes keep every input and output,
    # the gradients must be the same bits
    grads = _leaf_grads(op, f, arrays, flags)
    record = dc.Tape.record

    def keep_everything(self, op, inputs, value, *, _inputs=False, _out=False, **kwargs):
        return record(self, op, inputs, value, _inputs=True, _out=True, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dc.Tape, "record", keep_everything)
        full = _leaf_grads(op, f, arrays, flags)
    assert len(grads) == len(full) == sum(flags)
    for g, expected in zip(grads, full):
        assert _same_bits(g, expected)


# ---------------------------------------------------------------------------
# check_gradient harness
# ---------------------------------------------------------------------------

def test_check_gradient_squared_norm():
    point = np.array([0.3, -0.7, 0.2])
    report = check_gradient(lambda p: np.sum(p * p), point, 2.0 * point, tol=1e-6)
    assert report.passed


def test_check_gradient_constant():
    point = np.array([0.1, 0.2])
    report = check_gradient(lambda p: 3.0, point, np.zeros(2))
    assert report.passed
    np.testing.assert_array_equal(report.numeric, np.zeros(2))


def test_check_gradient_detects_error():
    point = np.array([0.3, 0.4])
    report = check_gradient(lambda p: np.sum(p * p), point, 3.0 * point, tol=1e-4)
    assert not report.passed


def _gradcheck_scalar_fn(build, point, tol=1e-4, h=1e-5):
    """Gradient-check a scalar tensor function built from diffcore ops."""
    tape = dc.Tape()
    x = tape.leaf(point, requires_grad=True)
    loss = build(tape, x)
    analytic = dc.backward(tape, loss)[x]

    def fn(p):
        t2 = dc.Tape()
        return float(build(t2, t2.leaf(p)).value)

    return check_gradient(fn, point, analytic, h=h, tol=tol)


def _op_cases(rng):
    """One builder and non-degenerate inputs per primitive in ``_BACKWARD``."""
    a = rng.normal(size=(3, 4))
    row = rng.normal(size=4)  # broadcast against ``a``
    positive = rng.uniform(0.5, 2.0, size=(3, 4))
    unit = rng.uniform(-0.8, 0.8, size=(3, 4))
    off_kink = np.where(np.abs(a) < 0.1, 0.5, a)  # away from relu / clip_min kinks
    return {
        "add": (lambda x, y: x + y, [a, row]),
        "sub": (lambda x, y: x - y, [a, row]),
        "mul": (lambda x, y: x * y, [a, row]),
        "div": (lambda x, y: x / y, [a, positive[0]]),
        "neg": (lambda x: -x, [a]),
        "matmul": (dc.matmul, [a, rng.normal(size=(4, 2))]),
        "sum": (lambda x: dc.tsum(x, axis=0), [a]),
        "max": (lambda x: dc.tmax(x, axis=-1), [a]),
        "exp": (dc.exp, [a]),
        "log": (dc.log, [positive]),
        "tanh": (dc.tanh, [a]),
        "atanh": (dc.atanh, [unit]),
        "asinh": (dc.asinh, [a]),
        "relu": (dc.relu, [off_kink]),
        "softmax": (dc.softmax, [a]),
        "norm": (dc.norm, [a]),
        "slice": (lambda x: x[1:, ::2], [a]),
        "reshape": (lambda x: dc.reshape(x, (2, 6)), [a]),
        "swap_last": (dc.swap_last, [a]),
        "clip_min": (lambda x: dc.clip_min(x, 0.0), [off_kink]),
        "ball_project": (lambda x: dc.ball_project(x, 0.9),
                         [random_ball_points(rng, 3, 4, radius=0.8)]),
    }


@pytest.mark.parametrize("op", sorted(dc._BACKWARD))
def test_every_vjp_matches_finite_differences(op):
    rng = np.random.default_rng(0)
    f, arrays = _op_cases(rng)[op]
    tape = dc.Tape()
    out = f(*(tape.constant(a) for a in arrays))
    assert tape.nodes[out.nid].op == op
    probe = rng.normal(size=out.shape)
    for i in range(len(arrays)):
        def build(t, x, i=i):
            args = [x if j == i else t.constant(a) for j, a in enumerate(arrays)]
            return dc.tsum(f(*args) * t.constant(probe))

        report = _gradcheck_scalar_fn(build, arrays[i])
        assert report.passed, f"{op} input {i}: {report}"


@pytest.mark.parametrize("seed", range(4))
def test_gradients_of_composite_ball_ops(seed):
    rng = np.random.default_rng(seed)
    x0 = random_ball_points(rng, 5, 3, radius=0.6)
    other = random_ball_points(rng, 5, 3, radius=0.6)
    weight = rng.normal(size=(3, 3)) * 0.5
    probe = rng.normal(size=(5, 3))

    builders = {
        "mobius_add": lambda t, x: dc.tsum(dg.mobius_add(x, t.constant(other)) * t.constant(probe)),
        "logmap0": lambda t, x: dc.tsum(dg.logmap0(x) * t.constant(probe)),
        "expmap0": lambda t, x: dc.tsum(dg.expmap0(x) * t.constant(probe)),
        "matvec": lambda t, x: dc.tsum(dg.mobius_matvec(x, t.constant(weight)) * t.constant(probe)),
        "lift_relu": lambda t, x: dc.tsum(dg.lift_relu(x) * t.constant(probe)),
    }
    for name, build in builders.items():
        report = _gradcheck_scalar_fn(build, x0)
        assert report.passed, f"{name}: {report}"


def test_gradient_of_mlr_scores(rng):
    x0 = random_ball_points(rng, 4, 3, radius=0.5)
    a = rng.normal(size=(2, 3))
    p = random_ball_points(rng, 2, 3, radius=0.3)
    probe = rng.normal(size=(4, 2))

    def build(t, x):
        return dc.tsum(dg.mlr_scores(x, t.constant(a), t.constant(p)) * t.constant(probe))

    assert _gradcheck_scalar_fn(build, x0).passed


def test_gradient_of_hyperbolic_attention(rng):
    from gyronet.hypformer import hyperbolic_attention
    pts = random_ball_points(rng, 3, 4, radius=0.4)
    probe = rng.normal(size=(3, 4))

    def build(t, x):
        out = hyperbolic_attention(x, x, x, None)
        return dc.tsum(dg.logmap0(out) * t.constant(probe))

    assert _gradcheck_scalar_fn(build, pts).passed


def test_ball_project_gradient_convention():
    tape = dc.Tape()
    x = tape.leaf([[0.1, 0.0], [5.0, 0.0]], requires_grad=True)
    out = dc.ball_project(x, 1.0 - geo.EPS_BOUNDARY)
    grads = dc.backward(tape, dc.tsum(out))
    np.testing.assert_array_equal(grads[x][0], [1.0, 1.0])  # inside: identity
    np.testing.assert_array_equal(grads[x][1], [0.0, 0.0])  # clamped: zero


def test_norm_and_ball_project_match_the_einsum_norm():
    rng = np.random.default_rng(3)
    max_norm = 5.0
    x = np.vstack([rng.normal(size=(6, 3)) * 3.0, np.zeros(3), [3.0, 4.0, 0.0], [0.0, -5.0, 0.0]])
    n = np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
    assert np.count_nonzero(n == max_norm) == 2 and np.any(n > max_norm) and np.any(n < max_norm)
    tape = dc.Tape()
    tx = tape.leaf(x, requires_grad=True)
    np.testing.assert_array_equal(dc.norm(tx).value, n)
    out = dc.ball_project(tx, max_norm)
    factor = np.where(n >= max_norm, max_norm / np.maximum(n, dc._TINY), 1.0)
    np.testing.assert_array_equal(out.value, x * factor)
    grad = dc.backward(tape, dc.tsum(out))[tx]
    np.testing.assert_array_equal(grad, np.broadcast_to(n < max_norm, x.shape))  # norm == max_norm: clamped


@pytest.mark.parametrize("x", [
    np.array([[0.1, -0.2, 0.3], [0.0, 0.4, -0.0]]),
    np.array([[3.0, 4.0, 0.0], [-1.0, 2.0, 7.0]]),
    np.array([[0.1, 0.2, 0.3], [3.0, -4.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 0.0]]),
    np.zeros((2, 3)),
    np.zeros((0, 3)),
], ids=["all-inside", "all-clamped", "mixed", "zero-rows", "no-rows"])
def test_ball_project_bits_and_vjp(x):
    max_norm = 5.0 * (1.0 - geo.EPS_BOUNDARY)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    expected = x * np.where(n >= max_norm, max_norm / np.maximum(n, dc._TINY), 1.0)
    tape = dc.Tape()
    tx = tape.leaf(x, requires_grad=True)
    out = dc.ball_project(tx, max_norm)
    assert out.value.shape == x.shape and out.value.tobytes() == expected.tobytes()
    if np.all(n < max_norm):
        assert out.value is tx.value  # no rescale when nothing is clamped
    probe = np.arange(1.0, x.size + 1.0).reshape(x.shape)
    grad = dc.backward(tape, dc.tsum(out * tape.constant(probe)))[tx]
    np.testing.assert_array_equal(grad, probe * (n < max_norm))  # identity inside, zero clamped


@st.composite
def _ball_rows(draw, c=None, shape=None):
    """A ball radius c and rows inside the ball, exactly on and just either
    side of the ``c * (1 - 1e-5)`` shell, at zero (either sign) and of
    subnormal entries, in a batch of one or two leading axes; ``c`` and the
    batch's ``shape`` are drawn unless given."""
    if c is None:
        c = draw(st.sampled_from([0.5, 1.0, 2.0]))
    shell = c * (1.0 - geo.EPS_BOUNDARY)
    n = draw(st.integers(1, 4)) if shape is None else shape[-1]
    coordinate = st.floats(-c, c, allow_nan=False)

    def row(kind):
        if kind == "random":
            return draw(st.lists(coordinate, min_size=n, max_size=n))
        if kind == "zero":
            return [draw(st.sampled_from([0.0, -0.0])) for _ in range(n)]
        if kind == "subnormal":
            return draw(st.lists(st.sampled_from([5e-324, -5e-324, 1e-310, 0.0]),
                                 min_size=n, max_size=n))
        radius = {"on": shell, "past": np.nextafter(shell, np.inf),
                  "below": np.nextafter(shell, 0.0)}[kind]
        out = [0.0] * n
        out[draw(st.integers(0, n - 1))] = radius * draw(st.sampled_from([1.0, -1.0]))
        return out

    kinds = st.sampled_from(["random", "zero", "subnormal", "on", "past", "below"])
    count = draw(st.integers(1, 6)) if shape is None else int(np.prod(shape[:-1]))
    x = np.array([row(draw(kinds)) for _ in range(count)], dtype=float)
    if shape is not None:
        return c, x.reshape(shape)
    if draw(st.booleans()) and count % 2 == 0:
        x = x.reshape(2, count // 2, n)
    return c, x


@settings(max_examples=300, deadline=None, database=None)
@given(_ball_rows())
def test_norm_of_a_projection_reuses_its_bits(case):
    c, x = case
    clamped = not np.all(geo._norm(x) < c * (1.0 - geo.EPS_BOUNDARY))
    tape = dc.Tape()
    projected = dg.project(tape.leaf(x), c)
    n = dc.norm(projected)
    assert n.value.tobytes() == geo._norm(projected.value).tobytes()
    assert n.value.shape == x.shape[:-1] + (1,)
    if clamped:
        assert projected.norms is None and projected.value is not x
    else:  # the projection's own input array, with the norms it measured
        assert projected.value is x and n.value is projected.norms
    assert [node.op for node in tape.nodes] == ["leaf", "ball_project", "norm"]


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_merged_formulas_give_the_same_bits_through_both_bindings(data):
    c, x = data.draw(_ball_rows())
    _, y = data.draw(_ball_rows(c, x.shape))
    # random rows outside the ball go onto the shell; rows past it stay
    x, y = (np.where(geo._norm(r) < c, r, geo.project_to_ball(r, c)) for r in (x, y))
    tape = dc.Tape()
    tx, ty = tape.constant(x), tape.constant(y)
    assert dg.mobius_add(tx, ty, c).value.tobytes() == geo.mobius_add(x, y, c).tobytes()
    assert geo._conformal_factor(tx, c, dg._sum_last).value.tobytes() == \
        geo.conformal_factor(x, c).tobytes()


def _node_lines(log):
    """Each logged node as its op, input ids, non-array attrs other than
    ``ball_project``'s ``clamped`` flag, which postdates these lines, and,
    for a 0-d leaf, value."""
    lines = []
    for node in log:
        words = [node.op, ",".join(map(str, node.inputs))]
        words += [f"{k}={v!r}" for k, v in sorted(node.attrs.items())
                  if not isinstance(v, np.ndarray) and k != "clamped"]
        if node.op == "leaf" and np.ndim(node.value) == 0:
            words.append(repr(float(node.value)))
        lines.append(" ".join(filter(None, words)))
    return lines


# what dg.mobius_add and dg.mlr_scores recorded on a fresh tape at c = 2 when
# each had its own body, before they bound geometry's
_MOBIUS_ADD_NODES = """
leaf
leaf
mul 0,0
sum 2 axis=-1 keepdims=True
mul 1,1
sum 4 axis=-1 keepdims=True
mul 0,1
sum 6 axis=-1 keepdims=True
leaf 2.0
mul 8,7
leaf 4.0
div 9,10
leaf 1.0
add 12,11
leaf 4.0
div 5,14
add 13,15
mul 16,0
leaf 4.0
div 3,18
leaf 1.0
sub 20,19
mul 21,1
add 17,22
leaf 2.0
mul 24,7
leaf 4.0
div 25,26
leaf 1.0
add 28,27
mul 3,5
leaf 16.0
div 30,31
add 29,32
div 23,33
ball_project 34 max_norm=1.99998
"""
_MLR_SCORES_NODES = """
leaf
leaf
leaf
reshape 0 shape=(2, 1, 3)
neg 2
mul 4,4
sum 5 axis=-1 keepdims=True
mul 3,3
sum 7 axis=-1 keepdims=True
mul 4,3
sum 9 axis=-1 keepdims=True
leaf 2.0
mul 11,10
leaf 4.0
div 12,13
leaf 1.0
add 15,14
leaf 4.0
div 8,17
add 16,18
mul 19,4
leaf 4.0
div 6,21
leaf 1.0
sub 23,22
mul 24,3
add 20,25
leaf 2.0
mul 27,10
leaf 4.0
div 28,29
leaf 1.0
add 31,30
mul 6,8
leaf 16.0
div 33,34
add 32,35
div 26,36
ball_project 37 max_norm=1.99998
norm 1
clip_min 39 floor=1e-15
mul 2,2
sum 41 axis=-1 keepdims=True
leaf 4.0
div 42,43
leaf 1.0
sub 45,44
leaf 2.0
div 47,46
mul 38,1
sum 49 axis=-1 keepdims=True
mul 38,38
sum 51 axis=-1 keepdims=True
leaf 2.0
mul 53,50
leaf 4.0
div 52,55
leaf 1.0
sub 57,56
leaf 2.0
mul 59,58
mul 60,40
div 54,61
leaf 2.0
mul 63,48
mul 64,40
asinh 62
mul 65,66
reshape 67 shape=(2, 2)
"""


def test_merged_formulas_record_the_same_nodes():
    x = [[0.1, 0.2, -0.3], [0.0, 0.5, 0.1]]
    with node_log() as log:
        tape = dc.Tape()
        dg.mobius_add(tape.constant(x), tape.constant([[0.3, -0.1, 0.2], [0.4, 0.0, -0.2]]),
                      2.0)
    assert len(log) == len(tape.nodes)
    assert _node_lines(log) == _MOBIUS_ADD_NODES.strip("\n").split("\n")
    with node_log() as log:
        tape = dc.Tape()
        dg.mlr_scores(tape.constant(x), tape.constant([[1.0, 0.0, 0.5], [0.2, -1.0, 0.3]]),
                      tape.constant([[0.1, 0.1, 0.0], [-0.2, 0.0, 0.1]]), 2.0)
    assert len(log) == len(tape.nodes)
    assert _node_lines(log) == _MLR_SCORES_NODES.strip("\n").split("\n")


def test_constant_subgraph_gets_no_vjp_call(monkeypatch):
    calls = {"exp": 0, "tanh": 0}
    for op in calls:
        (vjp,) = dc._BACKWARD[op]

        def counted(*args, _vjp=vjp, _op=op):
            calls[_op] += 1
            return _vjp(*args)

        monkeypatch.setitem(dc._BACKWARD, op, (counted,))
    rng = np.random.default_rng(4)
    x0, c0 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))

    def build(tape, x):
        const = tape.constant(c0)
        return dc.tsum(dc.tanh(x) * (dc.exp(const) * const))  # exp sees constants only

    report = _gradcheck_scalar_fn(build, x0)
    assert report.passed, report
    assert calls == {"exp": 0, "tanh": 1}


def test_unbroadcast_sums_broadcast_axes():
    g = np.arange(12.0).reshape(3, 4)
    assert dc._unbroadcast(g, (3, 4)) is g
    np.testing.assert_array_equal(dc._unbroadcast(g, (1, 4)), g.sum(axis=0, keepdims=True))
    np.testing.assert_array_equal(dc._unbroadcast(g, (4,)), g.sum(axis=0))
    np.testing.assert_array_equal(dc._unbroadcast(g, (3, 1)), g.sum(axis=1, keepdims=True))
    assert dc._unbroadcast(g, ()).shape == () and dc._unbroadcast(g, ()) == g.sum()


# ---------------------------------------------------------------------------
# diffgeom agrees with the pure-numpy kernels
# ---------------------------------------------------------------------------

def test_diffgeom_matches_geometry_kernels(rng):
    x = random_ball_points(rng, 8, 3, radius=0.7)
    y = random_ball_points(rng, 8, 3, radius=0.7)
    w = rng.normal(size=(3, 3))
    tape = dc.Tape()
    tx, ty = tape.constant(x), tape.constant(y)
    np.testing.assert_allclose(dg.mobius_add(tx, ty).value, geo.mobius_add(x, y), atol=1e-12)
    np.testing.assert_allclose(dg.logmap0(tx).value,
                               geo.log_map_poincare(np.zeros(3), x), atol=1e-12)
    np.testing.assert_allclose(dg.expmap0(tx).value,
                               geo.exp_map_poincare(np.zeros(3), x), atol=1e-12)
    np.testing.assert_allclose(dg.mobius_matvec(tx, tape.constant(w)).value,
                               geo.mobius_matvec(x, w), atol=1e-12)


def _terms(x, y, c):
    """The size of the terms that x (+)_c y sums: any form of it rounds by a
    few units of 1e-16 of this, which is large where its terms cancel."""
    xy, x2, y2 = 2.0 * geo._inner(x, y) / c**2, geo._inner(x, x) / c**2, geo._inner(y, y) / c**2
    n = np.sqrt(x2 * c * c), np.sqrt(y2 * c * c)
    return (np.abs(1.0 + xy + y2) * n[0] + np.abs(1.0 - x2) * n[1]
            + c * (1.0 + np.abs(xy) + x2 * y2)) / np.abs(1.0 + xy + x2 * y2)


@settings(max_examples=300, deadline=None, database=None)
@given(_ball_rows(c=1.0), st.integers(0, 2**32 - 1))
def test_fused_ball_kernels_agree_with_the_tape_maps(case, seed):
    # geometry's fused kernels against diffgeom's maps on rows inside the
    # unit ball, on and next to its shell, at the origin and subnormal.  Each ball
    # point's carried norms square to its rows' within a few roundings of c^2,
    # the accuracy its next kernel needs (a Mobius addition adds the square to
    # 1; near 0, artanh(n) / n is 1 + n^2 / 3).  Each result differs from the
    # tape's by a few rounding errors of the terms it sums, scaled by the slope
    # of artanh (1 / (1 - r^2), 5e4 at the shell) where the map takes one.
    c, raw = case
    eps = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    x, nx = geo._project(raw)
    y, ny = x[::-1].copy(), nx[::-1].copy()
    n = x.shape[-1]
    weight, normals = rng.normal(size=(n, n)), rng.normal(size=(3, n))
    # the last offset lies toward the first row, where w's two terms cancel
    offsets = np.concatenate([geo.project_to_ball(0.3 * c * rng.normal(size=(2, n)), c),
                              0.9 * x.reshape(-1, n)[:1]])
    tape = dc.Tape()
    tx, ty = tape.constant(x), tape.constant(y)
    exp, matvec, add = (geo._expmap0(4.0 * c * x), geo._matvec(x, nx, weight),
                        geo._mobius_add_rows(x, nx, y, ny))
    for value, norms in ((x, nx), exp, matvec, add):  # as good as measured, squared
        assert np.all(np.abs(norms * norms - geo._inner(value, value)) <= 16.0 * eps * c * c)
    room = 1.0 - (nx / c) ** 2
    assert np.all(np.abs(exp[0] - dg.expmap0(tape.constant(4.0 * c * x), c).value) <= 4 * eps * c)
    log = dg.logmap0(tx, c).value
    assert np.all(np.abs(geo._logmap0(x, nx) - log) <= 4 * eps * (geo._norm(log) / room))
    want = dg.mobius_matvec(tx, tape.constant(weight), c).value
    assert np.all(np.abs(matvec[0] - want) <= 4 * eps * c / room)
    assert np.all(np.abs(add[0] - dg.mobius_add(tx, ty, c).value) <= 4 * eps * _terms(x, y, c))
    rows, row_norms = x.reshape(-1, n), nx.reshape(-1, 1)
    want = dg.mlr_scores(tape.constant(rows), tape.constant(normals), tape.constant(offsets),
                         c).value
    # a score's slope along w is c lambda_p ||a|| / (1 - ||w||^2 / c^2) / c
    w = geo.mobius_add(-offsets, rows[:, None, :], c)
    room = 1.0 - (geo._norm(w)[..., 0] / c) ** 2
    slope = (geo.conformal_factor(offsets, c) * geo._norm(normals))[..., 0] / room
    bound = 32 * eps * (np.abs(want).max(axis=-1, keepdims=True) / room
                        + slope * _terms(-offsets, rows[:, None, :], c)[..., 0])
    assert np.all(np.abs(geo._mlr_scores(rows, row_norms, normals, offsets) - want) <= bound)


# ---------------------------------------------------------------------------
# Reference tape: the record, ball projection and backward walk as first
# written, kept as the oracle the faster ones must match bit for bit
# ---------------------------------------------------------------------------

def _reference_leaf(self, data, requires_grad=False):
    value = np.asarray(data, dtype=float)
    self.nodes.append(Recorded("leaf", (), value, {}, requires_grad))
    return dc.Tensor(self, len(self.nodes) - 1, value)


def _reference_record(self, op, inputs, value, *, _hi=None, _lo=None, _inputs=False,
                      _out=False, **attrs):
    nodes = self.nodes
    if not np.isfinite(value).all():
        raise dc.TapeError(f"non-finite value at node {len(nodes)} (op {op})")
    ids = tuple([t.nid for t in inputs])
    requires_grad = any([nodes[j].requires_grad for j in ids])
    nodes.append(Recorded(op, ids, value, attrs, requires_grad))
    return dc.Tensor(self, len(nodes) - 1, value)


def _reference_tape(m):
    """Patch ``m`` so that tapes keep every node whole, as first written:
    ``tape.nodes`` holds a ``Recorded`` per node, with its value."""
    m.setattr(dc.Tape, "leaf", _reference_leaf)
    m.setattr(dc.Tape, "record", _reference_record)


def _reference_ball_project(a, max_norm):
    x = a.value
    n = np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
    inside = n < max_norm
    factor = np.where(inside, 1.0, max_norm / np.maximum(n, dc._TINY))
    return a.tape.record("ball_project", (a,), x * factor, max_norm=max_norm, inside=inside)


def _reference_unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            if axis == len(shape) - 1:
                grad = np.einsum("...i->...", grad)[..., None]
            else:
                grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _reference_expand_reduced(g, x_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, x_shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, x_shape)


def _reference_max_bwd(g, out, v, at):
    x = v[0]
    axis, keepdims = at["axis"], at["keepdims"]
    out_k = out if (keepdims or axis is None) else np.expand_dims(out, axis)
    if axis is None:
        out_k = np.broadcast_to(out_k, np.shape(x)) if np.ndim(out_k) else out_k
    mask = (x == out_k).astype(float)
    count = np.sum(mask, axis=axis, keepdims=True) if axis is not None else np.sum(mask)
    return _reference_expand_reduced(g, np.shape(x), axis, keepdims) * mask / count


# The VJP rules as first written of every op whose rule has since been
# rewritten with the same bits (matmul, sum, max, clip_min, ball_project), so
# that the reference walk checks a new rule against the old one and not
# against itself.  The mul, div and norm rules were rewritten to sum over the
# last axis before they widen, which moves their last bits, so the reference
# walk runs their new forms; _OLD_RULES keeps their old forms, and each new
# rule is held to its old form within the rounding bound of an n-term sum.
_REFERENCE_RULES = {
    "matmul": (lambda g, out, v, at: g @ np.swapaxes(v[1], -1, -2),
               lambda g, out, v, at: np.swapaxes(v[0], -1, -2) @ g),
    "sum": (lambda g, out, v, at: _reference_expand_reduced(g, np.shape(v[0]), at["axis"],
                                                            at["keepdims"]),),
    "max": (_reference_max_bwd,),
    "clip_min": (lambda g, out, v, at: g * (v[0] > at["floor"]),),
    "ball_project": (lambda g, out, v, at: g * at["inside"],),
}


def _reference_backward(tape, output):
    """Leaf gradients keyed by node id, on a tape recorded under
    ``_reference_tape``."""
    rules = {**dc._BACKWARD, **_REFERENCE_RULES}
    nodes = tape.nodes
    grads = {output.nid: np.ones_like(np.asarray(nodes[output.nid].value, dtype=float))}
    for nid in range(output.nid, -1, -1):
        node = nodes[nid]
        if not node.requires_grad or node.op == "leaf" or nid not in grads:
            continue
        g = grads.pop(nid)
        vals = [nodes[j].value for j in node.inputs]
        for j, vjp in zip(node.inputs, rules[node.op]):
            src = nodes[j]
            if not src.requires_grad:
                continue
            pg = _reference_unbroadcast(vjp(g, node.value, vals, node.attrs), src.value.shape)
            if j in grads:
                grads[j] = grads[j] + pg
            else:
                grads[j] = pg
    return {nid: grads.get(nid, np.zeros_like(np.asarray(node.value, dtype=float)))
            for nid, node in enumerate(nodes) if node.op == "leaf" and node.requires_grad}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _classifier_step(geometry):
    """One training step's tape and leaf gradients (by node id), with dropout
    and residuals on and some input rows outside the ball."""
    cfg = hf.TransformerConfig(geometry=geometry, model_dim=8, num_layers=2, num_heads=2,
                               head_dim=4, ffn_dim=12, num_classes=3, dropout=0.2,
                               use_residual=True)
    rng = np.random.default_rng(12)
    params = hf.init_params(cfg, rng)
    points = random_ball_points(rng, 20, 8, radius=0.9).reshape(4, 5, 8)
    points[0, :2] *= 3.0  # outside the ball: the first projection clamps them
    unk = np.zeros((4, 5, 1))
    unk[1, 3] = 1.0
    mask = np.ones((4, 5))
    mask[2, 3:] = 0.0
    mask[3, 4:] = 0.0
    labels = np.array([0, 2, 1, 2])
    tape, _, _, loss = train._forward_batch(params, points, unk, mask, labels, cfg,
                                            rng=np.random.default_rng(13), training=True)
    return tape, loss


@pytest.mark.parametrize("geometry", hf.GEOMETRIES)
def test_tape_equals_reference_bit_for_bit(monkeypatch, geometry):
    with monkeypatch.context() as m:
        _reference_tape(m)
        m.setattr(dc, "ball_project", _reference_ball_project)
        ref_tape, ref_loss = _classifier_step(geometry)
    ref_grads = _reference_backward(ref_tape, ref_loss)
    with node_log() as log:  # every value the tape recorded, which its nodes keep only in part
        tape, loss = _classifier_step(geometry)
    grads = {t.nid: g for t, g in dc.backward(tape, loss).items()}

    assert len(tape.nodes) == len(log) == len(ref_tape.nodes)
    for nid, (node, logged, ref) in enumerate(zip(tape.nodes, log, ref_tape.nodes)):
        assert (node.op, logged.inputs, node.requires_grad) == (ref.op, ref.inputs,
                                                                ref.requires_grad), nid
        assert _same_bits(logged.value, ref.value), (nid, node.op)
    assert grads.keys() == ref_grads.keys() and grads
    for nid, g in grads.items():
        assert _same_bits(g, ref_grads[nid]), nid
    projections = [n.attrs["inside"] for n in tape.nodes if n.op == "ball_project"]
    if geometry == "poincare":  # both ball_project paths ran
        assert any(inside.all() for inside in projections)
        assert any(not inside.all() for inside in projections)
    else:
        assert not projections


# (geometry, shape, batch, length, input radius, init gain, positional scale),
# each where no row of the base point reaches the ball's shell.  At dim 100 a
# positional scale of 1 puts exp_0 of the encodings on the shell, so the
# paper-size cases take 0.1.
_DIRECTIONAL_CASES = {
    "poincare-desk": ("poincare", dict(model_dim=8, num_heads=2, head_dim=4, ffn_dim=12),
                      4, 5, 0.3, 0.3, 1.0),
    "euclidean-desk": ("euclidean", dict(model_dim=8, num_heads=2, head_dim=4, ffn_dim=12),
                       4, 5, 0.6, 1.0, 1.0),
    "poincare-paper": ("poincare", dict(model_dim=100, num_heads=4, head_dim=25, ffn_dim=200),
                       2, 64, 0.5, 0.5, 0.1),
    "euclidean-paper": ("euclidean", dict(model_dim=100, num_heads=4, head_dim=25, ffn_dim=200),
                        2, 64, 0.5, 1.0, 0.1),
}


@pytest.mark.parametrize("case", sorted(_DIRECTIONAL_CASES))
def test_whole_model_directional_derivatives_match_central_differences(case):
    # the tape's gradient of the whole parameter vector, along 6 random unit
    # directions, against central differences of recorded losses, with
    # 2 layers, residuals, dropout of fixed masks, UNK slots and padding
    geometry, shape, batch, length, radius, gain, pe_scale = _DIRECTIONAL_CASES[case]
    cfg = hf.TransformerConfig(geometry=geometry, num_layers=2, num_classes=3, dropout=0.2,
                               use_residual=True, max_seq_len=length, pe_scale=pe_scale,
                               **shape)
    rng = np.random.default_rng(17)
    params = hf.init_params(cfg, rng, gain=gain)
    for name in sorted(hf.manifold_param_names(cfg) | {"unk"}):  # off the origin
        params[name] = params[name] + rng.normal(0.0, 0.02, params[name].shape)
    unk = (rng.random((batch, length, 1)) < 0.2).astype(float)
    points = random_ball_points(rng, batch * length, cfg.model_dim, radius=radius)
    points = points.reshape(batch, length, cfg.model_dim) * (1.0 - unk)
    mask = np.ones((batch, length))
    for row in range(1, batch):
        mask[row, length - row:] = 0.0
        points[row, length - row:] = 0.0
        unk[row, length - row:] = 0.0
    assert unk.any() and not mask.all()
    labels = rng.integers(0, cfg.num_classes, size=batch)

    def forward(p):
        return train._forward_batch(p, points, unk, mask, labels, cfg,
                                    rng=np.random.default_rng(18), training=True)

    tape, tensors, _, loss = forward(params)
    projections = [n for n in tape.nodes if n.op == "ball_project"]
    assert (len(projections) > 0) == (geometry == "poincare")
    assert not any(n.attrs["clamped"] for n in projections)  # no row clamps
    grads = dc.backward(tape, loss)
    names = sorted(params)
    analytic, numeric = [], []
    h = 1e-5
    for _ in range(6):
        v = {n: rng.normal(size=params[n].shape) for n in names}
        scale = np.sqrt(sum(np.sum(v[n] * v[n]) for n in names))
        v = {n: v[n] / scale for n in names}
        analytic.append(sum(float(np.sum(grads[tensors[n]] * v[n])) for n in names))
        up, down = (float(forward({n: params[n] + s * h * v[n] for n in names})[3].value)
                    for s in (1.0, -1.0))
        numeric.append((up - down) / (2.0 * h))
    analytic, numeric = np.array(analytic), np.array(numeric)
    err = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(analytic)),
                                                   np.max(np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic)) > 1e-4 and err < 1e-4, (err, analytic, numeric)


@pytest.mark.parametrize("x", [
    np.array([[3.0, 4.0, 0.0], [0.0, -5.0, 0.0]]),
    np.zeros((2, 3)),
    np.array([[0.1, -0.2, 0.3], [0.0, 0.4, -0.0]]),
    np.array([[0.5, 1.0, 2.0], [1.5, 0.25, 0.75]]),
    np.array([[3.0, 4.0, 0.0], [6.0, 8.0, 1.0], [0.1, 0.2, 0.3]]),
    np.zeros((0, 3)),
], ids=["rows-at-max-norm", "zero-rows", "inside-some-at-floor", "inside-above-floor",
        "at-past-and-inside", "no-rows"])
def test_vjp_rules_equal_the_reference_at_the_boundaries(x):
    # max_norm 5 puts the rows of norm 5 exactly on the shell, where they are
    # clamped; the clip_min floor 0 is met by the zeros and -0.0
    max_norm, floor = 5.0, 0.0

    def build():
        tape = dc.Tape()
        tx = tape.leaf(x, requires_grad=True)
        projected = dc.ball_project(tx, max_norm)
        clipped = dc.clip_min(tx, floor)
        rows = dc.tsum(dc.matmul(projected, dc.swap_last(clipped)), axis=-1)
        cols = dc.tsum(projected * clipped, axis=0, keepdims=True)
        # ty's gradient is -0.0 throughout, which pins the sign of a zero
        ty = tape.leaf(x, requires_grad=True)
        loss = (dc.tsum(rows * rows) + dc.tsum(cols * tape.constant([1.0, -2.0, 3.0]))
                + dc.tsum(dc.tmax(clipped, axis=-1)) + dc.tsum(projected)
                + dc.tsum(dc.tsum(ty, axis=0) * tape.constant(-0.0)))
        return tape, (tx, ty, projected, clipped), loss

    with pytest.MonkeyPatch.context() as m:
        _reference_tape(m)
        ref_tape, _, ref_loss = build()
    ref = _reference_backward(ref_tape, ref_loss)
    tape, (tx, ty, projected, clipped), loss = build()
    grads = {t.nid: g for t, g in dc.backward(tape, loss).items()}
    assert grads.keys() == ref.keys() == {tx.nid, ty.nid}
    for nid, g in grads.items():
        assert _same_bits(g, ref[nid]), nid
    # each rule passes the gradient through itself exactly when its mask is all true
    g = np.ones_like(x)
    for t, passes in ((projected, (np.linalg.norm(x, axis=-1) < max_norm).all()),
                      (clipped, (x > floor).all())):
        node = tape.nodes[t.nid]
        (rule,) = dc._BACKWARD[node.op]
        assert (rule(g, node, [x], node.attrs) is g) == passes, node.op


# ---------------------------------------------------------------------------
# The maps widen once: each per-row coefficient meets its rows in one product,
# and the mul, div and norm VJPs sum over the last axis before they widen
# ---------------------------------------------------------------------------

# the mul, div and norm VJP rules before they summed over the last axis first
_OLD_RULES = {
    "mul": (lambda g, out, v, at: g * v[1], lambda g, out, v, at: g * v[0]),
    "div": (lambda g, out, v, at: g / v[1], lambda g, out, v, at: -g * v[0] / (v[1] * v[1])),
    "norm": (lambda g, out, v, at: g * v[0] / np.maximum(out, dc._TINY),),
}


def _gamma(k):
    """k u / (1 - k u), with u the unit roundoff: the bound on the relative
    error of k rounded operations, which holds for a k-term sum of products
    in any order."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _rows(rng, shape, norms):
    """Rows of random direction with the given norms (broadcast over rows)."""
    d = rng.normal(size=shape)
    return d / np.linalg.norm(d, axis=-1, keepdims=True) * norms


_EDGE_NORMS = [0.0, 1e-300, 1e-8, 0.5, 1 - geo.EPS_BOUNDARY - 1e-9, 1 - geo.EPS_BOUNDARY,
               3.0, 1e10]


@pytest.mark.parametrize("n", [2, 4, 25, 100])
def test_rewritten_vjps_equal_their_old_forms_within_the_rounding_of_a_sum(n):
    # each side is within gamma_{n+1} sum|terms| of the exact sum of the
    # terms the old rule summed, so the two are within twice that; an operand
    # of the same shape as the gradient keeps its bits
    rng = np.random.default_rng(n)
    norms = np.array(_EDGE_NORMS)[:, None, None]
    wide = _rows(rng, (len(_EDGE_NORMS), 3, n), norms)
    g = rng.normal(size=wide.shape)
    bound = 2 * _gamma(n + 1)
    for narrow in (rng.uniform(0.5, 2.0, size=wide.shape[:-1] + (1,)),
                   rng.uniform(0.5, 2.0, size=(3, 1))):
        for op, inputs, j, terms in (
                ("mul", [narrow, wide], 0, g * wide),
                ("mul", [wide, narrow], 1, g * wide),
                ("div", [wide, narrow], 1, g * wide / (narrow * narrow))):
            out = inputs[0] * inputs[1] if op == "mul" else inputs[0] / inputs[1]
            new = dc._BACKWARD[op][j](g, out, inputs, {})
            old = geo._sum_last(_OLD_RULES[op][j](g, out, inputs, {}))
            assert new.shape == wide.shape[:-1] + (1,), (op, j)  # summed before widening
            excess = np.abs(new - old) - bound * geo._sum_last(np.abs(terms))
            assert (excess <= 0).all(), (op, j, excess.max())
            k = 1 - j
            assert _same_bits(dc._BACKWARD[op][k](g, out, inputs, {}),
                              _OLD_RULES[op][k](g, out, inputs, {})), (op, k)
    out = geo._norm(wide)
    gn = rng.normal(size=out.shape)
    new = dc._BACKWARD["norm"][0](gn, out, [wide], {})
    old = _OLD_RULES["norm"][0](gn, out, [wide], {})
    excess = np.abs(new - old) - 2 * _gamma(2) * np.abs(gn * wide / np.maximum(out, dc._TINY))
    assert (excess <= 0).all(), excess.max()


@pytest.mark.parametrize("name", ["logmap0", "expmap0", "mobius_matvec"])
def test_each_map_widens_its_rows_once(name):
    # after its norms, a map makes one node as wide as its rows, the product
    # of the per-row coefficient and the rows, and then only its projection
    rng = np.random.default_rng(4)
    b, l, n = 2, 3, 5
    tape = dc.Tape()
    x = tape.leaf(_rows(rng, (b, l, n), 0.8), requires_grad=True)
    weight = tape.leaf(rng.normal(size=(n, n)), requires_grad=True)
    start = len(tape.nodes)
    getattr(dg, name)(x, *([weight] if name == "mobius_matvec" else []))
    ops = [(node.op, node.shape) for node in tape.nodes[start:]]
    after_norms = ops[max(i for i, (op, _) in enumerate(ops) if op == "norm") + 1:]
    wide = [op for op, shape in after_norms if shape == (b, l, n)]
    assert wide == (["mul"] if name == "logmap0" else ["mul", "ball_project"]), ops


# Rows at the origin and at the ball's shell, each with its finite-difference
# step.  Below the 1e-15 floor of a dividing norm a map is its clipped
# forward, c artanh(||x|| / c) / 1e-15 times the row, whose derivative at the
# origin is zero, not the map's identity, and its VJPs give that derivative; a
# step of 1e-30 stays below the floor.  A row of norm 1e-300 has a computed
# norm of 0.  At the shell a step of 1e-10 stays far inside the 1e-5 between
# the shell and the unit sphere, where artanh has its pole.
_EDGE_ROWS = {"zero": (0.0, 1e-30), "norm-1e-300": (1e-300, 1e-30),
              "on-the-shell": (1 - geo.EPS_BOUNDARY, 1e-10),
              "just-inside": (1 - geo.EPS_BOUNDARY - 1e-9, 1e-10)}


@pytest.mark.parametrize("rows", sorted(_EDGE_ROWS))
@pytest.mark.parametrize("case", ["mul", "mul-broadcast", "div", "norm", "logmap0", "expmap0",
                                  "mobius_matvec"])
def test_rewritten_vjps_match_finite_differences_at_the_origin_and_the_shell(case, rows):
    rng = np.random.default_rng(7)
    norm, h = _EDGE_ROWS[rows]
    wide = _rows(rng, (2, 3, 4), norm)
    narrow = rng.uniform(0.5, 2.0, size=(2, 3, 1))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))  # 0.5 q maps the shell inside it
    f, arrays = {
        "mul": (lambda a, x: a * x, [narrow, wide]),
        "mul-broadcast": (lambda a, x: x * a, [narrow[0], wide]),
        "div": (lambda a, x: x / a, [narrow, wide]),
        "norm": (dc.norm, [wide]),
        "logmap0": (dg.logmap0, [wide]),
        "expmap0": (dg.expmap0, [wide]),
        "mobius_matvec": (lambda x, w: dg.mobius_matvec(x, w), [wide, 0.5 * q]),
    }[case]
    tape = dc.Tape()
    probe = rng.normal(size=f(*(tape.constant(a) for a in arrays)).shape)
    for i, point in enumerate(arrays):
        def build(t, x, i=i):
            args = [x if j == i else t.constant(a) for j, a in enumerate(arrays)]
            return dc.tsum(f(*args) * t.constant(probe))

        report = _gradcheck_scalar_fn(build, point, h=h if point is wide else 1e-6)
        assert report.passed, f"{case} input {i}: {report}"


def test_expmap0_vjp_matches_finite_differences_just_inside_the_shell():
    # tangent rows whose images lie 1e-9 inside the shell, where tanh saturates
    rng = np.random.default_rng(8)
    v = _rows(rng, (2, 3, 4), np.arctanh(1 - geo.EPS_BOUNDARY - 1e-9))
    probe = rng.normal(size=v.shape)
    tape = dc.Tape()
    image = dg.expmap0(tape.constant(v))
    assert tape.nodes[-1].attrs["inside"].all()
    assert (np.linalg.norm(image.value, axis=-1) > 1 - geo.EPS_BOUNDARY - 2e-9).all()
    report = _gradcheck_scalar_fn(lambda t, x: dc.tsum(dg.expmap0(x) * t.constant(probe)), v,
                                  h=1e-10)
    assert report.passed, report


def test_backward_to_an_earlier_node_ignores_the_nodes_after_it():
    x0 = np.random.default_rng(2).normal(size=(3, 4))

    def build(tape):
        x = tape.leaf(x0, requires_grad=True)
        return x, dc.tsum(dg.logmap0(x * 0.1) * x)

    tape = dc.Tape()
    x, y = build(tape)
    dc.tsum(dc.exp(y) * x)  # nodes that require grad, after the output
    fresh = dc.Tape()
    xf, yf = build(fresh)
    assert _same_bits(dc.backward(tape, y)[x], dc.backward(fresh, yf)[xf])


_HUGE_OR_NON_FINITE = [np.nan, np.inf, -np.inf, 1.4e154, -1.5e154, 1e200, np.finfo(float).max]


@st.composite
def _recorded_values(draw):
    """A numpy scalar, or an array of shape (), (0, 3), (k,) or (b, l, n),
    possibly a non-contiguous view, with NaN, +-inf or entries whose squares
    overflow at drawn positions."""
    shape = draw(st.sampled_from([None, (), (0, 3)])
                 | st.tuples(st.integers(1, 6))
                 | st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5)))
    size = 1 if shape is None else int(np.prod(shape))
    flat = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=size, max_size=size)), dtype=float)
    for at, special in draw(st.lists(st.tuples(st.integers(0, max(size - 1, 0)),
                                               st.sampled_from(_HUGE_OR_NON_FINITE)),
                                     max_size=3 if size else 0)):
        flat[at] = special
    if shape is None:
        return np.float64(flat[0])
    value = flat.reshape(shape)
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided" and value.ndim:
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = value
        value = wide[..., ::2]
    elif layout == "transposed" and value.ndim > 1:
        value = np.ascontiguousarray(value.T).T
    return value


@settings(max_examples=300, deadline=None, database=None)
@given(_recorded_values(), st.integers(0, 3))
def test_record_refuses_exactly_the_non_finite_values(value, before):
    finite = bool(np.isfinite(value).all())
    tape = dc.Tape()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        x = tape.leaf(1.0, requires_grad=True)
        for _ in range(before):
            x = dc.neg(x)
        if finite:
            recorded = tape.record("probe", (x,), value)
            assert recorded.nid == before + 1 and recorded.value is value
        else:
            with pytest.raises(dc.TapeError) as info:
                tape.record("probe", (x,), value)
            assert str(info.value) == f"non-finite value at node {before + 1} (op probe)"
    assert len(tape.nodes) == before + 1 + finite


@pytest.mark.parametrize("bad, node, op", [(np.nan, 1, "ball_project"),
                                           (np.inf, 1, "ball_project"),
                                           (-np.inf, 1, "ball_project"),
                                           # the row of norm inf is clamped to zeros
                                           (1e200, 3, "mul")])
def test_a_projection_of_rows_that_are_not_finite_fails_at_the_same_node(bad, node, op):
    # a row that is not finite, or whose square overflows, has no norm below
    # the shell, so the projection clamps it into a new array, which is checked
    x = np.array([[0.1, 0.2], [bad, 0.3], [0.0, -0.0]])
    tape = dc.Tape()
    tx = tape.leaf(x, requires_grad=True)
    with np.errstate(all="ignore"), pytest.raises(dc.TapeError) as info:
        out = dc.ball_project(tx, 1.0 - geo.EPS_BOUNDARY)
        assert out.value is not tx.value and out.norms is None
        dc.norm(out)
        tx * tx
    assert str(info.value) == f"non-finite value at node {node} (op {op})"


def test_an_unclamped_projection_is_not_checked_again(monkeypatch):
    checked = []
    monkeypatch.setattr(dc, "_magnitude", lambda v: checked.append(v) or geo._magnitude(v))
    tape = dc.Tape()
    tx = tape.leaf(np.array([[0.1, 0.2], [0.0, -0.0]]), requires_grad=True)
    out = dc.ball_project(tx, 1.0 - geo.EPS_BOUNDARY)
    assert out.value is tx.value and not checked
    clamped = dc.ball_project(tx, 0.1)
    assert clamped.value is not tx.value and len(checked) == 1 and checked[0] is clamped.value


# ---------------------------------------------------------------------------
# Magnitude bounds: a value is scanned only when its op cannot bound it
# ---------------------------------------------------------------------------

def _with_bounds(t):
    """``t`` with its tightest bounds: its largest and smallest |entry|."""
    a = np.abs(t.value)
    t.hi, t.lo = float(a.max()), float(a.min())
    return t


# op -> (forward of two tensors and a drawn parameter, whether it takes a
# second tensor); the parameter is clip_min's floor and ball_project's radius
_BOUND_OPS = {
    "add": (lambda a, b, p: a + b, True),
    "sub": (lambda a, b, p: a - b, True),
    "mul": (lambda a, b, p: a * b, True),
    "div": (lambda a, b, p: a / b, True),
    "matmul": (lambda a, b, p: dc.matmul(a, b), True),
    "neg": (lambda a, b, p: -a, False),
    "exp": (lambda a, b, p: dc.exp(a), False),
    "log": (lambda a, b, p: dc.log(a), False),
    "tanh": (lambda a, b, p: dc.tanh(a), False),
    "atanh": (lambda a, b, p: dc.atanh(a), False),
    "asinh": (lambda a, b, p: dc.asinh(a), False),
    "relu": (lambda a, b, p: dc.relu(a), False),
    "softmax": (lambda a, b, p: dc.softmax(a), False),
    "norm": (lambda a, b, p: dc.norm(a), False),
    "norm-projected": (lambda a, b, p: dc.norm(dc.ball_project(a, abs(p))), False),
    "sum-last": (lambda a, b, p: dc.tsum(a, axis=-1, keepdims=True), False),
    "sum-first": (lambda a, b, p: dc.tsum(a, axis=0), False),
    "sum-all": (lambda a, b, p: dc.tsum(a), False),
    "max": (lambda a, b, p: dc.tmax(a, axis=-1, keepdims=True), False),
    "slice": (lambda a, b, p: a[::-1, 1:], False),
    "reshape": (lambda a, b, p: dc.reshape(a, a.shape[::-1]), False),
    "swap_last": (lambda a, b, p: dc.swap_last(a), False),
    "clip_min": (lambda a, b, p: dc.clip_min(a, p), False),
    "ball_project": (lambda a, b, p: dc.ball_project(a, abs(p)), False),
}


def _entries(draw, shape, low, high):
    """An array of ``shape`` whose entries have magnitudes 10**u, u drawn in
    [low, high], random signs and some exact zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(low, high, shape)
    return np.where(rng.random(shape) < draw(st.sampled_from([0.0, 0.2])), 0.0, x)


@settings(max_examples=400, deadline=None, database=None)
@given(st.sampled_from(sorted(_BOUND_OPS)), st.data())
def test_every_op_bound_holds_and_each_finite_value_is_scanned_only_where_its_rule_says(name,
                                                                                       data):
    forward, binary = _BOUND_OPS[name]
    low, high = data.draw(st.sampled_from([(-4.0, 0.0), (-2.0, 2.0), (0.0, 4.0)]))
    x = _entries(data.draw, (3, 4), low, high)
    if name == "atanh":  # inside (-1, 1), up to the largest double below 1
        x = np.clip(np.tanh(x), -np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0))
    tape = dc.Tape()
    a = _with_bounds(tape.constant(x))
    if name != "matmul" and data.draw(st.booleans()):  # a float is its own bound
        b = tape.leaf(float(_entries(data.draw, (), low, high)))
    else:
        b = _with_bounds(tape.constant(_entries(data.draw, (4, 2) if name == "matmul" else (3, 4),
                                                low, high)))
    param = data.draw(st.sampled_from([-1.0, 0.0, 1e-15, 0.5, 3.0]))
    scanned = []
    with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
        m.setattr(dc, "_magnitude", lambda v: scanned.append(v) or geo._magnitude(v))
        try:
            out = forward(a, b, param)
        except dc.TapeError:  # a log of a negative entry, a division by 0, an overflow
            out = None
    # every input is finite, so only these rules leave a value unproved
    unproved = {"log": True, "div": binary and b.lo == 0.0, "exp": a.hi >= 700.0,
                "atanh": a.hi >= 1.0 - 2.0 ** -20}
    assert len(scanned) == unproved.get(name, False)
    if out is not None:
        value = np.abs(out.value)
        assert np.all(value <= out.hi * (1.0 + 1e-12)), (out.hi, value.max())
        assert np.all(value >= out.lo), (out.lo, value.min())


# a leaf: an array, possibly with NaN, infinities, zeros, magnitudes from
# 1e150 to 1e300 or rows outside the unit ball, or a Python float
_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e150, -1e200, 1e300]
_CONSTANTS = [0.0, -0.0, 0.5, -2.0, 3.0, 1e-300, 1e150, -1e300, np.nan, np.inf]
_CHAIN_OPS = {**{name: forward for name, (forward, _) in _BOUND_OPS.items()},
              "swap-matmul": lambda a, b, p: dc.matmul(a, dc.swap_last(b))}


@st.composite
def _chains(draw):
    """Leaves and up to 10 steps, each an op, two indices into the tensors made
    so far and a parameter."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        x = rng.normal(size=(3, 3)) * 10.0 ** draw(st.sampled_from([-3, 0, 2, 150, 300]))
        for at, special in draw(st.lists(st.tuples(st.integers(0, 8), st.sampled_from(_SPECIAL)),
                                         max_size=2)):
            x.flat[at] = special
        arrays.append(x)
    constants = draw(st.lists(st.sampled_from(_CONSTANTS), max_size=3))
    steps = draw(st.lists(st.tuples(st.sampled_from(sorted(_CHAIN_OPS)), st.integers(0, 20),
                                    st.integers(0, 20),
                                    st.sampled_from([0.0, 1e-15, 0.9, 2.0, np.nan])),
                          min_size=1, max_size=10))
    return arrays, constants, steps


def _run_chain(arrays, constants, steps):
    """The value of each step that ran, and the text of the ``TapeError``
    that stopped the chain or None.  A step whose shapes do not fit is
    skipped, as it is on every tape."""
    tape = dc.Tape()
    made = [tape.leaf(x, requires_grad=True) for x in arrays] + [tape.leaf(f) for f in constants]
    values = []
    with np.errstate(all="ignore"):
        for name, i, j, param in steps:
            try:
                out = _CHAIN_OPS[name](made[i % len(made)], made[j % len(made)], param)
            except dc.TapeError as exc:
                return values, str(exc)
            except (ValueError, IndexError, TypeError):
                continue
            made.append(out)
            values.append(out.value)
    return values, None


@settings(max_examples=400, deadline=None, database=None)
@given(_chains())
@example(([np.ones((3, 3))], [2.0], [("neg", 1, 0, 0.0), ("log", 2, 0, 0.0)]))
@example(([np.ones((3, 3))], [0.0], [("div", 0, 1, 0.0)]))
@example(([np.full((3, 3), 0.5)], [], [("tanh", 0, 0, 0.0), ("atanh", 1, 0, 0.0),
                                       ("mul", 2, 2, 0.0), ("exp", 3, 0, 0.0)]))
@example(([np.full((3, 3), 1e200)], [], [("ball_project", 0, 0, 0.9), ("norm", 1, 0, 0.0),
                                         ("mul", 0, 0, 0.0)]))
def test_a_chain_of_bounded_ops_fails_where_a_tape_that_scans_every_value_does(chain):
    arrays, constants, steps = chain
    values, error = _run_chain(arrays, constants, steps)
    with pytest.MonkeyPatch.context() as m:
        _reference_tape(m)
        ref_values, ref_error = _run_chain(arrays, constants, steps)
    assert error == ref_error
    assert len(values) == len(ref_values)
    assert all(_same_bits(v, r) for v, r in zip(values, ref_values))


@pytest.mark.parametrize("geometry, values, most", [("poincare", 973, 70),
                                                     ("euclidean", 130, 40)])
def test_a_desk_forward_scans_only_the_values_its_bounds_leave_unproved(geometry, values, most):
    cfg, params, points, unk, mask, labels = tape_memory.step_inputs(geometry, "desk")
    counts = tape_memory.count_scans(
        lambda: train._forward_batch(params, points, unk, mask, labels, cfg))
    assert counts[0] == values and counts[1] <= most, counts


@pytest.mark.parametrize("c", [1.0, 0.25, 3.0])
def test_atanh_of_the_norms_an_unclamped_projection_measured_is_proved(c):
    # every row norm of an unclamped projection is below its max_norm, and so
    # is their ratio to c below 1 - 1e-5; a clamped projection carries no
    # norms, and the atanh of its rows' norms is scanned
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 16))
    x *= 0.9 * c / np.linalg.norm(x, axis=-1, keepdims=True)
    for rows, scans in ((x, 0), (x * 2.0, 1)):
        tape = dc.Tape()
        projected = dg.project(tape.leaf(rows), c)
        scanned = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dc, "_magnitude", lambda v: scanned.append(v) or geo._magnitude(v))
            n = dc.norm(projected)
            out = dc.atanh(n / c)
        assert len(scanned) == scans
        if not scans:
            assert n.hi == c * (1.0 - geo.EPS_BOUNDARY) and np.all(n.value < n.hi)
        assert np.all(np.abs(out.value) <= out.hi)


def test_the_norms_an_array_projection_carries_keep_log0_finite():
    # the array path's projection carries its rows' norms: an unclamped one
    # passes its rows and their norms through, a clamped one puts them on the
    # shell; either way the norms are below 1, and log_0 from them is finite
    # and agrees with the tape's, which measures its rows again
    c = 1.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 16))
    x *= 0.9 * c / np.linalg.norm(x, axis=-1, keepdims=True)
    shell = c * (1.0 - geo.EPS_BOUNDARY)
    eps = np.finfo(float).eps
    for rows, clamped in ((x, False), (x * 2.0, True)):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out, norms = geo._project(rows)
            log = geo._logmap0(out, norms)
        assert (out is not rows) == clamped
        if clamped:
            assert np.all(norms == shell)
        else:
            assert _same_bits(norms, geo._norm(rows)) and np.all(norms < shell)
        assert np.all(np.abs(norms - geo._norm(out)) <= 4 * eps * c)
        assert np.isfinite(log).all()
        want = dg.logmap0(dc.Tape().constant(out), c).value
        np.testing.assert_allclose(log, want, rtol=1e-9)


# ---------------------------------------------------------------------------
# Scalings by 1.0: the other operand and the gradient pass through
# ---------------------------------------------------------------------------

_ONE_FORMS = {"mul-left": lambda x, one: one * x, "mul-right": lambda x, one: x * one,
              "div": lambda x, one: x / one}


@pytest.mark.parametrize("form", sorted(_ONE_FORMS))
def test_a_scaling_by_the_float_one_passes_its_operand_and_gradient_through(form):
    tape = dc.Tape()
    x = tape.leaf(np.array([[0.5, -2.0], [3.0, -0.25]]), requires_grad=True)
    one = tape.leaf(1.0)
    assert one.value is dc._ONE and tape.leaf(1.0).value is dc._ONE
    assert not dc._ONE.flags.writeable
    out = _ONE_FORMS[form](x, one)
    assert out.value is x.value
    node = out.node
    # each leaf and the op are nodes, as without the shortcut
    assert node.op == form[:3] and [n.op for n in tape.nodes] == ["leaf"] * 3 + [node.op]
    g = np.array([[1.0, 2.0], [-3.0, 0.5]])
    rule = dc._BACKWARD[node.op][0 if form != "mul-left" else 1]
    assert rule(g, node, node.operands, node.attrs) is g
    reciprocal = one / x  # 1.0 as the dividend is no identity
    assert reciprocal.value is not x.value and _same_bits(reciprocal.value, 1.0 / x.value)


@pytest.mark.parametrize("form", sorted(_ONE_FORMS))
@pytest.mark.parametrize("constant", [-1.0, 1.0 + 2.0 ** -52, "array", 1],
                         ids=["minus-one", "one-plus-ulp", "array", "int"])
def test_a_scaling_by_any_other_one_takes_the_full_path(form, constant):
    tape = dc.Tape()
    x = tape.leaf(np.array([[0.5, -2.0], [3.0, 0.0]]), requires_grad=True)
    one = tape.leaf(np.asarray(1.0) if constant == "array" else constant)
    assert one.value is not dc._ONE
    out = _ONE_FORMS[form](x, one)
    expected = _ONE_FORMS[form](x.value, one.value)
    assert out.value is not x.value and _same_bits(out.value, expected)
    g = np.array([[1.0, 2.0], [-3.0, 0.5]])
    node = out.node
    pg = dc._BACKWARD[node.op][0 if form != "mul-left" else 1](g, node, node.operands, {})
    assert pg is not g and _same_bits(pg, g * one.value if node.op == "mul" else g / one.value)


def _without_the_one(m):
    """Patch ``m`` so that each leaf of 1.0 gets a fresh 1.0 array of its own,
    not ``_ONE``: its scalings run the full ``mul`` and ``div``."""
    leaf = dc.Tape.leaf

    def fresh_leaf(self, data, requires_grad=False):
        t = leaf(self, data, requires_grad)
        if t.value is dc._ONE:
            t.value = np.array(1.0)
        return t

    m.setattr(dc.Tape, "leaf", fresh_leaf)


def test_a_desk_step_has_the_same_bits_without_the_one_shortcut():
    cfg, params, points, unk, mask, labels = tape_memory.step_inputs("poincare", "desk")
    runs = []
    for shortcut in (True, False):
        with pytest.MonkeyPatch.context() as m:
            if not shortcut:
                _without_the_one(m)
            with node_log() as log:
                tape, tensors, _, loss = train._forward_batch(params, points, unk, mask,
                                                              labels, cfg)
            grads = dc.backward(tape, loss)
        passed = sum(r.op in ("mul", "div") and any(r.value is log[i].value for i in r.inputs)
                     for r in log)
        runs.append((passed, len(tape.nodes), np.asarray(loss.value).tobytes(),
                     [grads[tensors[name]].tobytes() for name in sorted(params)]))
    (passed, nodes, loss, grads), (ref_passed, ref_nodes, ref_loss, ref_grads) = runs
    assert passed == 178 and ref_passed == 0  # every scaling by the radius c = 1
    assert nodes == ref_nodes == 1251 and loss == ref_loss and grads == ref_grads


# ---------------------------------------------------------------------------
# Array forward: the recording tape's scores from geometry's fused kernels
# ---------------------------------------------------------------------------

_ORACLE_SHAPES = {
    "desk": dict(model_dim=16, num_heads=4, head_dim=4, ffn_dim=32),
    "paper": dict(model_dim=100, num_heads=4, head_dim=25, ffn_dim=200),
}


@st.composite
def _classifier_batches(draw):
    """A config and one batch whose rows lie inside the ball, on its last
    1e-5 of radius, or exactly at the origin; some positions are masked.
    The ball parameters lie off the origin, so every Mobius addition moves."""
    shape = draw(st.sampled_from(["small", *_ORACLE_SHAPES]))
    if shape == "small":
        dims = dict(model_dim=draw(st.integers(2, 5)), num_heads=draw(st.integers(1, 3)),
                    head_dim=draw(st.integers(1, 3)), ffn_dim=draw(st.integers(2, 6)))
    else:
        dims = _ORACLE_SHAPES[shape]
    cfg = hf.TransformerConfig(
        geometry=draw(st.sampled_from(hf.GEOMETRIES)), num_layers=draw(st.integers(1, 2)),
        num_classes=draw(st.integers(2, 4)), use_residual=draw(st.booleans()),
        pe_scale=draw(st.sampled_from([0.1, 1.0])), **dims)
    b, length = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    direction = rng.normal(size=(b * length, cfg.model_dim))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    kind = rng.integers(0, 3, size=(b * length, 1))
    radius = np.where(kind == 0, 0.9 * rng.random((b * length, 1)),
                      np.where(kind == 1, 1.0 - 1e-5 * rng.random((b * length, 1)), 0.0))
    points = (direction * radius).reshape(b, length, cfg.model_dim)
    unk = (rng.random((b, length, 1)) < 0.2).astype(float)
    mask = np.ones((b, length))
    for row, keep in enumerate(rng.integers(1, length + 1, size=b)):
        mask[row, keep:] = 0.0
        points[row, keep:] = 0.0
        unk[row, keep:] = 0.0
    params = hf.init_params(cfg, rng)
    for name in sorted(hf.manifold_param_names(cfg) | {"unk"}):
        shape = params[name].shape
        params[name] = random_ball_points(rng, int(np.prod(shape[:-1])), shape[-1],
                                          radius=0.5).reshape(shape)
    labels = rng.integers(0, cfg.num_classes, size=b)
    return cfg, params, points, unk, mask, labels


def _extended_forward(params, points, unk, mask, labels, cfg):
    """The array forward's scores and cross-entropy in np.longdouble."""
    ext = {name: value.astype(np.longdouble) for name, value in params.items()}
    with np.errstate(all="ignore"):
        pts = hf.embed_sequences(points.astype(np.longdouble), unk, ext["unk"])
        scores = hf.classifier_forward(ext, pts, mask, cfg)
        return scores, hf.cross_entropy(scores, labels)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@settings(max_examples=150, deadline=None, database=None)
@given(_classifier_batches())
def test_array_forward_scores_as_the_recording_tape(batch):
    # Both forwards are compared with the array forward in extended precision.
    # Near the shell a float64 forward is ill-conditioned (log_0's slope there
    # is 1 / (1 - r^2) = 5e4): the tape's own scores may lie 1e-11 of a row's
    # largest |score| from that reference, and no other rounding can then
    # agree with the tape to 1e-12.  So the array path must agree with the
    # tape to 1e-12 where the tape lies within 1e-14 of the reference (in
    # 3991 drawn batches on the ball it agreed to 1.6e-13 there), and lie
    # within 4e-12 of the reference plus 8 times the tape's own distance from
    # it everywhere (at most 0.9 of that bound in those batches).
    cfg, params, points, unk, mask, labels = batch
    _, _, recorded, recorded_loss = train._forward_batch(params, points, unk, mask, labels, cfg)
    scores, loss = train._score_batch(params, points, unk, mask, labels, cfg)
    want, want_loss = recorded.value, float(recorded_loss.value)
    if cfg.geometry == "euclidean":  # the same numpy calls, in the same order
        assert _same_bits(scores, want) and loss == want_loss
        return
    ref, ref_loss = _extended_forward(params, points, unk, mask, labels, cfg)
    scale = np.abs(want).max(axis=-1, keepdims=True)
    error, tape_error = (np.max(np.abs(s - ref) / scale) for s in (scores, want))
    if tape_error <= 1e-14:
        assert np.all(np.abs(scores - want) <= 1e-12 * scale)
    assert error <= 4e-12 + 8.0 * tape_error, (error, tape_error)
    ce_scale = max(float(scale.max()), 1.0)
    assert abs(loss - ref_loss) <= 4e-12 * ce_scale + 8.0 * abs(want_loss - ref_loss)
    top, second = np.sort(want, axis=-1)[:, :-3:-1].T
    decided = top - second > 1e-9
    assert np.array_equal(np.argmax(scores, axis=-1)[decided], np.argmax(want, axis=-1)[decided])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200],
                         ids=["nan", "+inf", "-inf", "1e200"])
@pytest.mark.parametrize("geometry", ["poincare", "euclidean"])
def test_the_array_forward_refuses_a_weight_that_is_not_finite_as_the_tape_does(geometry, bad):
    # one entry of the value projection that is not finite, or whose products
    # overflow, leaves no score finite: the recording tape refuses it at a
    # node, the array forward with NonFiniteScores, and no numpy warning
    cfg, params, points, unk, mask, labels = tape_memory.step_inputs(geometry, "desk")
    params = dict(params, **{"layer0.wv": params["layer0.wv"].copy()})
    params["layer0.wv"][0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(train.NonFiniteScores,
                           match=rf"^non-finite class scores or cross-entropy on a batch "
                                 rf"of {len(labels)} utterances$"):
            train._score_batch(params, points, unk, mask, labels, cfg)
    with np.errstate(all="ignore"), pytest.raises(dc.TapeError, match="^non-finite value at node"):
        train._forward_batch(params, points, unk, mask, labels, cfg)


def test_the_array_forward_refuses_finite_scores_whose_cross_entropy_is_not():
    # class biases of +-1e308 keep every score finite, but the cross-entropy
    # sums their exponentials past the largest float
    cfg, params, points, unk, mask, labels = tape_memory.step_inputs("euclidean", "desk")
    params = dict(params, out_b=np.where(np.arange(cfg.num_classes) % 2 == 0, 1e308, -1e308))
    with np.errstate(all="ignore"):
        scores = hf.classifier_forward(params, hf.embed_sequences(points, unk, params["unk"]),
                                       mask, cfg)
    assert np.isfinite(scores).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(train.NonFiniteScores):
            train._score_batch(params, points, unk, mask, labels, cfg)


def test_the_array_forward_scores_an_unk_point_whose_norm_overflows_as_the_tape_does():
    # both projections clamp a row whose norm overflows to zeros; the array
    # path's must carry the norm of that zero row, not the shell's, or every
    # kernel after it works from a norm the row does not have
    out, norms = geo._project(np.array([[1e200, 0.3]]))
    assert _same_bits(out, np.zeros((1, 2))) and _same_bits(norms, geo._norm(out))
    cfg, params, points, unk, mask, labels = tape_memory.step_inputs("poincare", "desk")
    params = dict(params, unk=np.array([1e200, 0.3] + [0.0] * (cfg.model_dim - 2)))
    unk, points = unk.copy(), points.copy()
    unk[:, ::2], points[:, ::2] = 1.0, 0.0  # every other slot is UNK, and holds +0.0
    with np.errstate(all="ignore"):
        _, _, recorded, recorded_loss = train._forward_batch(params, points, unk, mask, labels,
                                                             cfg)
    scores, loss = train._score_batch(params, points, unk, mask, labels, cfg)
    # the bound of test_array_forward_scores_as_the_recording_tape where the
    # tape is accurate: these rows lie inside the ball, away from its shell
    want, scale = recorded.value, np.abs(recorded.value).max(axis=-1, keepdims=True)
    assert np.all(np.abs(scores - want) <= 1e-12 * scale)
    assert abs(loss - float(recorded_loss.value)) <= 1e-12 * max(float(scale.max()), 1.0)
    assert np.array_equal(np.argmax(scores, axis=-1), np.argmax(want, axis=-1))


def _per_character_batch(token_map, utterances, max_len):
    """The encoder of earlier versions, one Python step and one numpy row per
    character, and its batch assembly: the oracle of the one-gather batch."""
    encoded = []
    for utterance in utterances:
        chars = list(utterance)[:max_len]
        rows = np.zeros((len(chars), token_map.dim))
        flags = np.zeros(len(chars))
        for i, ch in enumerate(chars):
            row = token_map.token_to_row.get(ch)
            if row is None:
                flags[i] = 1.0
            else:
                rows[i] = token_map.points[row]
        encoded.append((rows, flags))
    length = max(max(len(rows) for rows, _ in encoded), 1)
    points = np.zeros((len(utterances), length, token_map.dim))
    unk = np.zeros((len(utterances), length, 1))
    mask = np.zeros((len(utterances), length))
    for j, (rows, flags) in enumerate(encoded):
        points[j, :len(rows)] = rows
        unk[j, :len(rows), 0] = flags
        mask[j, :len(rows)] = 1.0
    return points, unk, mask


# known characters (ASCII, CJK, beyond the BMP) and characters with no row
_KNOWN = ["a", "b", "\u6e38", "\U0001f600", "\U0010ffff"]
_UNKNOWN = ["z", "\u6cf3", "\U0001f601"]


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 6),
       st.lists(st.text(st.sampled_from(_KNOWN + _UNKNOWN), max_size=9), min_size=1, max_size=5),
       st.data())
def test_batch_encoder_equals_the_per_character_oracle(dim, max_len, utterances, draw):
    coordinate = st.sampled_from([0.0, -0.0, 0.25, -0.5, 5e-324]) | st.floats(-0.9, 0.9)
    rows = draw.draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                              min_size=len(_KNOWN), max_size=len(_KNOWN)))
    token_map = train.TokenMap(_KNOWN, np.array(rows))
    expected = _per_character_batch(token_map, utterances, max_len)
    records = [(u, "x") for u in utterances]
    for got in (token_map.encode(utterances, max_len),
                train._build_batch(records, range(len(records)), token_map, max_len)):
        for a, b in zip(got, expected, strict=True):
            assert _same_bits(a, b)


def test_batch_with_an_empty_utterance_is_refused():
    token_map = train.TokenMap(["a", "b"], np.full((2, 4), 0.1))
    cfg = hf.TransformerConfig(model_dim=4, num_layers=1, num_heads=2, head_dim=2,
                               ffn_dim=4, num_classes=2)
    points, unk, mask = train._build_batch([("ab", "x"), ("", "y")], [0, 1], token_map, 8)
    assert mask.tolist() == [[1.0, 1.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="at least one unmasked position"):
        train._forward_batch(hf.init_params(cfg, np.random.default_rng(0)), points, unk,
                             mask, None, cfg)


def _tiny_evaluation(geometry):
    """A synthetic dataset of more than one evaluation batch, a token map and
    untrained parameters."""
    dataset = data.generate_synthetic_intents(3, 14, 20, seed=1, composites=1)
    chars = sorted({ch for utterance, _ in dataset.records for ch in utterance})
    rng = np.random.default_rng(2)
    token_map = train.TokenMap(chars, random_ball_points(rng, len(chars), 4, radius=0.8))
    cfg = hf.TransformerConfig(geometry=geometry, model_dim=4, num_layers=1, num_heads=2,
                               head_dim=2, ffn_dim=4, num_classes=3, max_seq_len=8)
    return dataset, token_map, hf.init_params(cfg, rng), cfg


@pytest.mark.parametrize("geometry", hf.GEOMETRIES)
def test_evaluate_classifier_scores_on_arrays_with_no_tape(monkeypatch, geometry):
    dataset, token_map, params, cfg = _tiny_evaluation(geometry)
    indices = list(range(len(dataset.records)))
    assert len(indices) > train.EVAL_BATCH_SIZE
    score = train._score_batch
    chunks = []

    def recording(params_np, points, unk, mask, labels, config):
        _, _, scores, loss = train._forward_batch(params_np, points, unk, mask, labels, config)
        return scores.value, float(loss.value)

    def spy(*args):
        chunks.append(args[1].shape)
        return score(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("evaluation made a tape")

    monkeypatch.setattr(train, "_score_batch", recording)
    expected = train.evaluate_classifier(dataset, indices, token_map, params, cfg)
    monkeypatch.setattr(train, "_score_batch", spy)
    monkeypatch.setattr(dc, "Tape", refuse)
    got = train.evaluate_classifier(dataset, indices, token_map, params, cfg)
    assert len(chunks) == 2 and got["accuracy"] == expected["accuracy"]
    if geometry == "euclidean":  # the same numpy calls as the tape's
        assert got == expected
    else:
        assert abs(got["cross_entropy"] - expected["cross_entropy"]) <= 1e-12


@pytest.mark.parametrize("geometry", hf.GEOMETRIES)
def test_evaluate_classifier_metrics_do_not_depend_on_index_order(geometry):
    dataset, token_map, params, cfg = _tiny_evaluation(geometry)
    indices = list(range(len(dataset.records)))
    shuffled = np.random.default_rng(0).permutation(indices).tolist()
    runs = [train.evaluate_classifier(dataset, order, token_map, params, cfg)
            for order in (indices, indices[::-1], shuffled)]
    assert runs[0] == runs[1] == runs[2]


def _spy_evaluation(monkeypatch, dataset, indices, token_map, params, cfg):
    """(row indices, mask) of every evaluation forward, in call order."""
    build, score = train._build_batch, train._score_batch
    rows, masks = [], []

    def build_spy(records, batch, *args):
        rows.append(list(batch))
        return build(records, batch, *args)

    def score_spy(params_np, points_np, unk_np, mask, *args):
        masks.append(mask)
        return score(params_np, points_np, unk_np, mask, *args)

    monkeypatch.setattr(train, "_build_batch", build_spy)
    monkeypatch.setattr(train, "_score_batch", score_spy)
    train.evaluate_classifier(dataset, indices, token_map, params, cfg)
    return list(zip(rows, masks, strict=True))


@pytest.mark.parametrize("geometry", hf.GEOMETRIES)
def test_evaluate_classifier_scores_rows_by_length_within_the_position_budget(
        monkeypatch, geometry):
    dataset, token_map, params, cfg = _tiny_evaluation(geometry)
    indices = np.random.default_rng(3).permutation(len(dataset.records)).tolist()
    forwards = _spy_evaluation(monkeypatch, dataset, indices, token_map, params, cfg)
    scored = [i for batch, _ in forwards for i in batch]
    assert sorted(scored) == sorted(indices)
    lengths = [min(len(dataset.records[i][0]), cfg.max_seq_len) for i in scored]
    assert lengths == sorted(lengths)
    for batch, mask in forwards:
        # each chunk is padded to its own longest row, no further
        assert mask.sum(axis=1).tolist() == [min(len(dataset.records[i][0]), cfg.max_seq_len)
                                             for i in batch]
        assert mask.shape[1] == mask.sum(axis=1).max()
        assert mask.size <= train.EVAL_BATCH_SIZE * cfg.max_seq_len
    # the chunks close greedily: the next row would not have fitted
    for (batch, mask), (following, _) in zip(forwards, forwards[1:]):
        next_length = min(len(dataset.records[following[0]][0]), cfg.max_seq_len)
        assert next_length * (len(batch) + 1) > train.EVAL_BATCH_SIZE * cfg.max_seq_len


def test_evaluate_classifier_forward_count_follows_the_lengths(monkeypatch):
    # max_seq_len 4 gives a budget of 32 * 4 = 128 positions.  Sorted by
    # length: 100 one-character rows fill 100 positions, and a length-4 row
    # would make 4 * 101.  The 35 rows of length 4 (five of them cut from 9)
    # then fill 32 * 4 = 128 and leave 3: three forwards, where 32-row
    # batches in data order would take five.
    chars = "abcdefghi"
    records = ([(chars[:9], "x")] * 5 + [(chars[:4], "y")] * 30
               + [(chars[i % 9], "x" if i % 2 else "y") for i in range(100)])
    dataset = data.make_dataset(records, holdout_fraction=0.0)
    rng = np.random.default_rng(4)
    token_map = train.TokenMap(list(chars), random_ball_points(rng, len(chars), 4, radius=0.8))
    cfg = hf.TransformerConfig(geometry="poincare", model_dim=4, num_layers=1, num_heads=2,
                               head_dim=2, ffn_dim=4, num_classes=2, max_seq_len=4)
    forwards = _spy_evaluation(monkeypatch, dataset, range(len(records)), token_map,
                               hf.init_params(cfg, rng), cfg)
    assert [mask.shape for _, mask in forwards] == [(100, 1), (32, 4), (3, 4)]


def test_evaluate_classifier_makes_fewer_full_width_inner_passes(monkeypatch):
    # the benchmark's classify-poincare sizes: 8 intents of 63 utterances,
    # 16-dimensional embeddings and the default classifier, two forwards.
    # Every _inner reads whole rows.  A recording tape's forward makes 98:
    # 31 norms and 67 projections.  On arrays each ball point carries the
    # norms its kernel knew, a Mobius addition makes one inner product, and
    # the MLR makes its class products by matmul, so a forward makes 73.
    dataset = data.generate_synthetic_intents(8, 63, 48, seed=1, composites=2, noise_len=3)
    chars = sorted({ch for utterance, _ in dataset.records for ch in utterance})
    rng = np.random.default_rng(5)
    token_map = train.TokenMap(chars, random_ball_points(rng, len(chars), 16, radius=0.8))
    cfg = hf.TransformerConfig(model_dim=16)
    params = hf.init_params(cfg, rng)
    inner, score = geo._inner, train._score_batch
    passes, chunks = [], []

    def counted(a, b):
        passes.append(np.shape(a)[-1])
        return inner(a, b)

    def recorded(*args):
        chunks.append(args[1:4])
        return score(*args)

    monkeypatch.setattr(geo, "_inner", counted)
    monkeypatch.setattr(dc, "_inner", counted)
    monkeypatch.setattr(train, "_score_batch", recorded)
    train.evaluate_classifier(dataset, range(len(dataset.records)), token_map, params, cfg)
    assert len(chunks) == 2 and len(passes) == 2 * 73 and min(passes) > 1
    del passes[:]
    for points, unk, mask in chunks:
        train._forward_batch(params, points, unk, mask, None, cfg)
    assert len(passes) == 2 * 98


def test_evaluate_classifier_refuses_no_indices():
    dataset, token_map, params, cfg = _tiny_evaluation("poincare")
    with pytest.raises(ValueError, match="at least one record index"):
        train.evaluate_classifier(dataset, [], token_map, params, cfg)


# ---------------------------------------------------------------------------
# Training holds one tape at a time
# ---------------------------------------------------------------------------

def _traced_peak(fn):
    """The most bytes that ``fn()`` held at once, above those live before it."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("geometry", hf.GEOMETRIES)
def test_train_classifier_frees_each_step_tape_before_the_next(geometry):
    # every utterance has 12 characters, so every step records a tape of one size
    rng = np.random.default_rng(7)
    chars = "abcdefghijklmnop"
    records = [("".join(rng.choice(list(chars), 12)), f"c{i % 3}") for i in range(24)]
    dataset = data.make_dataset(records, holdout_fraction=0.0)
    token_map = train.TokenMap(list(chars), random_ball_points(rng, len(chars), 8, radius=0.8))
    cfg = hf.TransformerConfig(geometry=geometry, model_dim=8, num_layers=2, num_heads=2,
                               head_dim=4, ffn_dim=16, num_classes=3, max_seq_len=12,
                               dropout=0.1)
    steps = train.TrainSettings(epochs=1, batch_size=8)
    assert len(dataset.train_indices) // steps.batch_size >= 3
    batch = dataset.train_indices[:steps.batch_size]
    params = hf.init_params(cfg, np.random.default_rng(0))
    points, unk, mask = train._build_batch(dataset.records, batch, token_map, cfg.max_seq_len)
    labels = np.array([dataset.label_to_id[dataset.records[i][1]] for i in batch])

    def one_step():
        tape, _, _, loss = train._forward_batch(params, points, unk, mask, labels, cfg,
                                                rng=np.random.default_rng(1), training=True)
        dc.backward(tape, loss)

    step_peak = _traced_peak(one_step)
    epoch_peak = _traced_peak(lambda: train.train_classifier(dataset, token_map, cfg, steps))
    assert epoch_peak <= 1.5 * step_peak, (epoch_peak / step_peak, step_peak)


@pytest.mark.parametrize("geometry, bound", [("poincare", 0.7), ("euclidean", 0.6)])
def test_a_forward_holds_well_under_the_arrays_it_recorded(geometry, bound):
    # a node keeps only what its VJP reads, so of the arrays a forward
    # records, those that no VJP reads are freed when the forward drops them;
    # a tape that kept every value would hold slightly more than all of them
    cfg = hf.TransformerConfig(geometry=geometry, model_dim=48, num_heads=4, head_dim=12,
                               ffn_dim=96, max_seq_len=32)
    rng = np.random.default_rng(0)
    params = hf.init_params(cfg, rng)
    points = rng.normal(size=(8, 32, 48))
    points *= 0.5 / np.linalg.norm(points, axis=-1, keepdims=True)
    unk, mask = np.zeros((8, 32, 1)), np.ones((8, 32))
    labels = rng.integers(0, cfg.num_classes, size=8)
    with recorded_bytes() as recorded:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step = train._forward_batch(params, points, unk, mask, labels, cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert len(step[0].nodes) > 0
    assert held <= bound * recorded[0], (held / recorded[0], held, recorded[0])


def test_tape_memory_harness_reports_an_evaluation_chunk_on_arrays(capsys):
    # the chunk is scored as evaluation scores it, with no tape, and its
    # forward peaks within 3.41 MB on the ball and 2.64 MB in flat space
    report = tape_memory.main(["--sizes", "eval", "--steps", "2"])
    assert json.loads(capsys.readouterr().out) == report
    assert "scans" not in report
    for geometry, bound in (("poincare", 3.41e6), ("euclidean", 2.64e6)):
        assert 0 < report["memory"]["eval"][geometry]["forward_peak_bytes"] <= bound
        assert report["forward_ms"]["eval"][geometry] > 0
        assert report["minor_faults"]["eval"][geometry] >= 0


def test_tape_memory_harness_reports_the_desk_step(capsys):
    report = tape_memory.main(["--sizes", "desk", "--steps", "2"])
    assert json.loads(capsys.readouterr().out) == report
    assert report["memory"]["desk"]["poincare"]["nodes"] == 1251
    assert report["memory"]["desk"]["euclidean"]["nodes"] == 166
    for geometry in hf.GEOMETRIES:
        memory = report["memory"]["desk"][geometry]
        assert memory["tape_bytes"] > 0
        assert 0 < memory["traced_after_forward_bytes"] <= memory["step_peak_bytes"]
        assert 0 < report["scans"]["desk"][geometry]["scanned"] < 200
        for key in ("step_ms", "forward_ms", "backward_ms", "update_ms"):
            assert report[key]["desk"][geometry] > 0
        assert report["minor_faults"]["desk"][geometry] >= 0
    assert report["scans"]["desk"]["poincare"]["values"] == 973
    # the harness times under the allocator policy that cli.main sets
    assert cli._keep_freed_pages.cache_info().currsize == 1
