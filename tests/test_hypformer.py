"""Tests for the transformer building blocks in both geometries and for the
model bundle format."""

import math
import weakref

import numpy as np
import pytest

from gyronet import bundle
from gyronet import diffcore as dc
from gyronet import diffgeom as dg
from gyronet import geometry as geo
from gyronet import hypformer as hf
from gyronet.checks import random_ball_points
from taperecord import node_log


def _config(**kw):
    base = dict(geometry="poincare", model_dim=4, num_layers=1, num_heads=2,
                head_dim=2, ffn_dim=4, num_classes=3, max_seq_len=8)
    base.update(kw)
    return hf.TransformerConfig(**base)


# ---------------------------------------------------------------------------
# Positional encodings
# ---------------------------------------------------------------------------

def test_positional_encoding_position_zero():
    np.testing.assert_array_equal(hf.positional_encoding_matrix(1, 6), [[0, 1, 0, 1, 0, 1]])


def test_positional_encoding_values():
    pe = hf.positional_encoding_matrix(2, 4)[1]
    np.testing.assert_allclose(pe[0], np.sin(1.0), atol=1e-12)
    np.testing.assert_allclose(pe[2], np.sin(1.0 / 100.0), atol=1e-12)
    np.testing.assert_allclose(pe[2], 0.0100, atol=1e-4)


def _positional_encoding_loop(pos, d):
    """The per-position loop of earlier versions: the oracle of the matrix."""
    pe = np.zeros(d)
    for i in range(0, d, 2):
        angle = pos / (10000.0 ** (i / d))
        pe[i] = np.sin(angle)
        if i + 1 < d:
            pe[i + 1] = np.cos(angle)
    return pe


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 16, 33, 100])
def test_positional_encoding_matrix_equals_the_loop_bit_for_bit(d):
    for length in range(1, 65):
        want = np.stack([_positional_encoding_loop(p, d) for p in range(length)])
        got = hf.positional_encoding_matrix(length, d)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (length, d)


def test_attach_positions():
    tape = dc.Tape()
    x = tape.constant([0.5, 0.0])
    pe0 = tape.constant([0.0, 0.0])
    np.testing.assert_allclose(hf.attach_positions(x, pe0, ball=True).value, [0.5, 0.0],
                               atol=1e-12)
    zero = tape.constant([0.0, 0.0])
    pe = tape.constant([0.3, 0.1])
    np.testing.assert_allclose(hf.attach_positions(zero, pe, ball=True).value,
                               geo.exp_map_poincare(np.zeros(2), np.array([0.3, 0.1])),
                               atol=1e-12)
    pe2 = tape.constant([np.arctanh(0.5), 0.0])
    np.testing.assert_allclose(hf.attach_positions(x, pe2, ball=True).value, [0.8, 0.0],
                               atol=1e-12)


def test_positions_on_the_shell_when_every_encoding_is_the_origin():
    # at model dim 1 the only encoding of one position is sin(0) = 0, which
    # no scale moves; that of a second position, sin(1), reaches the shell at
    # scale artanh(1 - 1e-5) / sin(1) = 7.2528
    assert hf.positions_on_the_shell(_config(model_dim=1, max_seq_len=1)) == (0, math.inf)
    assert hf.positions_on_the_shell(_config(model_dim=1, max_seq_len=2)) == (0, 7.25)
    assert hf.positions_on_the_shell(_config(model_dim=1, max_seq_len=2, pe_scale=7.26))[0] == 1


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def test_scaled_dot_attention_single_position():
    tape = dc.Tape()
    q = tape.constant([[0.3, 0.4]])
    v = tape.constant([[1.5, -2.0]])
    out = hf.scaled_dot_attention(q, q, v, None)
    np.testing.assert_allclose(out.value, [[1.5, -2.0]], atol=1e-12)


def test_scaled_dot_attention_identical_keys():
    tape = dc.Tape()
    q = tape.constant(np.ones((2, 2)))
    k = tape.constant(np.ones((3, 2)))
    v = tape.constant(np.arange(6.0).reshape(3, 2))
    out = hf.scaled_dot_attention(q, k, v, None)
    np.testing.assert_allclose(out.value, np.tile(v.value.mean(axis=0), (2, 1)),
                               atol=1e-12)


def test_scaled_dot_attention_hand_case():
    s = 2.0
    tape = dc.Tape()
    q = tape.constant(s * np.eye(2))
    v = tape.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = hf.scaled_dot_attention(q, q, v, None)
    logits = (s * np.eye(2)) @ (s * np.eye(2)).T / np.sqrt(2.0)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out.value, weights @ v.value, atol=1e-12)


def test_hyperbolic_attention_degenerate_cases(rng):
    tape = dc.Tape()
    origin = tape.constant(np.zeros((2, 3)))
    assert np.abs(hf.hyperbolic_attention(origin, origin, origin, None).value).max() == 0.0
    pt = tape.constant(random_ball_points(rng, 1, 3))
    out = hf.hyperbolic_attention(pt, pt, pt, None)
    np.testing.assert_allclose(out.value, pt.value, atol=1e-12)


def test_hyperbolic_attention_matches_manual_pipeline(rng):
    pts = random_ball_points(rng, 3, 4, radius=0.6)
    tape = dc.Tape()
    x = tape.constant(pts)
    out = hf.hyperbolic_attention(x, x, x, None).value
    t = geo.log_map_poincare(np.zeros(4), pts)
    logits = t @ t.T / np.sqrt(4.0)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = (e / e.sum(axis=-1, keepdims=True)) @ t
    manual = geo.exp_map_poincare(np.zeros(4), attn)
    np.testing.assert_allclose(out, manual, atol=1e-10)


def test_attention_mask_excludes_positions(rng):
    pts = random_ball_points(rng, 3, 4, radius=0.5)
    tape = dc.Tape()
    x2 = tape.constant(pts[:2])
    mask3 = tape.constant(np.array([0.0, 0.0, -1e9]))
    x3 = tape.constant(pts)
    out2 = hf.hyperbolic_attention(x2, x2, x2, None).value
    out3 = hf.hyperbolic_attention(x3[:2], x3, x3, mask3).value
    np.testing.assert_allclose(out2, out3, atol=1e-12)


# ---------------------------------------------------------------------------
# Heads
# ---------------------------------------------------------------------------

def test_split_heads_identity_single_head(rng):
    pts = random_ball_points(rng, 4, 3)
    tape = dc.Tape()
    x = tape.constant(pts)
    heads = hf.split_heads(x, 1, 3, ball=True)
    assert len(heads) == 1
    np.testing.assert_allclose(heads[0].value, pts, atol=1e-12)


def test_split_heads_origin_and_partition(rng):
    tape = dc.Tape()
    zero = tape.constant(np.zeros((2, 4)))
    for h in hf.split_heads(zero, 2, 2, ball=True):
        assert np.abs(h.value).max() == 0.0
    pts = random_ball_points(rng, 2, 4, radius=0.5)
    x = tape.constant(pts)
    parts = hf.split_heads(x, 2, 2, ball=True)
    np.testing.assert_array_equal(np.concatenate([p.value for p in parts], axis=-1), pts)


def test_merge_heads_definitions(rng):
    tape = dc.Tape()
    h1 = tape.constant(random_ball_points(rng, 1, 3, radius=0.5))
    h2 = tape.constant(random_ball_points(rng, 1, 3, radius=0.5))
    eye = tape.constant(np.eye(3))
    np.testing.assert_allclose(hf.merge_heads([h1], [eye], ball=True).value,
                               h1.value, atol=1e-12)
    zero = tape.constant(np.zeros((1, 3)))
    assert np.abs(hf.merge_heads([zero, zero], [eye, eye], ball=True).value).max() == 0.0
    m1 = tape.constant(rng.normal(size=(3, 3)) * 0.5)
    m2 = tape.constant(rng.normal(size=(3, 3)) * 0.5)
    merged = hf.merge_heads([h1, h2], [m1, m2], ball=True).value
    expect = geo.mobius_add(geo.mobius_matvec(h1.value, m1.value),
                            geo.mobius_matvec(h2.value, m2.value))
    np.testing.assert_allclose(merged, expect, atol=1e-10)


def test_merge_heads_order_dependence(rng):
    tape = dc.Tape()
    heads = [tape.constant(random_ball_points(rng, 1, 3, radius=0.6)) for _ in range(3)]
    mats = [tape.constant(rng.normal(size=(3, 3))) for _ in range(3)]
    fwd = hf.merge_heads(heads, mats, ball=True).value
    rev = hf.merge_heads(heads[::-1], mats[::-1], ball=True).value
    assert np.linalg.norm(fwd - rev) > 1e-6


# ---------------------------------------------------------------------------
# FFN / pooling / dropout
# ---------------------------------------------------------------------------

def test_hyperbolic_ffn_trivial_cases(rng):
    tape = dc.Tape()
    zero3 = tape.constant(np.zeros(3))
    eye = tape.constant(np.eye(3))
    out = hf.hyperbolic_ffn(zero3, eye, zero3, eye, zero3)
    assert np.abs(out.value).max() == 0.0
    # positive-coordinate point: lifted ReLU acts as identity, so M=I, b=0 gives x
    x = tape.constant(np.array([0.2, 0.1, 0.3]))
    out = hf.hyperbolic_ffn(x, eye, zero3, eye, zero3)
    np.testing.assert_allclose(out.value, x.value, atol=1e-10)


def test_hyperbolic_ffn_matches_composition(rng):
    x_np = random_ball_points(rng, 1, 2, radius=0.5)
    w1, w2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    b1, b2 = random_ball_points(rng, 1, 2, 0.3)[0], random_ball_points(rng, 1, 2, 0.3)[0]
    tape = dc.Tape()
    out = hf.hyperbolic_ffn(tape.constant(x_np), tape.constant(w1), tape.constant(b1),
                            tape.constant(w2), tape.constant(b2)).value
    h = geo.mobius_add(geo.mobius_matvec(x_np, w1), b1)
    origin = np.zeros_like(h)  # exp_0(ReLU(log_0(h)))
    h = geo.exp_map_poincare(origin, np.maximum(geo.log_map_poincare(origin, h), 0.0))
    manual = geo.mobius_add(geo.mobius_matvec(h, w2), b2)
    np.testing.assert_allclose(out, manual, atol=1e-10)


def test_pooling_cases(rng):
    tape = dc.Tape()
    pt = random_ball_points(rng, 1, 3, radius=0.5)
    single = tape.constant(pt[None])  # (1, 1, 3)
    keep = tape.constant(np.ones((1, 1, 1)))
    out = hf.pooled_representation(single, keep, ball=True)
    np.testing.assert_allclose(out.value[0], pt[0], atol=1e-10)
    same = tape.constant(np.repeat(pt[None], 4, axis=1))
    keep4 = tape.constant(np.ones((1, 4, 1)))
    out = hf.pooled_representation(same, keep4, ball=True)
    np.testing.assert_allclose(out.value[0], pt[0], atol=1e-10)


def test_pooling_two_points_value():
    tape = dc.Tape()
    pts = tape.constant(np.array([[[0.5, 0.0], [0.0, 0.5]]]))
    keep = tape.constant(np.ones((1, 2, 1)))
    out = hf.pooled_representation(pts, keep, ball=True)
    t = np.arctanh(0.5)
    expect = geo.exp_map_poincare(np.zeros(2), np.array([t, t]))
    np.testing.assert_allclose(out.value[0], expect, atol=1e-10)


def test_pooling_ignores_masked_positions(rng):
    tape = dc.Tape()
    pts = random_ball_points(rng, 3, 4, radius=0.5)
    full = tape.constant(pts[None])
    keep = tape.constant(np.array([1.0, 1.0, 0.0])[None, :, None])
    masked = hf.pooled_representation(full, keep, ball=True).value
    two = tape.constant(pts[None, :2])
    keep2 = tape.constant(np.ones((1, 2, 1)))
    np.testing.assert_allclose(masked, hf.pooled_representation(two, keep2, ball=True).value,
                               atol=1e-12)


def test_tangent_dropout_identity_cases(rng):
    tape = dc.Tape()
    x = tape.constant(random_ball_points(rng, 4, 3))
    out = hf.tangent_dropout(x, 0.0, rng, True, ball=True)
    assert out is x
    out = hf.tangent_dropout(x, 0.5, rng, False, ball=True)
    assert out is x


def test_tangent_dropout_unbiased(rng):
    pt = np.array([0.4, -0.2, 0.3])
    copies = np.repeat(pt[None], 20000, axis=0)
    tape = dc.Tape()
    x = tape.constant(copies)
    out = hf.tangent_dropout(x, 0.3, rng, True, ball=True)
    mean_t = dg.logmap0(out).value.mean(axis=0)
    target = geo.log_map_poincare(np.zeros(3), pt)
    assert np.abs(mean_t - target).max() / np.abs(target).max() < 0.05


# ---------------------------------------------------------------------------
# MLR and forward pass
# ---------------------------------------------------------------------------

def test_mlr_scores_origin_uniform(rng):
    tape = dc.Tape()
    x = tape.constant(np.zeros((2, 3)))
    a = tape.constant(rng.normal(size=(4, 3)))
    p = tape.constant(np.zeros((4, 3)))
    scores = dg.mlr_scores(x, a, p)
    np.testing.assert_allclose(scores.value, 0.0, atol=1e-12)
    probs = dc.softmax(scores).value
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_mlr_scores_scaling_structure(rng):
    x_np = random_ball_points(rng, 1, 3, radius=0.5)
    a_np = rng.normal(size=(1, 3))
    tape = dc.Tape()
    x = tape.constant(x_np)
    p0 = tape.constant(np.zeros((1, 3)))
    base = dg.mlr_scores(x, tape.constant(a_np), p0).value
    scaled = dg.mlr_scores(x, tape.constant(3.0 * a_np), p0).value
    np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-10)


def test_mlr_scores_matches_brute_force(rng):
    x_np = random_ball_points(rng, 1, 2, radius=0.6)
    a_np = rng.normal(size=(2, 2))
    p_np = random_ball_points(rng, 2, 2, radius=0.4)
    tape = dc.Tape()
    scores = dg.mlr_scores(tape.constant(x_np), tape.constant(a_np),
                           tape.constant(p_np)).value[0]
    for k in range(2):
        w = geo.mobius_add(-p_np[k], x_np[0])
        na = np.linalg.norm(a_np[k])
        lam = geo.conformal_factor(p_np[k])
        arg = 2.0 * (w @ a_np[k]) / ((1.0 - w @ w) * na)
        expect = lam * na * np.arcsinh(arg)
        np.testing.assert_allclose(scores[k], expect, atol=1e-10)


def _forward(config, rng, length=5, batch=2):
    params_np = hf.init_params(config, rng)
    tape = dc.Tape()
    params = {k: tape.leaf(v, requires_grad=True) for k, v in params_np.items()}
    if config.geometry == "poincare":
        pts = random_ball_points(rng, batch * length, config.model_dim, radius=0.4)
    else:
        pts = rng.normal(size=(batch * length, config.model_dim)) * 0.3
    pts = tape.constant(pts.reshape(batch, length, config.model_dim))
    mask = np.ones((batch, length))
    return tape, params, hf.classifier_forward(params, pts, mask, config)


def test_classifier_forward_probabilities(rng):
    for geometry in ("poincare", "euclidean"):
        cfg = _config(geometry=geometry)
        _, _, scores = _forward(cfg, rng)
        probs = dc.softmax(scores).value
        assert probs.shape == (2, cfg.num_classes)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs > 0)


def test_classifier_forward_single_class(rng):
    cfg = _config(num_classes=1)
    _, _, scores = _forward(cfg, rng)
    probs = dc.softmax(scores).value
    np.testing.assert_allclose(probs, 1.0, atol=1e-12)


def test_classifier_padding_invariance(rng):
    cfg = _config()
    params_np = hf.init_params(cfg, rng)
    pts = random_ball_points(rng, 4, cfg.model_dim, radius=0.4).reshape(1, 4, -1)
    padded = np.concatenate([pts, np.zeros((1, 3, cfg.model_dim))], axis=1)

    def run(points, mask):
        tape = dc.Tape()
        params = {k: tape.constant(v) for k, v in params_np.items()}
        return hf.classifier_forward(params, tape.constant(points), mask, cfg).value

    base = run(pts, np.ones((1, 4)))
    pad = run(padded, np.concatenate([np.ones((1, 4)), np.zeros((1, 3))], axis=1))
    np.testing.assert_allclose(base, pad, atol=1e-10)


@pytest.mark.parametrize("geometry", hf.GEOMETRIES)
def test_an_array_forward_frees_q_k_and_v_before_merging_heads(monkeypatch, rng, geometry):
    # merge_heads is where an evaluation forward's memory peaks; a layer's
    # q, k and v projections and their heads are no longer read there
    cfg = _config(geometry=geometry, num_layers=2)
    params = hf.init_params(cfg, rng)
    projections, alive = [], []
    matvec, merge_heads = hf._matvec, hf.merge_heads

    def kept_matvec(x, w, ball):
        out = matvec(x, w, ball)
        projections.append(weakref.ref(out.value if ball else out))
        return out

    def checked_merge_heads(heads, merge_w, ball):
        alive.append([ref() is not None for ref in projections[-3:]])  # this layer's q, k, v
        return merge_heads(heads, merge_w, ball)

    monkeypatch.setattr(hf, "_matvec", kept_matvec)
    monkeypatch.setattr(hf, "merge_heads", checked_merge_heads)
    points = random_ball_points(rng, 6, cfg.model_dim, radius=0.5).reshape(2, 3, -1)
    hf.classifier_forward(params, points, np.ones((2, 3)), cfg)
    assert alive == [[False] * 3] * cfg.num_layers


def test_classifier_rejects_fully_masked(rng):
    cfg = _config()
    params_np = hf.init_params(cfg, rng)
    tape = dc.Tape()
    params = {k: tape.constant(v) for k, v in params_np.items()}
    pts = tape.constant(np.zeros((1, 3, cfg.model_dim)))
    with pytest.raises(ValueError):
        hf.classifier_forward(params, pts, np.zeros((1, 3)), cfg)


def test_flat_limit_consistency(rng):
    """With tiny inputs the ball operations agree with their flat versions."""
    x = random_ball_points(rng, 6, 4, radius=0.01)
    y = random_ball_points(rng, 6, 4, radius=0.01)
    w = rng.normal(size=(4, 4)) * 0.2
    tape = dc.Tape()
    tx, ty, tw = tape.constant(x), tape.constant(y), tape.constant(w)
    assert np.abs(dg.mobius_add(tx, ty).value - (x + y)).max() < 1e-3
    assert np.abs(dg.mobius_matvec(tx, tw).value - x @ w).max() < 1e-3
    hyp = hf.hyperbolic_attention(tx, tx, tx, None).value
    flat = hf.scaled_dot_attention(tx, tx, tx, None).value
    assert np.abs(hyp - flat).max() < 1e-3
    zero = tape.constant(np.zeros(4))
    hyp_ffn = hf.hyperbolic_ffn(tx, tw, zero, tw, zero).value
    flat_ffn = hf.euclidean_ffn(tx, tw, zero, tw, zero).value
    assert np.abs(hyp_ffn - flat_ffn).max() < 1e-3


def test_blocks_flat_limit_is_euclidean(rng):
    """With ball=False the shared blocks are the plain euclidean formulas."""
    tape = dc.Tape()
    x_np = rng.normal(size=(2, 3, 4))
    x = tape.constant(x_np)
    heads = [rng.normal(size=(2, 3, 2)) for _ in range(3)]
    mats = [rng.normal(size=(2, 4)) for _ in range(3)]
    merged = hf.merge_heads([tape.constant(h) for h in heads],
                            [tape.constant(m) for m in mats], ball=False)
    np.testing.assert_allclose(merged.value, sum(h @ m for h, m in zip(heads, mats)),
                               atol=1e-12)
    keep = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])[..., None]
    pooled = hf.pooled_representation(x, tape.constant(keep), ball=False)
    np.testing.assert_array_equal(pooled.value, [x_np[0, :2].max(axis=0), x_np[1, 0]])
    dropped = hf.tangent_dropout(x, 0.4, np.random.default_rng(3), True, ball=False)
    mask = (np.random.default_rng(3).random(x_np.shape) >= 0.4) / 0.6
    np.testing.assert_array_equal(dropped.value, x_np * mask)
    pe = hf.positional_encoding_matrix(3, 4)
    np.testing.assert_array_equal(hf.attach_positions(x, tape.constant(pe), ball=False).value,
                                  x_np + pe)
    # attention and the FFN record the very ops of their flat references
    mask_bias = (-1e9) * (1.0 - keep.transpose(0, 2, 1))
    qkv = [rng.normal(size=(2, 3, 2)) for _ in range(3)] + [mask_bias]
    ffn = [x_np, rng.normal(size=(4, 5)), rng.normal(size=5), rng.normal(size=(5, 4)),
           rng.normal(size=4)]
    for block, reference, arrays in (
            (lambda *a: hf.hyperbolic_attention(*a, ball=False), hf.scaled_dot_attention, qkv),
            (lambda *a: hf.hyperbolic_ffn(*a, ball=False), hf.euclidean_ffn, ffn)):
        got, want = _recorded(block, arrays), _recorded(reference, arrays)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]


def _recorded(block, arrays):
    """Output value and (op, inputs) sequence of ``block`` on a new tape."""
    with node_log() as log:
        tape = dc.Tape()
        out = block(*[tape.constant(a) for a in arrays])
    assert len(log) == len(tape.nodes)
    return out.value, [(node.op, node.inputs) for node in log]


def test_euclidean_forward_calls_no_diffgeom(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("diffgeom called in flat space")

    for name, fn in list(vars(dg).items()):
        if callable(fn) and getattr(fn, "__module__", None) == dg.__name__:
            monkeypatch.setattr(dg, name, refuse)
    for residual in (False, True):
        cfg = _config(geometry="euclidean", num_layers=2, dropout=0.2, use_residual=residual)
        params_np = hf.init_params(cfg, rng)
        tape = dc.Tape()
        params = {k: tape.leaf(v, requires_grad=True) for k, v in params_np.items()}
        pts = tape.constant(rng.normal(size=(2, 5, cfg.model_dim)))
        scores = hf.classifier_forward(params, pts, np.ones((2, 5)), cfg,
                                       rng=rng, training=True)
        dc.backward(tape, hf.cross_entropy(scores, np.array([0, 2])))


def test_classifier_forward_clamps_points_into_the_ball(rng):
    cfg = _config(num_layers=2)
    params_np = hf.init_params(cfg, rng)
    outside = rng.normal(size=(2, 3, cfg.model_dim))
    outside *= 3.0 / np.linalg.norm(outside, axis=-1, keepdims=True)

    def scores(points):
        tape = dc.Tape()
        params = {k: tape.constant(v) for k, v in params_np.items()}
        return hf.classifier_forward(params, tape.constant(points),
                                     np.ones((2, 3)), cfg).value

    np.testing.assert_allclose(scores(outside), scores(geo.project_to_ball(outside)),
                               rtol=1e-12, atol=1e-12)


def test_intermediate_points_stay_in_ball(rng):
    cfg = _config(num_layers=2)
    with node_log() as log:
        tape, params, scores = _forward(cfg, rng)
    assert len(log) == len(tape.nodes)
    for node in log:
        assert np.all(np.isfinite(node.value))


def test_cross_entropy_values():
    tape = dc.Tape()
    scores = tape.constant(np.array([[10.0, 0.0], [0.0, 10.0]]))
    loss = hf.cross_entropy(scores, np.array([0, 1]))
    assert loss.value < 1e-3
    uniform = tape.constant(np.zeros((3, 4)))
    loss = hf.cross_entropy(uniform, np.array([0, 1, 2]))
    np.testing.assert_allclose(loss.value, np.log(4.0), atol=1e-12)


def test_config_round_trip():
    cfg = _config(dropout=0.3, pe_scale=0.5, use_residual=True)
    back = hf.TransformerConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError):
        hf.TransformerConfig(geometry="klein")
    with pytest.raises(ValueError):
        _config(dropout=1.0)


@pytest.mark.parametrize("key, value, message", [
    ("pe_scale", float("inf"), "pe_scale must be finite, got inf"),
    ("model_dim", 0, "model_dim must be >= 1, got 0"),
    ("num_layers", 0, "num_layers must be >= 1, got 0"),
    ("num_heads", 0, "num_heads must be >= 1, got 0"),
    ("head_dim", -2, "head_dim must be >= 1, got -2"),
    ("ffn_dim", 0, "ffn_dim must be >= 1, got 0"),
    ("num_classes", 0, "num_classes must be >= 1, got 0"),
    ("max_seq_len", 0, "max_seq_len must be >= 1, got 0"),
])
def test_config_refuses_values_that_break_the_model(key, value, message):
    with pytest.raises(ValueError) as info:
        _config(**{key: value})
    assert str(info.value) == message
    _config(geometry="euclidean", pe_scale=0.0)


@pytest.mark.parametrize("value", ["-1", "0", "nan", "0.5", "3"])
def test_config_from_dict_refuses_a_ball_radius_other_than_1(value):
    block = {**_config().to_dict(), "curvature": value}
    with pytest.raises(ValueError) as info:
        hf.TransformerConfig.from_dict(block)
    assert str(info.value) == f"curvature must be 1.0, the unit ball, got '{value}'"
    assert hf.TransformerConfig.from_dict({**block, "curvature": "1.0"}) == _config()
    del block["curvature"]
    with pytest.raises(KeyError):
        hf.TransformerConfig.from_dict(block)


def test_config_to_dict_strings():
    cfg = hf.TransformerConfig(geometry="euclidean", model_dim=6, num_layers=3, num_heads=2,
                               head_dim=3, ffn_dim=12, num_classes=5, dropout=0.25,
                               max_seq_len=32, pe_scale=1e-07, use_residual=True)
    assert list(cfg.to_dict().items()) == [
        ("geometry", "euclidean"), ("model_dim", "6"), ("num_layers", "3"),
        ("num_heads", "2"), ("head_dim", "3"), ("ffn_dim", "12"), ("num_classes", "5"),
        ("dropout", "0.25"), ("max_seq_len", "32"), ("pe_scale", "1e-07"),
        ("use_residual", "1"), ("curvature", "1.0")]
    assert hf.TransformerConfig().to_dict()["use_residual"] == "0"
    assert hf.TransformerConfig.from_dict(cfg.to_dict()) == cfg


def test_init_params_follows_param_shapes():
    for geometry in hf.GEOMETRIES:
        cfg = _config(geometry=geometry, num_layers=2)
        shapes = hf.param_shapes(cfg)
        params = hf.init_params(cfg, np.random.default_rng(1))
        assert list(params) == list(shapes)
        assert {k: v.shape for k, v in params.items()} == shapes
        # random matrices are drawn layer by layer, then the head's; the rest is zero
        drawn = [f"layer{i}.{t}" for i in range(2)
                 for t in ("wq", "wk", "wv", "merge", "ffn_w1", "ffn_w2")]
        drawn.append("mlr_a" if geometry == "poincare" else "out_w")
        rng = np.random.default_rng(1)
        for name in drawn:
            expect = rng.normal(0.0, 1.0 / np.sqrt(shapes[name][-1]), shapes[name])
            np.testing.assert_array_equal(params[name], expect)
        for name in shapes.keys() - set(drawn):
            assert not params[name].any()


# ---------------------------------------------------------------------------
# ModelBundle
# ---------------------------------------------------------------------------

def test_bundle_round_trip(tmp_path, rng):
    cfg = _config()
    params = hf.init_params(cfg, rng)
    meta = cfg.to_dict()
    meta["labels"] = "a\tb\nweird=value"
    path = tmp_path / "model.bin"
    bundle.save_bundle(path, cfg.geometry, meta, params)
    geometry, meta2, params2 = bundle.load_bundle(path)
    assert geometry == cfg.geometry
    assert meta2 == meta
    assert params2.keys() == params.keys()
    for name in params:
        np.testing.assert_array_equal(params2[name], params[name])


def test_bundle_byte_stable(tmp_path, rng):
    cfg = _config()
    params = hf.init_params(cfg, rng)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    bundle.save_bundle(p1, cfg.geometry, cfg.to_dict(), params)
    bundle.save_bundle(p2, cfg.geometry, cfg.to_dict(), dict(reversed(params.items())))
    assert p1.read_bytes() == p2.read_bytes()


def test_bundle_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC\nrest")
    with pytest.raises(bundle.BundleError):
        bundle.load_bundle(path)


def test_bundle_truncated(tmp_path, rng):
    cfg = _config()
    params = hf.init_params(cfg, rng)
    path = tmp_path / "model.bin"
    bundle.save_bundle(path, cfg.geometry, cfg.to_dict(), params)
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.bin"
    for size in range(len(blob)):  # every proper prefix, header and blocks alike
        clipped.write_bytes(blob[:size])
        with pytest.raises(bundle.BundleError):
            bundle.load_bundle(clipped)


def test_bundle_corrupted_bytes(tmp_path, rng):
    cfg = _config()
    path = tmp_path / "model.bin"
    bundle.save_bundle(path, cfg.geometry, cfg.to_dict(), hf.init_params(cfg, rng))
    blob = path.read_bytes()
    corrupted = tmp_path / "corrupted.bin"
    refused = 0
    for i in range(len(blob)):  # every byte, header and blocks alike
        for byte in (0x00, 0xFF, 0x20, 0x0A):
            corrupted.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
            try:
                _, _, params = bundle.load_bundle(corrupted)
            except bundle.BundleError as exc:
                assert str(corrupted) in str(exc)
                refused += 1
            else:
                assert all(np.isfinite(v).all() for v in params.values()), (i, byte)
    assert refused > 0


def test_bundle_refuses_non_finite_parameters(tmp_path):
    path = tmp_path / "model.bin"
    bundle.save_bundle(path, "poincare", {}, {"a": np.ones(2), "w": np.array([1.0, np.nan])})
    with pytest.raises(bundle.BundleError, match=r"model\.bin: block 'w' holds non-finite"):
        bundle.load_bundle(path)
