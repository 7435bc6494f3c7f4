"""Autodiff core: op gradients against central finite differences."""

import numpy as np
import pytest

from eventqa import autodiff as ad
from eventqa.autodiff import Tensor, backward, grad_check


def test_square_gradient_at_3():
    x = Tensor(3.0, requires_grad=True)
    y = ad.mul(x, x)
    backward(y)
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_softmax_sum_gradient_is_zero():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=7), requires_grad=True)
    loss = ad.tsum(ad.softmax(x))
    assert loss.item() == pytest.approx(1.0, abs=1e-12)
    backward(loss)
    assert np.abs(x.grad).max() < 1e-12


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    a = Tensor(rng.normal(size=(3, 1)))

    report = grad_check(lambda: ad.tsum(ad.matmul(w, a)), {"w": w},
                        tolerance=1e-6, h=1e-5)
    assert report["passed"], report["failures"]
    assert report["max_rel_error"] < 1e-6


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad.mul(x, x)
    with pytest.raises(ValueError, match="scalar"):
        backward(y)


def test_disconnected_parameter_gets_zero_not_error():
    x = Tensor(2.0, requires_grad=True)
    unused = Tensor(np.ones(4), requires_grad=True)
    loss = ad.mul(x, x)
    grads = backward(loss)
    assert x in grads
    assert unused not in grads
    assert unused.grad is None  # treated as zero by the optimizer


def test_graph_consumed_after_backward():
    x = Tensor(1.5, requires_grad=True)
    y = ad.mul(x, x)
    backward(y)
    with pytest.raises(ValueError):
        backward(y)


@pytest.mark.parametrize("seed", range(20))
def test_random_composite_matches_finite_differences(seed):
    """Property: composite graphs agree with numeric gradients (>= 20 seeds)."""
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 4)))

    def fn():
        h = ad.relu(ad.matmul(x, w1))
        out = ad.add(ad.matmul(h, w2), b)
        return ad.tsum(ad.mul(ad.softmax(out), out))

    report = grad_check(fn, {"w1": w1, "w2": w2, "b": b}, tolerance=1e-4)
    assert report["passed"], report["failures"]


@pytest.mark.parametrize("op,shape", [
    (ad.relu, (6,)), (lambda t: ad.softmax(t, axis=-1), (3, 4)),
])
def test_unary_ops_gradcheck(op, shape):
    rng = np.random.default_rng(hash(str(shape)) % 2 ** 31)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    report = grad_check(lambda: ad.tsum(ad.mul(op(x), op(x))), {"x": x},
                        tolerance=1e-4)
    assert report["passed"], report["failures"]


def test_broadcast_add_mul_gradients():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    report = grad_check(
        lambda: ad.tsum(ad.mul(ad.add(a, b), c)),
        {"a": a, "b": b, "c": c}, tolerance=1e-5)
    assert report["passed"], report["failures"]


def test_batched_matmul_gradients():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    report = grad_check(lambda: ad.tsum(ad.matmul(a, b)), {"a": a, "b": b},
                        tolerance=1e-5)
    assert report["passed"], report["failures"]


def test_embedding_gradient_scatter():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([[0, 2, 2], [3, 0, 0]])
    out = ad.embedding(table, idx)
    assert out.shape == (2, 3, 3)
    loss = ad.tsum(out)
    backward(loss)
    expected = np.zeros((4, 3))
    for i in idx.reshape(-1):
        expected[i] += 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_3d_table_gradcheck():
    """Rows of any shape: repeated lookups of a (4, 2, 3) table."""
    rng = np.random.default_rng(4)
    table = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
    weights = Tensor(rng.normal(size=(5, 2, 3)))
    idx = np.array([2, 0, 2, 3, 2])

    def loss():
        rows = ad.embedding(table, idx)
        return ad.tsum(ad.mul(ad.mul(rows, rows), weights))

    assert ad.embedding(table, idx).shape == (5, 2, 3)
    report = grad_check(loss, {"table": table}, tolerance=1e-4)
    assert report["passed"], report["failures"]


def test_embedding_rejects_out_of_range():
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(IndexError):
        ad.embedding(table, np.array([4]))


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    gamma = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
    beta = Tensor(rng.normal(size=6), requires_grad=True)
    report = grad_check(
        lambda: ad.tsum(ad.mul(ad.layer_norm(x, gamma, beta),
                               ad.layer_norm(x, gamma, beta))),
        {"x": x, "gamma": gamma, "beta": beta}, tolerance=1e-4)
    assert report["passed"], report["failures"]


def test_masked_cross_entropy_gradcheck_and_value():
    rng = np.random.default_rng(12)
    logits = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    targets = rng.integers(0, 5, size=(2, 4))
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=float)

    # independent oracle: mean of -log softmax probabilities over the mask
    def oracle(data):
        shifted = data - data.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
        return -(picked * mask).sum() / mask.sum()

    loss = ad.masked_cross_entropy(logits, targets, mask)
    assert loss.item() == pytest.approx(oracle(logits.data), abs=1e-12)
    report = grad_check(
        lambda: ad.masked_cross_entropy(logits, targets, mask),
        {"logits": logits}, tolerance=1e-4)
    assert report["passed"], report["failures"]


def test_masked_cross_entropy_with_a_given_total():
    """Parts of a batch, each divided by the batch's token count, sum to the
    batch's mean loss; the gradient is checked against central differences."""
    rng = np.random.default_rng(13)
    data = rng.normal(size=(3, 4, 5))
    targets = rng.integers(0, 5, size=(3, 4))
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]], dtype=float)
    whole = ad.masked_cross_entropy(Tensor(data), targets, mask).item()
    parts = [ad.masked_cross_entropy(Tensor(data[rows]), targets[rows],
                                     mask[rows], total=mask.sum()).item()
             for rows in ([0, 2], [1])]
    assert sum(parts) == pytest.approx(whole, rel=1e-14)

    logits = Tensor(data[[1]], requires_grad=True)
    report = grad_check(
        lambda: ad.masked_cross_entropy(logits, targets[[1]], mask[[1]],
                                        total=mask.sum()),
        {"logits": logits}, tolerance=1e-4)
    assert report["passed"], report["failures"]
    with pytest.raises(ValueError, match="positive total"):
        ad.masked_cross_entropy(logits, targets[[1]], mask[[1]], total=0)


def test_concat_getitem_roundtrip_gradients():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def fn():
        joined = ad.concat([a, b], axis=1)
        return ad.tsum(ad.mul(joined[:, 1:4], joined[:, 1:4]))

    report = grad_check(fn, {"a": a, "b": b}, tolerance=1e-5)
    assert report["passed"], report["failures"]


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 6)))

    def run():
        return ad.tsum(ad.softmax(ad.matmul(x, w))).item()

    assert run() == run()


def test_grad_check_reports_nonfinite():
    x = Tensor(np.array([0.0]), requires_grad=True)

    def fn():
        return ad.tsum(ad.mul(x, Tensor(np.inf)))  # inf * 0 is NaN

    report = grad_check(fn, {"x": x}, tolerance=1e-4)
    assert not report["passed"]
    assert any(f["reason"] == "non-finite" for f in report["failures"])
    assert report["failures"][0]["param"] == "x"
    assert report["failures"][0]["entry"] == 0


def test_no_grad_blocks_recording():
    x = Tensor(2.0, requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    with pytest.raises(ValueError):
        backward(y)


# ---------------------------------------------------------------------------
# fused ops: linear and attention


def _rel(a, b):
    """Largest entry difference relative to the largest reference entry."""
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _weighted(out, rng):
    """A scalar loss with a random weight per output entry."""
    return ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.shape))))


def _composed_attention(q, k, v, scale, mask):
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), Tensor(scale))
    if mask is not None:
        scores = ad.add(scores, Tensor(mask))
    return ad.matmul(ad.softmax(scores, axis=-1), v)


def _attention_case(name, seed=0):
    """(q, k, v, scale, mask) on random shapes for one masking case."""
    rng = np.random.default_rng(seed)
    b, h, d = rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 5)
    tq = rng.integers(2, 6)
    tk = tq if name == "causal" else tq + rng.integers(1, 4)
    if name == "causal":
        mask = np.triu(np.full((tq, tk), ad.NEG_INF), k=1)[None, None]
    else:
        b = max(b, 2)
        valid = (rng.random((b, tk)) < 0.7).astype(float)
        valid[:, 0] = 1.0
        if name == "all_masked":
            valid[1] = 0.0
        mask = ((1.0 - valid) * ad.NEG_INF)[:, None, None, :]

    def t(n):
        return Tensor(rng.normal(size=(b, h, n, d)), requires_grad=True)

    return t(tq), t(tk), t(tk), 1.0 / np.sqrt(d), mask


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["causal", "padded_cross"])
def test_attention_gradcheck(name, seed):
    q, k, v, scale, mask = _attention_case(name, seed)
    weights = Tensor(np.random.default_rng(seed).normal(size=q.shape))
    report = grad_check(
        lambda: ad.tsum(ad.mul(ad.attention(q, k, v, scale, mask), weights)),
        {"q": q, "k": k, "v": v}, tolerance=1e-4)
    assert report["passed"], report["failures"]


@pytest.mark.parametrize("seed", range(3))
def test_attention_gradcheck_with_all_keys_masked(seed):
    """Batch row 1 has every key masked. The output is linear in ``v``,
    which passes the finite-difference check. In ``q`` and ``k`` that row's
    scores are ``q k^T * scale + NEG_INF``, rounded to the float64 spacing
    at 1e9 (about 1.2e-7), which central differences cannot resolve. There
    the gradients must equal those with the mask lifted from the row (which
    pass the check), since shifting a whole row leaves its softmax as is."""
    q, k, v, scale, mask = _attention_case("all_masked", seed)
    weights = Tensor(np.random.default_rng(seed).normal(size=q.shape))

    def loss(m):
        return ad.tsum(ad.mul(ad.attention(q, k, v, scale, m), weights))

    report = grad_check(lambda: loss(mask), {"v": v}, tolerance=1e-4)
    assert report["passed"], report["failures"]
    lifted = mask.copy()
    lifted[1] = 0.0
    report = grad_check(lambda: loss(lifted), {"q": q, "k": k},
                        tolerance=1e-4)
    assert report["passed"], report["failures"]
    grads = []
    for m in (mask, lifted):
        for p in (q, k, v):
            p.zero_grad()
        backward(loss(m))
        grads.append([p.grad.copy() for p in (q, k, v)])
    for masked, unmasked in zip(*grads):
        assert _rel(masked, unmasked) < 1e-5


@pytest.mark.parametrize("name", ["causal", "padded_cross", "all_masked"])
def test_attention_matches_composed_ops(name):
    q, k, v, scale, mask = _attention_case(name, seed=7)
    rng = np.random.default_rng(8)
    weights = Tensor(rng.normal(size=q.shape))
    results = []
    for op in (ad.attention, _composed_attention):
        for p in (q, k, v):
            p.zero_grad()
        out = op(q, k, v, scale, mask)
        backward(ad.tsum(ad.mul(out, weights)))
        results.append([out.data] + [p.grad.copy() for p in (q, k, v)])
    for fused, composed in zip(*results):
        assert _rel(fused, composed) < 1e-12


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
@pytest.mark.parametrize("live_bias", [True, False])
def test_linear_gradcheck_and_matches_matmul_add(shape, live_bias):
    rng = np.random.default_rng(len(shape) + 10 * live_bias)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=live_bias)
    params = {"x": x, "w": w} | ({"b": b} if live_bias else {})
    weights = Tensor(rng.normal(size=shape[:-1] + (3,)))
    report = grad_check(
        lambda: ad.tsum(ad.mul(ad.linear(x, w, b), weights)), params,
        tolerance=1e-4)
    assert report["passed"], report["failures"]

    def composed(x, w, b):
        return ad.add(ad.matmul(x, w), b)

    results = []
    for op in (ad.linear, composed):
        for p in params.values():
            p.zero_grad()
        out = op(x, w, b)
        backward(ad.tsum(ad.mul(out, weights)))
        results.append([out.data] + [p.grad.copy() for p in params.values()])
    for fused, reference in zip(*results):
        assert _rel(fused, reference) < 1e-12
    assert live_bias or b.grad is None


def test_linear_frozen_weight_gets_no_gradient():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)))
    b = Tensor(rng.normal(size=3), requires_grad=True)
    report = grad_check(lambda: _weighted(ad.linear(x, w, b),
                                          np.random.default_rng(3)),
                        {"x": x, "b": b}, tolerance=1e-4)
    assert report["passed"], report["failures"]
    assert w.grad is None


def _lora_case(shape, live_bias, frozen_base=False):
    """(x, w, b, a, bm) with a nonzero ``bm`` so every input matters."""
    rng = np.random.default_rng(len(shape) + 10 * live_bias)
    live = not frozen_base
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=(shape[-1], 3)), requires_grad=live)
    b = Tensor(rng.normal(size=3), requires_grad=live and live_bias)
    a = Tensor(rng.normal(size=(shape[-1], 2)), requires_grad=True)
    bm = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    return x, w, b, a, bm


def _composed_lora(x, w, b, a, bm, scale):
    delta = ad.matmul(ad.matmul(x, a), bm)
    return ad.add(ad.add(ad.matmul(x, w), b), ad.mul(delta, Tensor(scale)))


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
@pytest.mark.parametrize("live_bias", [True, False])
def test_lora_linear_gradcheck_and_matches_composed_ops(shape, live_bias):
    x, w, b, a, bm = _lora_case(shape, live_bias)
    params = {"x": x, "w": w, "a": a, "bm": bm} | ({"b": b} if live_bias else {})
    weights = Tensor(np.random.default_rng(5).normal(size=shape[:-1] + (3,)))
    scale = 1.5
    report = grad_check(
        lambda: ad.tsum(ad.mul(ad.lora_linear(x, w, b, a, bm, scale),
                               weights)), params, tolerance=1e-4)
    assert report["passed"], report["failures"]

    results = []
    for op in (ad.lora_linear, _composed_lora):
        for p in params.values():
            p.zero_grad()
        out = op(x, w, b, a, bm, scale)
        backward(ad.tsum(ad.mul(out, weights)))
        results.append([out.data] + [p.grad.copy() for p in params.values()])
    for fused, reference in zip(*results):
        assert _rel(fused, reference) < 1e-12
    assert live_bias or b.grad is None


def test_lora_linear_frozen_base_gets_no_gradient():
    x, w, b, a, bm = _lora_case((2, 3, 4), True, frozen_base=True)
    report = grad_check(
        lambda: _weighted(ad.lora_linear(x, w, b, a, bm, 2.0),
                          np.random.default_rng(3)),
        {"x": x, "a": a, "bm": bm}, tolerance=1e-4)
    assert report["passed"], report["failures"]
    assert w.grad is None and b.grad is None


# ---------------------------------------------------------------------------
# gradients handed over without a copy must not alias


def test_aliased_parents_get_correct_gradients():
    rng = np.random.default_rng(30)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)

    def x_plus_x():
        return _weighted(ad.add(x, x), np.random.default_rng(1))

    def reshape_used_twice():
        y = ad.reshape(x, (3, 2))
        return _weighted(ad.add(ad.mul(y, y), ad.reshape(x, (3, 2))),
                         np.random.default_rng(2))

    def concat_of_itself():
        return _weighted(ad.concat([x, x], axis=0), np.random.default_rng(3))

    def broadcast_bias():
        return _weighted(ad.add(x, bias), np.random.default_rng(4))

    for fn in (x_plus_x, reshape_used_twice, concat_of_itself):
        report = grad_check(fn, {"x": x}, tolerance=1e-4)
        assert report["passed"], (fn.__name__, report["failures"])
    report = grad_check(broadcast_bias, {"x": x, "bias": bias}, tolerance=1e-4)
    assert report["passed"], report["failures"]


def test_leaf_gradients_share_no_memory():
    rng = np.random.default_rng(31)
    leaves = [Tensor(rng.normal(size=(2, 3)), requires_grad=True)
              for _ in range(4)]
    a, b, c, d = leaves
    summed = ad.add(a, b)                       # the same g to both parents
    viewed = ad.add(ad.reshape(c, (3, 2)), ad.transpose(d, (1, 0)))
    loss = _weighted(ad.add(ad.reshape(summed, (3, 2)), viewed), rng)
    backward(loss)
    for i, p in enumerate(leaves):
        for other in leaves[i + 1:]:
            assert not np.shares_memory(p.grad, other.grad)
