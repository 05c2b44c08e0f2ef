import numpy as np
import pytest

from voxcodec import gradcheck as gc
from voxcodec.nn import ConvSpec, build_kernel_map, sparse_conv, sparse_conv_backward
from voxcodec.sparse import SparseTensor


def test_kernel1_identity_gradient():
    x = SparseTensor.build([[0, 0, 0], [1, 0, 0]], np.array([[1.0], [2.0]]), 0)
    spec = ConvSpec(1, 1, 1)
    w = np.ones((1, 1, 1))
    kmap = build_kernel_map(x.coords, x.coords, spec)
    g = np.array([[3.0], [4.0]])
    grad_in, grad_w, grad_b = sparse_conv_backward(x, spec, w, kmap, g)
    assert np.array_equal(grad_in, g)  # identity map passes gradients through
    assert grad_w[0, 0, 0] == pytest.approx(1 * 3 + 2 * 4)
    assert grad_b[0] == pytest.approx(7.0)


def test_zero_input_weight_gradient_zero():
    x = SparseTensor.build([[0, 0, 0], [2, 1, 0]], np.zeros((2, 2)), 0)
    spec = ConvSpec(2, 3, 3)
    w = np.random.default_rng(0).normal(size=spec.weight_shape)
    kmap = build_kernel_map(x.coords, x.coords, spec)
    _, grad_w, _ = sparse_conv_backward(x, spec, w, kmap, np.ones((2, 3)))
    assert np.all(grad_w == 0)


@pytest.mark.parametrize("seed", range(6))
def test_sparse_conv_fd(seed):
    rep = gc.grad_sparse_conv(seed)
    assert rep.passed, rep.block_errors


@pytest.mark.parametrize("branch", ["open", "capped"])
@pytest.mark.parametrize("seed", range(4))
def test_interpolate_fd(seed, branch):
    rep = gc.grad_interpolate(seed, branch)
    assert rep.passed, rep.block_errors


def test_interpolate_fd_reads_the_production_forward(monkeypatch):
    # the finite differences and the analytic weights both come from the
    # helper the codec runs, so a changed alpha cap there must show up
    from voxcodec import motion as mo

    helper = mo.interpolate_over

    def capped_at_twice_alpha(translated, coords, feats, idx, alpha):
        return helper(translated, coords, feats, idx, 2 * alpha)

    monkeypatch.setattr(mo, "interpolate_over", capped_at_twice_alpha)
    _, failures = gc.run_all(5)
    assert any(name.startswith("interpolate") for name, _, _ in failures)


def test_bce_fd_reads_the_production_loss(monkeypatch):
    # the finite differences run the codec's own BCE, so a changed log base
    # there must show up against the natural-log analytic gradient
    from voxcodec import codec

    loss = codec.bce_occupancy

    def log2_bce(probs, candidates, truth):
        return loss(probs, candidates, truth) / np.log(2.0)

    monkeypatch.setattr(codec, "bce_occupancy", log2_bce)
    _, failures = gc.run_all(5)
    assert any(name == "bce" for name, _, _ in failures)


def test_interpolate_feature_gradient_closed_form():
    # in the uncapped branch the feature gradient rows are the normalized
    # inverse-distance weights
    from voxcodec.motion import interpolate_gradients

    ref = SparseTensor.build([[1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 5]],
                             [[1.0], [2.0], [3.0], [4.0]], 2)
    m = SparseTensor.build([[0, 0, 0]], np.zeros((1, 3)), 2)
    g = np.array([[1.0]])
    grad_ref, grad_m, idx, d2 = interpolate_gradients(m, ref, 3.0, g)
    w = 1.0 / np.maximum(d2[0], 1e-8)
    mix = w / max(w.sum(), 3.0)
    for j, v in zip(idx[0], mix):
        assert grad_ref[j, 0] == pytest.approx(v)


def test_interpolate_motion_gradient_zero_for_constant_features():
    # constant neighbour features in the uncapped branch make the output
    # invariant to the translated position
    from voxcodec.motion import interpolate_gradients

    ref = SparseTensor.build([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                             np.full((3, 2), 5.0), 2)
    m = SparseTensor.build([[0, 0, 0]], np.full((1, 3), 0.1), 2)
    _, grad_m, _, d2 = interpolate_gradients(m, ref, 0.5, np.ones((1, 2)))
    assert (1.0 / d2).sum() > 0.5  # uncapped branch
    assert np.abs(grad_m).max() < 1e-10


def test_interpolate_capped_branch_scales_by_alpha():
    from voxcodec.motion import interpolate_gradients

    ref = SparseTensor.build([[4, 0, 0], [0, 4, 0], [0, 0, 4]],
                             [[1.0], [2.0], [3.0]], 2)
    m = SparseTensor.build([[0, 0, 0]], np.zeros((1, 3)), 2)
    alpha = 3.0
    grad_ref, _, idx, d2 = interpolate_gradients(m, ref, alpha, np.array([[1.0]]))
    w = 1.0 / d2[0]
    assert w.sum() < alpha
    for j, wv in zip(idx[0], w):
        assert grad_ref[j, 0] == pytest.approx(wv / alpha)


@pytest.mark.parametrize("seed", range(4))
def test_bce_fd(seed):
    rep = gc.grad_bce(seed)
    assert rep.passed


def test_bce_gradient_closed_form():
    z = np.array([0.3, -1.2, 2.0])
    o = np.array([1.0, 0.0, 1.0])
    p = 1 / (1 + np.exp(-z))
    assert np.allclose(gc.bce_grad(z, o), (p - o) / 3)


def test_bce_zero_at_perfect_interior():
    z = np.array([30.0, -30.0])
    o = np.array([1.0, 0.0])
    assert np.abs(gc.bce_grad(z, o)).max() < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_rate_fd(seed):
    rep = gc.grad_rate(seed)
    assert rep.passed


def test_uniform_pmf_rate_gradient_zero():
    pmf = np.full(9, 1 / 9)
    vals = np.array([0.3, -2.6, 1.5])
    assert np.abs(gc.rate_proxy_grad(vals, pmf, -4)).max() == 0.0


def test_chain_composition():
    for seed in (0, 3):
        rep = gc.grad_chain(seed)
        assert rep.passed, rep.max_rel_error


def test_run_all_smoke():
    reports, failures = gc.run_all(3, 100)
    assert not failures
    assert {r.op for r in reports} == {
        "sparse_conv", "interpolate[open]", "interpolate[capped]", "bce", "rate_proxy", "chain"}
