"""Finite-difference checks for every autodiff op."""

import numpy as np
import pytest

from binauralize.nn import autodiff as ad
from binauralize.nn.autodiff import Tensor


def numeric_grad(fn, arrays, idx, eps=1e-6):
    """Central finite differences of scalar fn w.r.t. arrays[idx]."""
    base = [a.copy() for a in arrays]
    g = np.zeros_like(base[idx])
    flat = g.reshape(-1)
    for i in range(flat.size):
        plus = [a.copy() for a in base]
        minus = [a.copy() for a in base]
        plus[idx].reshape(-1)[i] += eps
        minus[idx].reshape(-1)[i] -= eps
        flat[i] = (fn(*plus) - fn(*minus)) / (2 * eps)
    return g


def check(fn_graph, *shapes, seed=0, tol=1e-6):
    """fn_graph maps Tensors -> scalar Tensor; compare grads to central FD.

    Error is measured relative to the gradient's overall scale so that
    zero-gradient entries are judged against FD noise, not a tiny floor.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) * 0.7 + 0.1 for s in shapes]
    tensors = [Tensor(a.copy()) for a in arrays]
    out = fn_graph(*tensors)
    out.backward()

    def scalar(*arrs):
        return fn_graph(*[Tensor(a) for a in arrs]).item()

    for i, t in enumerate(tensors):
        num = numeric_grad(scalar, arrays, i)
        scale = max(1.0, np.abs(num).max(), np.abs(t.grad).max())
        rel = np.max(np.abs(num - t.grad)) / scale
        assert rel < tol, f"arg {i}: rel err {rel}"


def test_arithmetic_ops():
    check(lambda a, b: ad.tsum(a * b + a - b / (b * b + 2.0)), (3, 4), (3, 4))
    check(lambda a: ad.tsum(a ** 3), (5,))
    check(lambda a, b: ad.tsum(a * b), (4, 1), (1, 5))  # broadcasting


def test_elementwise_nonlinearities():
    check(lambda a: ad.tsum(ad.log(ad.softplus(a) + 1.0)), (3, 3))
    check(lambda a: ad.tsum(ad.sqrt(a * a + 1.0)), (7,))
    check(lambda a: ad.tsum(ad.tanh(a)), (4, 2))
    check(lambda a: ad.tsum(ad.sigmoid(a)), (6,))
    check(lambda a: ad.tsum(ad.leaky_relu(a, 0.2)), (50,))
    check(lambda a: ad.tsum(ad.absolute(a) * a), (20,))


def test_reductions_shapes():
    check(lambda a: ad.tsum(ad.tmean(a, axis=1) ** 2), (4, 6))
    check(lambda a: ad.tsum(ad.tmean(a, axis=(2, 3)) ** 2), (2, 3, 4, 5))
    check(lambda a: ad.tsum(ad.reshape(a, (6, 2)) ** 2 * 0.5), (3, 4))
    check(lambda a, b: ad.tsum(ad.concat([a, b], axis=1) ** 2), (2, 3), (2, 4))
    check(lambda a: ad.tsum(a[1:, ::2] ** 2), (4, 6))


def test_matmul_linear():
    check(lambda a, b: ad.tsum(ad.matmul(a, b)), (3, 4), (4, 5))
    check(lambda x, w, b: ad.tsum(ad.linear(x, w, b) ** 2), (3, 4), (4, 2), (2,))


def test_reverse_cumsum():
    check(lambda a: ad.tsum(ad.reverse_cumsum(a) ** 2), (8,))
    fwd = ad.reverse_cumsum(Tensor([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(fwd.data, [6.0, 5.0, 3.0])


def test_dot_const():
    w = np.array([0.5, -1.0, 2.0])
    check(lambda a: ad.dot_const(a, w), (3,))


def test_clip_gradient_masks_boundaries():
    x = Tensor(np.array([-2.0, 0.0, 2.0]))
    out = ad.tsum(ad.clip(x, -1.0, 1.0))
    out.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_gradcheck(stride, pad):
    check(lambda x, w, b: ad.tsum(ad.conv2d(x, w, b, stride, pad) ** 2),
          (2, 6, 8, 3), (3, 3, 3, 4), (4,))


def test_conv2d_matches_direct():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 5, 7, 2))
    w = rng.standard_normal((3, 3, 2, 3))
    b = rng.standard_normal(3)
    got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
    # brute force
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    want = np.zeros_like(got)
    for o in range(3):
        for i in range(5):
            for j in range(7):
                want[0, i, j, o] = np.sum(
                    xp[0, i:i + 3, j:j + 3, :] * w[:, :, :, o]) + b[o]
    np.testing.assert_allclose(got, want, atol=1e-11)


@pytest.mark.parametrize("stride,pad,opad", [(2, 1, 1), (1, 1, 0)])
def test_conv_transpose2d_gradcheck(stride, pad, opad):
    check(lambda x, w, b: ad.tsum(
        ad.conv_transpose2d(x, w, b, stride, pad, opad) ** 2),
        (2, 4, 5, 3), (3, 3, 3, 2), (2,))


def test_conv_transpose_is_conv_adjoint():
    # <conv(x), y> == <x, convT(y)> when convT uses the conv weights with
    # the (C_in, kh, kw, C_out) layout matching conv's (kh, kw, C_in=2, O=3)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 8, 8, 2))
    w = rng.standard_normal((3, 3, 2, 3))   # conv weights
    y = rng.standard_normal((1, 4, 4, 3))
    conv_out = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(3)), 2, 1).data
    wt = w.transpose(3, 0, 1, 2)            # (O=3, kh, kw, C=2) as convT (C,kh,kw,O)
    convt_out = ad.conv_transpose2d(
        Tensor(y), Tensor(wt), Tensor(np.zeros(2)), 2, 1, 1).data
    lhs = np.sum(conv_out * y)
    rhs = np.sum(x * convt_out)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_backward_accumulates_shared_nodes():
    x = Tensor(np.array([2.0]))
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_has_no_recursion_limit():
    x = Tensor(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = y + x
    ad.tsum(y).backward()
    np.testing.assert_array_equal(x.grad, [5001.0])


def test_no_grad_results_carry_no_tape():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 6, 8, 3)))
    w = Tensor(rng.standard_normal((3, 3, 3, 4)))
    b = Tensor(rng.standard_normal(4))

    def forward():
        h = ad.conv2d(x, w, b, 1, 1, act_slope=0.2)
        return ad.tmean(ad.tanh(h) * 2.0 - h, axis=3)

    taped = forward()
    with ad.no_grad():
        plain = forward()
    assert taped._parents and taped._backward is not None
    assert plain._parents == () and plain._backward is None
    np.testing.assert_array_equal(plain.data, taped.data)


def test_no_grad_restores_recording_after_an_exception():
    with pytest.raises(KeyError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.tanh(Tensor(np.ones(2)))._backward is None
            raise KeyError("inside")
    assert ad.tanh(Tensor(np.ones(2)))._backward is not None
