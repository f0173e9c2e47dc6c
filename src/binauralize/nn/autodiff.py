"""Minimal reverse-mode autodiff on numpy arrays.

A Tensor wraps a float64 ndarray and records its parents plus a closure that
scatters the output gradient back to them. backward() runs the tape in
reverse topological order. Only the operations the model needs are provided;
each has an exact analytic VJP (checked against finite differences in the
test suite).

Memory follows the working set. backward() holds the tape only while it
runs: once it returns and the caller drops the loss, every intermediate
array is freed at once, without waiting for the cycle collector. Inside
no_grad() ops record no tape at all: each result is a plain Tensor with no
parents and no closure, so forward-only callers (inference, validation,
probes) keep only the activations still in use. Values are bit-identical
either way.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


# False inside no_grad(): ops then record no parents and no backward closure.
_grad_enabled = True


@contextmanager
def no_grad():
    """Run forward-only code without recording the autodiff tape."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        self.data = data
        self.grad = None
        self._parents = _parents if _grad_enabled else ()
        self._backward = _backward if _grad_enabled else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g, own: bool = False) -> None:
        """Add an output gradient.

        The first write copies unless the caller passes own=True to certify
        that g is a freshly allocated array nothing else references.
        """
        if self.grad is None:
            if own and isinstance(g, np.ndarray) and g.dtype == self.data.dtype \
                    and g.flags.writeable:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype)
        else:
            np.add(self.grad, g, out=self.grad)

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar loss")
        if not _grad_enabled:
            raise RuntimeError("backward() inside no_grad(): no tape was recorded")
        # post-order DFS with an explicit stack: the same order as recursion,
        # with no depth limit and no self-referencing closure whose reference
        # cycle would keep the whole tape alive after return
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
        for t in topo:
            t.grad = None
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return pow_const(self, exponent)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(-(_unbroadcast(g, b.data.shape)))

    return Tensor(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        a.accumulate(_unbroadcast(g * b.data, a.data.shape), own=True)
        b.accumulate(_unbroadcast(g * a.data, b.data.shape), own=True)

    return Tensor(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        a.accumulate(_unbroadcast(g / b.data, a.data.shape))
        b.accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor(a.data / b.data, (a, b), backward)


def pow_const(a, exponent: float) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g * exponent * a.data ** (exponent - 1))

    return Tensor(a.data ** exponent, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g / a.data)

    return Tensor(np.log(a.data), (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    val = np.sqrt(a.data)

    def backward(g):
        a.accumulate(g * 0.5 / val)

    return Tensor(val, (a,), backward)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    _record(a.data > 0)

    def backward(g):
        a.accumulate(g * np.sign(a.data))

    return Tensor(np.abs(a.data), (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    val = np.tanh(a.data)

    def backward(g):
        a.accumulate(g * (1.0 - val * val), own=True)

    return Tensor(val, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    val = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                   np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

    def backward(g):
        a.accumulate(g * val * (1.0 - val))

    return Tensor(val, (a,), backward)


def softplus(a) -> Tensor:
    a = as_tensor(a)
    val = np.logaddexp(0.0, a.data)

    def backward(g):
        a.accumulate(g / (1.0 + np.exp(-a.data)))

    return Tensor(val, (a,), backward)


# While record_signs() is active: the side of its kink that each input of a
# non-smooth op lies on, in evaluation order (`x > 0` for leaky_relu, relu,
# the fused conv activation and absolute; the in-bounds mask for clip).
_sign_log: list[np.ndarray] | None = None


@contextmanager
def record_signs():
    """Collect the kink-side pattern of each non-smooth op evaluated inside."""
    global _sign_log
    _sign_log = []
    try:
        yield _sign_log
    finally:
        _sign_log = None


def _record(pattern: np.ndarray) -> np.ndarray:
    if _sign_log is not None:
        _sign_log.append(pattern)
    return pattern


def _act_factor(x: np.ndarray, slope: float) -> np.ndarray:
    """Leaky-ReLU derivative factor of x (1 where x > 0, else slope)."""
    positive = _record(x > 0)
    return np.where(positive, x.dtype.type(1.0), x.dtype.type(slope))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    factor = _act_factor(a.data, slope)

    def backward(g):
        a.accumulate(g * factor, own=True)

    return Tensor(a.data * factor, (a,), backward)


def relu(a) -> Tensor:
    return leaky_relu(a, 0.0)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient strictly inside the bounds."""
    a = as_tensor(a)
    mask = _record((a.data > lo) & (a.data < hi))

    def backward(g):
        a.accumulate(g * mask)

    return Tensor(np.clip(a.data, lo, hi), (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        a.accumulate(g @ b.data.T, own=True)
        b.accumulate(a.data.T @ g, own=True)

    return Tensor(a.data @ b.data, (a, b), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if axis is None:
            a.accumulate(np.broadcast_to(g, a.data.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(gg, a.data.shape))

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(tsum(a, axis, keepdims), 1.0 / float(count))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    cuts = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, cuts, axis=axis)):
            t.accumulate(piece)

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  tuple(tensors), backward)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        scatter = np.zeros_like(a.data)
        scatter[key] = g
        a.accumulate(scatter)

    return Tensor(a.data[key], (a,), backward)


def reverse_cumsum(a, axis: int = -1) -> Tensor:
    """y_t = sum_{u >= t} x_u; the Schroeder integration step."""
    a = as_tensor(a)
    rev = np.flip(np.cumsum(np.flip(a.data, axis=axis), axis=axis), axis=axis)

    def backward(g):
        a.accumulate(np.cumsum(g, axis=axis))

    return Tensor(rev, (a,), backward)


def dot_const(a, w: np.ndarray) -> Tensor:
    """Weighted sum with constant weights (same shape as a)."""
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g * w)

    return Tensor(np.array(np.sum(a.data * w)), (a,), backward)


# ---------------------------------------------------------------------------
# convolution primitives (NHWC: channels-last keeps every gather/scatter a
# contiguous slice copy, no transposes)
# ---------------------------------------------------------------------------

def _pad_hw(x, pad):
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))


def _im2col(xp, kh, kw, stride, oh, ow):
    """xp (N,Hp,Wp,C) -> cols (N*oh*ow, kh*kw*C), kernel-position-major."""
    n, _, _, c = xp.shape
    cols = np.empty((n, oh, ow, kh * kw * c), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            block = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :]
            cols[:, :, :, (i * kw + j) * c:(i * kw + j + 1) * c] = block
    return cols.reshape(n * oh * ow, kh * kw * c)


def _col2im(cols, n, c, hp, wp, kh, kw, stride, oh, ow):
    """adjoint of _im2col: scatter-add cols back into (N,Hp,Wp,C)."""
    out = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    cols = cols.reshape(n, oh, ow, kh * kw * c)
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += \
                cols[:, :, :, (i * kw + j) * c:(i * kw + j + 1) * c]
    return out


def _apply_act(out_mat, act_slope):
    """In-place fused leaky-ReLU; returns the derivative factor or None."""
    if act_slope is None:
        return None
    factor = _act_factor(out_mat, act_slope)
    out_mat *= factor
    return factor


def conv2d(x, w, b, stride: int = 1, pad: int = 0, act_slope=None) -> Tensor:
    """x (N,H,W,C), w (kh,kw,C,O), b (O,).

    1x1 convolutions skip im2col; stride-1 convolutions run one GEMM per
    kernel tap (all memory access stays long-run contiguous); the general
    strided path packs an im2col matrix. act_slope fuses a leaky-ReLU into
    the op (memory bandwidth is the budget here, so fewer passes win).
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n, h, wd, c = x.data.shape
    kh, kw, _, o = w.data.shape
    if kh == kw == 1 and stride == 1 and pad == 0:
        return _conv1x1(x, w, b, act_slope)
    if stride == 1:
        return _conv_tapsum(x, w, b, pad, act_slope)
    hp, wp = h + 2 * pad, wd + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    xp = _pad_hw(x.data, pad)
    cols = _im2col(xp, kh, kw, stride, oh, ow)
    wmat = w.data.reshape(-1, o)
    out_mat = cols @ wmat + b.data
    factor = _apply_act(out_mat, act_slope)

    def backward(g):
        gmat = g.reshape(-1, o)
        if factor is not None:
            gmat = gmat * factor
        w.accumulate((cols.T @ gmat).reshape(w.data.shape), own=True)
        b.accumulate(gmat.sum(axis=0), own=True)
        dxp = _col2im(gmat @ wmat.T, n, c, hp, wp, kh, kw, stride, oh, ow)
        x.accumulate(dxp[:, pad:pad + h, pad:pad + wd, :].copy() if pad else dxp,
                     own=True)

    return Tensor(out_mat.reshape(n, oh, ow, o), (x, w, b), backward)


def _conv_tapsum(x, w, b, pad: int, act_slope=None) -> Tensor:
    """Stride-1 convolution as one GEMM per kernel tap."""
    n, h, wd, c = x.data.shape
    kh, kw, _, o = w.data.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    oh, ow = hp - kh + 1, wp - kw + 1
    xp = _pad_hw(x.data, pad)
    wtap = w.data.reshape(kh * kw, c, o)
    blocks = []
    out_mat = np.empty((n * oh * ow, o), dtype=x.data.dtype)
    out_mat[:] = b.data
    for i in range(kh):
        for j in range(kw):
            blk = np.ascontiguousarray(
                xp[:, i:i + oh, j:j + ow, :]).reshape(-1, c)
            if _grad_enabled:
                blocks.append(blk)
            out_mat += blk @ wtap[i * kw + j]
    factor = _apply_act(out_mat, act_slope)

    def backward(g):
        gmat = g.reshape(-1, o)
        if factor is not None:
            gmat = gmat * factor
        dw = np.empty_like(w.data)
        dxp = np.zeros((n, hp, wp, c), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                dw[i, j] = blocks[i * kw + j].T @ gmat
                dxp[:, i:i + oh, j:j + ow, :] += \
                    (gmat @ wtap[i * kw + j].T).reshape(n, oh, ow, c)
        w.accumulate(dw, own=True)
        b.accumulate(gmat.sum(axis=0), own=True)
        x.accumulate(dxp[:, pad:pad + h, pad:pad + wd, :].copy() if pad else dxp,
                     own=True)

    return Tensor(out_mat.reshape(n, oh, ow, o), (x, w, b), backward)


def _conv1x1(x, w, b, act_slope=None) -> Tensor:
    n, h, wd, c = x.data.shape
    o = w.data.shape[3]
    xmat = x.data.reshape(-1, c)
    wmat = w.data.reshape(c, o)
    out_mat = xmat @ wmat + b.data
    factor = _apply_act(out_mat, act_slope)

    def backward(g):
        gmat = g.reshape(-1, o)
        if factor is not None:
            gmat = gmat * factor
        w.accumulate((xmat.T @ gmat).reshape(w.data.shape), own=True)
        b.accumulate(gmat.sum(axis=0))
        x.accumulate((gmat @ wmat.T).reshape(x.data.shape), own=True)

    return Tensor(out_mat.reshape(n, h, wd, o), (x, w, b), backward)


def avg_pool2(x) -> Tensor:
    """2x2 mean pooling on (N,H,W,C); H and W must be even."""
    x = as_tensor(x)
    n, h, w, c = x.data.shape
    val = x.data.reshape(n, h // 2, 2, w // 2, 2, c).mean(axis=(2, 4))

    def backward(g):
        spread = np.broadcast_to(
            g[:, :, None, :, None, :] * g.dtype.type(0.25),
            (n, h // 2, 2, w // 2, 2, c))
        x.accumulate(spread.reshape(n, h, w, c), own=True)

    return Tensor(val, (x,), backward)


def upsample2(x) -> Tensor:
    """2x nearest-neighbor upsampling on (N,H,W,C)."""
    x = as_tensor(x)
    n, h, w, c = x.data.shape
    val = np.broadcast_to(x.data[:, :, None, :, None, :],
                          (n, h, 2, w, 2, c)).reshape(n, 2 * h, 2 * w, c)

    def backward(g):
        x.accumulate(g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4)), own=True)

    return Tensor(val, (x,), backward)


def conv_transpose2d(x, w, b, stride: int = 2, pad: int = 1,
                     output_padding: int = 1, act_slope=None) -> Tensor:
    """x (N,H,W,C), w (C,kh,kw,O), b (O,).

    Output spatial size: (H-1)*stride - 2*pad + kh + output_padding.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n, h, wd, c = x.data.shape
    _, kh, kw, o = w.data.shape
    hp = (h - 1) * stride + kh
    wp = (wd - 1) * stride + kw
    out_h = hp - 2 * pad + output_padding
    out_w = wp - 2 * pad + output_padding
    xmat = x.data.reshape(-1, c)
    wmat = w.data.reshape(c, -1)
    cols = xmat @ wmat
    full = _col2im(cols, n, o, hp, wp, kh, kw, stride, h, wd)
    val = np.zeros((n, out_h, out_w, o), dtype=x.data.dtype)
    crop = full[:, pad:pad + out_h, pad:pad + out_w, :]
    val[:, :crop.shape[1], :crop.shape[2], :] = crop
    val += b.data
    factor = _apply_act(val.reshape(-1, o), act_slope)

    def backward(g):
        if factor is not None:
            g = (g.reshape(-1, o) * factor).reshape(g.shape)
        gfull = np.zeros((n, hp, wp, o), dtype=g.dtype)
        avail = gfull[:, pad:pad + out_h, pad:pad + out_w, :]
        gfull[:, pad:pad + out_h, pad:pad + out_w, :] = \
            g[:, :avail.shape[1], :avail.shape[2], :]
        gcols = _im2col(gfull, kh, kw, stride, h, wd)
        x.accumulate((gcols @ wmat.T).reshape(x.data.shape), own=True)
        w.accumulate((xmat.T @ gcols).reshape(w.data.shape))
        b.accumulate(g.sum(axis=(0, 1, 2)))

    return Tensor(val, (x, w, b), backward)


def linear(x, w, b) -> Tensor:
    """x (N,I), w (I,O), b (O,)."""
    return add(matmul(x, w), b)
