"""Minimal dense-tensor engine with reverse-mode autodiff.

Float64 throughout: the gradient checker works at 1e-4 tolerances that
float32 cannot sustain, and everything here runs at desk scale.

The graph is built eagerly: every op returns a new Tensor that keeps
references to its parents and an adjoint, a closure that maps the
upstream gradient g to a tuple with one gradient per parent, in
``_parents`` order. ``Tensor.backward()`` runs a topological sweep from
a scalar loss and is the only code that accumulates gradients; it skips
parents that do not require them. An adjoint returns fresh arrays or
views of g, and never an array it keeps. The sweep adopts a returned
array as a parent's first ``.grad`` without copying it when the array
owns its memory, is not g, appears once in the tuple and has the
parent's shape and dtype; anything else is copied. So no two ``.grad``
arrays share memory, and none shares memory with a node's ``.data``.
The sweep frees a node's ``.grad`` as soon as that node's own adjoint has
run, because nothing reads it after that: once ``backward()`` returns,
only leaves (parameters and inputs, which have no parents) hold a
``.grad``. To see an intermediate gradient, wrap the node's adjoint,
which is handed it.

Under ``no_grad`` an op keeps no parents and no adjoint, so the graph ops
are also the reference and benchmark path. The raw numpy
kernels (``conv1d_same_raw``, ``conv2d_dilated_raw``) are what the graph
ops' forwards run, and ``conv2d_dilated``'s adjoint reuses the forward's
im2col; outside this module only the boundary-matching baseline and the
tests call them. A 1-D conv computes only the output rows asked for
(``band_rows``: those a band map reads). ``conv1d_same_raw`` builds one
batch item's im2col at a time, next to that item's GEMM, so no batch
im2col exists; the node keeps none either: its adjoint is a loop of one
GEMM per tap over the time-major rows.
``band_map_conv`` is the model's first map conv. It computes packed cells:
the upper triangle e >= s, plus in training the ``lower_strip`` diagonals
below it that its taps reach and one weighted stand-in for the cells
further below, which batchnorm counts as many times as it stands for.
``scatter_upper`` writes the upper cells into [B, C, T, T] maps.
``relu_bn_conv1x1`` is one block of the tail after it, relu -> batchnorm
-> 1x1 conv as one op: in training the batch statistics fold into the
conv, every pass runs over one batch item with one item-sized scratch
array, and the node keeps no map-sized intermediate; in eval it is
``fold_batchnorm``'s conv and builds no graph. ``batchnorm_lite`` and the
1x1 ``conv2d_dilated`` it replaces stay as its oracles.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def init_rng(seed):
    """Deterministic generator from a 64-bit unsigned seed."""
    return np.random.Generator(np.random.PCG64(np.uint64(seed)))


def fan_in_uniform(rng, shape, fan_in):
    """Weight init: uniform on +-sqrt(6/fan_in).

    The relu-gain bound keeps activation variance roughly constant
    through stacked conv+relu layers; the plain 1/sqrt(fan_in) bound
    shrinks it ~6x per layer, which starves the deeper normalization
    layers and ruins finite-difference conditioning.
    """
    bound = np.sqrt(6.0 / float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


class Tensor:
    """A float64 ndarray plus optional gradient bookkeeping."""

    def __init__(self, data, requires_grad=False, parents=(), backward=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g, adopt):
        """Add g into .grad; a first g is kept as .grad itself when adopt is set."""
        if self.grad is None and adopt:
            self.grad = g
        elif self.grad is None:
            # a private copy, never an alias: later gradients are added in place
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep seeded from this scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data), adopt=True)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            for p, gp in zip(node._parents, grads, strict=True):
                if p.requires_grad:
                    p._accumulate(gp, _adoptable(gp, node.grad, grads, p.data))
            del grads, gp  # free what was copied before the next adjoint runs
            node.grad = None  # no later adjoint reads it; leaves keep theirs


def first_non_finite(data):
    """Index tuple of the first NaN/Inf in data (C order), or None when all are finite."""
    if np.all(np.isfinite(data)):
        return None
    return tuple(np.argwhere(~np.isfinite(data))[0].tolist())


def assert_finite(data, what="array"):
    """NaN/Inf is a contract violation: raise FloatingPointError naming `what`
    and the first non-finite index."""
    bad = first_non_finite(data)
    if bad is not None:
        raise FloatingPointError(f"non-finite value in {what} at index {bad}")


def _adoptable(gp, g, grads, like):
    """May the sweep keep gp, returned by the adjoint of upstream g, as a .grad?"""
    return (isinstance(gp, np.ndarray) and gp.base is None and gp is not g
            and sum(x is gp for x in grads) == 1
            and gp.shape == like.shape and gp.dtype == like.dtype)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward, op):
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward, op=op)
    return Tensor(data, op=op)


def _unbroadcast(g, shape):
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise -------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out_data, (a, b), backward, "add")


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out_data, (a, b), backward, "sub")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(out_data, (a, b), backward, "mul")


def square(a):
    a = _as_tensor(a)

    def backward(g):
        return (g * (2.0 * a.data),)

    return _make(a.data * a.data, (a,), backward, "square")


def relu(a):
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _make(out_data, (a,), backward, "relu")


def sigmoid(a):
    a = _as_tensor(a)
    # stable split form: exp() only ever sees non-positive arguments
    e = np.exp(-np.abs(a.data))
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), backward, "sigmoid")


def log(a):
    a = _as_tensor(a)

    def backward(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), backward, "log")


def clamp(a, lo, hi):
    """Clip values; gradient passes through strictly inside (lo, hi)."""
    a = _as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def backward(g):
        return (g * inside,)

    return _make(out_data, (a,), backward, "clamp")


def tsum(a, axis=None):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def backward(g):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.data.shape),)

    return _make(out_data, (a,), backward, "sum")


def tmean(a, axis=None):
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis), 1.0 / n)


def reshape(a, shape):
    a = _as_tensor(a)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _make(a.data.reshape(shape), (a,), backward, "reshape")


def take_cells(a, index):
    """Gather a[index] where index holds one integer array per axis of a.

    Backward sums the gradients of each cell in index order, so repeated
    cells accumulate correctly.
    """
    a = _as_tensor(a)
    index = tuple(np.asarray(i) for i in index)
    if len(index) != a.data.ndim:
        raise ValueError(f"take_cells needs one index array per axis ({a.data.ndim}), "
                         f"got {len(index)}")

    def backward(g):
        flat = np.ravel_multi_index(index, a.data.shape)
        acc = np.bincount(flat.reshape(-1), weights=g.reshape(-1), minlength=a.data.size)
        return (acc.reshape(a.data.shape),)

    return _make(a.data[index], (a,), backward, "take_cells")


def select_channel(x, c):
    """x[:, c] of a [B,C,...] tensor, keeping the graph connected."""
    x = _as_tensor(x)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, c] = g
        return (gx,)

    return _make(x.data[:, c], (x,), backward, "select_channel")


# -- convolution kernels (raw numpy, the forwards of the graph ops)

def _im2col1d(x, k, lo, hi):
    """Time-major [hi-lo, B, C*k] patch matrix of the zero-padded input, times lo..hi-1."""
    B, C, T = x.shape
    p = (k - 1) // 2
    xp = np.zeros((B, C, T + 2 * p), dtype=x.dtype)  # not np.pad: its overhead is per item
    xp[:, :, p:p + T] = x
    s0, s1, s2 = xp.strides
    col = as_strided(xp[:, :, lo:], (hi - lo, B, C, k), (s2, s0, s1, s2))
    return np.ascontiguousarray(col).reshape(hi - lo, B, C * k)


def conv1d_same_raw(x, w, b, lo=0, hi=None):
    """out[b,o,t] = b[o] + sum_{c,j} w[o,c,j] * x_padded[b,c,t+j] for lo <= t < hi, else 0.

    One batch item at a time: its [n, Ci*k] im2col, then one GEMM with the
    weights, so no output depends on B and only one item's patch matrix is
    alive at once.
    """
    B, _, T = x.shape
    hi = T if hi is None else hi
    Co, Ci, k = w.shape
    wt = w.reshape(Co, Ci * k).T
    out = np.zeros((B, Co, T))
    for i in range(B):
        rows = _im2col1d(x[i:i + 1], k, lo, hi)[:, 0] @ wt
        if b is not None:
            rows += b
        out[i, :, lo:hi] = rows.T
    return out


def conv1d_same(x, w, b, lo=0, hi=None):
    """'Same'-length 1D cross-correlation, zero padding, odd kernels; rows [lo, hi) only.

    The forward is conv1d_same_raw, which builds one item's im2col at a
    time, and the node keeps x, w and b and nothing else. The adjoint
    loops over the k taps. Tap j pairs output time t with input time
    t + j - (k-1)//2, so with the n rows of g and the input both time-major,
    the tap's gw slice and its share of gx are one GEMM each over all n*B
    rows, and the gx share lands by one shifted add. No im2col, of x or of
    g, is kept or rebuilt.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ValueError("conv1d_same expects x[B,C,T] and w[Cout,Cin,k]")
    Co, Ci, k = w.data.shape
    B, _, T = x.data.shape
    hi = T if hi is None else hi
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")
    if Ci != x.data.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.data.shape[1]}, weight expects {Ci}")
    if b.data.shape != (Co,):
        raise ValueError(f"bias must have shape ({Co},), got {b.data.shape}")
    if not 0 <= lo < hi <= T:
        raise ValueError(f"output rows [{lo}, {hi}) must be a non-empty part of [0, {T})")
    out_data = conv1d_same_raw(x.data, w.data, b.data, lo, hi)

    def backward(g):
        n, p = hi - lo, (k - 1) // 2
        # [n*B, Co] time-major rows of g; the 0 rows outside [lo, hi) pass nothing
        g_rows = np.ascontiguousarray(g[:, :, lo:hi].transpose(2, 0, 1)).reshape(n * B, Co)
        # input times lo-p .. hi+p-1, which the taps read, time-major and zero-padded
        t0, t1 = max(lo - p, 0), min(hi + p, T)
        xs = np.zeros((n + k - 1, B, Ci))
        xs[t0 - lo + p:t1 - lo + p] = x.data[:, :, t0:t1].transpose(2, 0, 1)
        w_taps = np.ascontiguousarray(w.data.transpose(2, 0, 1))  # [k, Co, Ci]
        gxs = np.zeros_like(xs)
        gw = np.empty((k, Co, Ci))
        for j in range(k):
            np.matmul(g_rows.T, xs[j:j + n].reshape(n * B, Ci), out=gw[j])
            gxs[j:j + n] += np.matmul(g_rows, w_taps[j]).reshape(n, B, Ci)
        gx = np.zeros((B, Ci, T))
        gx[:, :, t0:t1] = gxs[t0 - lo + p:t1 - lo + p].transpose(1, 2, 0)
        return gx, gw.transpose(1, 2, 0), g_rows.sum(axis=0)

    return _make(out_data, (x, w, b), backward, "conv1d_same")


def _pad2d(x, p):
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def _im2col2d(x, kh, kw, dilation):
    """Contiguous [B, C*kh*kw, H*W] patch matrix of the padded input."""
    B, C, H, W = x.shape
    p = dilation * (kh - 1) // 2
    xp = _pad2d(x, p)
    s0, s1, s2, s3 = xp.strides
    view = as_strided(xp, (B, C, kh, kw, H, W),
                      (s0, s1, s2 * dilation, s3 * dilation, s2, s3))
    return np.ascontiguousarray(view).reshape(B, C * kh * kw, H * W)


def conv2d_dilated_raw(x, w, b, dilation, col=None):
    """Dilated 'same' 2D cross-correlation, odd square kernels."""
    B, C, H, W = x.shape
    Co, Ci, kh, kw = w.shape
    if kh == 1 and kw == 1:
        out = np.matmul(w.reshape(Co, Ci), x.reshape(B, Ci, H * W))
    else:
        if col is None:
            col = _im2col2d(x, kh, kw, dilation)
        out = np.matmul(w.reshape(Co, Ci * kh * kw), col)
    out = out.reshape(B, Co, H, W)
    if b is not None:
        out += b[:, None, None]
    return out


def conv2d_dilated(x, w, b, dilation=1):
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    Co, Ci, kh, kw = w.data.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"kernel must be odd and square, got {kh}x{kw}")
    if Ci != x.data.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.data.shape[1]}, weight expects {Ci}")
    col = None
    if kh > 1 or kw > 1:
        col = _im2col2d(x.data, kh, kw, dilation)
    out_data = conv2d_dilated_raw(x.data, w.data, b.data, dilation, col)

    def backward(g):
        B, _, H, W = x.data.shape
        g2 = g.reshape(B, Co, H * W)
        gb = g.sum(axis=(0, 2, 3))
        if col is None:  # 1x1 kernel, no im2col
            x2 = x.data.reshape(B, Ci, H * W)
            gw = np.matmul(g2, x2.transpose(0, 2, 1)).sum(axis=0).reshape(Co, Ci, 1, 1)
            gx = np.empty((B, Ci, H, W))  # owned, so the sweep adopts it
            np.matmul(w.data.reshape(Co, Ci).T, g2, out=gx.reshape(B, Ci, H * W))
            return gx, gw, gb
        gw = np.matmul(g2, col.transpose(0, 2, 1)).sum(axis=0).reshape(Co, Ci, kh, kw)
        gcol = np.matmul(w.data.reshape(Co, Ci * kh * kw).T, g2)
        gcol = gcol.reshape(B, Ci, kh, kw, H, W)
        p = dilation * (kh - 1) // 2
        gxp = np.zeros((B, Ci, H + 2 * p, W + 2 * p))
        for dy in range(kh):
            for dx in range(kw):
                gxp[:, :, dilation * dy:dilation * dy + H,
                    dilation * dx:dilation * dx + W] += gcol[:, :, dy, dx]
        return gxp[:, :, p:p + H, p:p + W], gw, gb

    return _make(out_data, (x, w, b), backward, "conv2d_dilated")


# -- map-domain ops ----------------------------------------------------

def repeat_to_map(vec, axis):
    """Broadcast a [B,C,T] sequence to a [B,C,T,T] (start,end) map.

    axis='start': out[b,c,s,e] = vec[b,c,s]; axis='end': out[b,c,s,e] = vec[b,c,e].
    """
    vec = _as_tensor(vec)
    if vec.data.ndim != 3:
        raise ValueError("repeat_to_map expects [B,C,T]")
    if axis not in ("start", "end"):
        raise ValueError(f"axis must be 'start' or 'end', got {axis!r}")
    B, C, T = vec.data.shape
    if axis == "start":
        out_data = np.broadcast_to(vec.data[:, :, :, None], (B, C, T, T)).copy()
    else:
        out_data = np.broadcast_to(vec.data[:, :, None, :], (B, C, T, T)).copy()

    def backward(g):
        return (g.sum(axis=3) if axis == "start" else g.sum(axis=2),)

    return _make(out_data, (vec,), backward, "repeat_to_map")


def assemble_band_maps(starts, ends, band_cells, T):
    """The [B, 2C, T, T] proposal feature map from per-band [B, C, T] sequences.

    band_cells: per band, its cells as row runs (s, e0, e1), meaning cells
    (s, e) for e in [e0, e1) (see net.band_cells). Such a run takes the
    constant start column starts[:, :, s] in channels [0, C) and the end
    slice ends[:, :, e0:e1] in channels [C, 2C), so the assembly is two
    contiguous row writes per run. Bands own disjoint cells; cells owned
    by no band (everything below the diagonal) stay exactly zero. The
    adjoint reads the same runs: a start column collects its run's
    gradient summed over e, an end slice adds the run's gradient slice.
    """
    starts = [_as_tensor(s) for s in starts]
    ends = [_as_tensor(e) for e in ends]
    B, C, _ = starts[0].data.shape
    out_data = np.zeros((B, 2 * C, T, T))
    for start, end, runs in zip(starts, ends, band_cells):
        for s, e0, e1 in runs:
            out_data[:, :C, s, e0:e1] = start.data[:, :, s, None]
            out_data[:, C:, s, e0:e1] = end.data[:, :, e0:e1]

    def backward(g):
        gs = [np.zeros_like(x.data) for x in starts]
        ge = [np.zeros_like(x.data) for x in ends]
        for gs_b, ge_b, runs in zip(gs, ge, band_cells):
            for s, e0, e1 in runs:
                gs_b[:, :, s] += g[:, :C, s, e0:e1].sum(axis=-1)
                ge_b[:, :, e0:e1] += g[:, C:, s, e0:e1]
        return (*gs, *ge)

    return _make(out_data, (*starts, *ends), backward, "assemble_band_maps")


@lru_cache(maxsize=16)
def _band_map_plan(T, edges, k, dilation):
    """Slice table of band_map_conv: one (off, m, entries) per output diagonal d = e - s,
    in packed order d = 0..T-1, then -1..-(T-1); its m = T - |d| cells start at off.

    Tap (dy, dx) of output cell (s, s+d) reads input cell (s+oy, s+d+ox),
    oy = dilation*(dy - k//2), ox likewise. That cell lies on diagonal
    d' = d + ox - oy, so its band is fixed per (d, tap), and taps that land
    on the zero lower triangle (d' < 0) or off the map drop out. An entry
    (band, tap, lo, hi, u0, v0) adds U[band][tap, u0:u0+hi-lo] and
    V[band][tap, v0:v0+hi-lo] to cells lo..hi-1 of diagonal d, where cell
    (s, s+d) is number s for d >= 0 and s + d for d < 0.
    """
    band_of = np.searchsorted(np.asarray(edges), np.arange(T), side="right") - 1
    c = k // 2
    taps = [(dy * k + dx, dilation * (dy - c), dilation * (dx - c))
            for dy in range(k) for dx in range(k)]
    plan, off = [], 0
    for d in (*range(T), *range(-1, -T, -1)):
        i0 = min(d, 0)  # start s is cell s + i0 of its diagonal
        entries = []
        for tap, oy, ox in taps:
            dp = d + ox - oy
            if not 0 <= dp < T:
                continue
            lo = max(0, -d, -oy, -d - ox)
            hi = min(T, T - d, T - oy, T - d - ox)
            if lo < hi:
                entries.append((int(band_of[dp]), tap, lo + i0, hi + i0, lo + oy, lo + d + ox))
        plan.append((off, T - abs(d), tuple(entries)))
        off += T - abs(d)
    return tuple(plan)


def _kernel_halves(w, C):
    """[C, K*Co] start and end halves of a [Co, 2C, k, k] kernel, column tap*Co + o
    with tap = dy*k + dx."""
    Co, _, kh, kw = w.shape
    return (w[:, :C].transpose(1, 2, 3, 0).reshape(C, kh * kw * Co),
            w[:, C:].transpose(1, 2, 3, 0).reshape(C, kh * kw * Co))


def band_rows(edges):
    """The trim rule: the [lo, hi) rows of each band's start sequence, and of each
    band's end sequence, that band-map cells read. A band-i cell (s, e) has
    e - s >= edges[i] and e < T, so s < T - edges[i] and e >= edges[i]."""
    T = edges[-1]
    return [(0, T - lo) for lo in edges[:-1]], [(lo, T) for lo in edges[:-1]]


def _band_taps(starts, ends, edges, w):
    """Per start, then per end [B, C, T] sequence: its band_rows (lo, hi, time-major
    copy) and U[tap, t] = (W_tap half @ S)[:, :, t] as [K, T, B, Co], unset off them."""
    B, C, T = starts[0].shape
    K = w.shape[2] * w.shape[3]
    reads, U = [], []
    for xs, w_half, rows in zip((starts, ends), _kernel_halves(w, C), band_rows(edges)):
        for x, (lo, hi) in zip(xs, rows):
            seq = np.ascontiguousarray(x[:, :, lo:hi].transpose(2, 0, 1))
            u = np.empty((K, T, B, w.shape[0]))
            u[:, lo:hi] = np.matmul(seq.reshape(-1, C), w_half).reshape(
                hi - lo, B, K, -1).transpose(2, 0, 1, 3)
            reads.append((lo, hi, seq))
            U.append(u)
    return reads, U


def lower_strip(T, k, dilation):
    """The strip rule: a k x k tap of `dilation` moves e - s by at most (k-1)*dilation,
    so of the cells e < s of a conv over a map that is 0 below its diagonal only
    the strip diagonals d = -1 .. -reach, reach = min((k-1)*dilation, T-1), read
    the map. Every cell further below reads only zeros and equals the bias.
    Returns (reach, n_far), n_far the number of those far cells in one map."""
    reach = min((k - 1) * dilation, T - 1)
    return reach, (T - 1 - reach) * (T - reach) // 2


def band_map_conv(starts, ends, edges, w, b, dilation=1, lower=False):
    """Dilated 'same' conv over the duration-band proposal map, never built.

    Equals conv2d_dilated(assemble_band_maps(starts, ends, cells, T), w, b,
    dilation) where cells are the duration bands of `edges` (cell (s, e) is
    in band i iff edges[i] <= e - s < edges[i+1]) on the cells it computes.
    Every map cell is a band's start feature at s stacked on its end feature
    at e, so each tap is one matmul per band over the rows band_rows(edges)
    names (U = W_tap[:, :C] @ S, V = W_tap[:, C:] @ E), and each output
    diagonal is a sum of contiguous slices of U and V. The output is packed
    cells [B, Co, n, 1]: the T(T+1)/2 cells e >= s in upper_cells(T) order.
    With lower=True (training, whose batch statistics pool every cell) the
    cells e < s follow: the lower_strip diagonals d = -1 down to -reach, each
    by e, then, if n_far > 0, one cell equal to b that stands for the n_far
    cells below the strip.
    """
    starts = [_as_tensor(s) for s in starts]
    ends = [_as_tensor(e) for e in ends]
    w, b = _as_tensor(w), _as_tensor(b)
    edges = tuple(int(e) for e in edges)
    B, C, T = starts[0].data.shape
    Co, Ci, kh, kw = w.data.shape
    if len(starts) != len(edges) - 1 or len(ends) != len(starts):
        raise ValueError(f"{len(edges) - 1} bands need as many start and end sequences, "
                         f"got {len(starts)} and {len(ends)}")
    if edges[0] != 0 or edges[-1] != T:
        raise ValueError(f"band edges must run from 0 to T={T}, got {list(edges)}")
    if any(x.data.shape != (B, C, T) for x in (*starts, *ends)):
        raise ValueError(f"band sequences must all have shape {(B, C, T)}")
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"kernel must be odd and square, got {kh}x{kw}")
    if Ci != 2 * C:
        raise ValueError(f"channel mismatch: map has {2 * C}, weight expects {Ci}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    K = kh * kw
    nb = len(starts)
    reach, n_far = lower_strip(T, kh, int(dilation))
    plan = _band_map_plan(T, edges, kh, int(dilation))[:T + reach if lower else T]
    reads, U = _band_taps([x.data for x in starts], [x.data for x in ends], edges, w.data)
    n = plan[-1][0] + plan[-1][1]
    out_data = np.empty((B, Co, n + (lower and n_far > 0), 1))
    out_data[:, :, n:, 0] = b.data[:, None]  # the far cells' stand-in, if any
    acc = np.empty((T, B, Co))
    for off, m, entries in plan:
        # summed diagonal-major, then one copy into the channel-first output
        a = acc[:m]
        a[...] = b.data
        for band, tap, lo, hi, u0, v0 in entries:
            a[lo:hi] += U[band][tap, u0:u0 + hi - lo]
            a[lo:hi] += U[nb + band][tap, v0:v0 + hi - lo]
        out_data[:, :, off:off + m, 0] = a.transpose(1, 2, 0)
    del U, acc

    def backward(g):
        gU = [np.zeros((K, T, B, Co)) for _ in reads]
        for off, m, entries in plan:
            gd = np.ascontiguousarray(g[:, :, off:off + m, 0].transpose(2, 0, 1))
            for band, tap, lo, hi, u0, v0 in entries:
                gU[band][tap, u0:u0 + hi - lo] += gd[lo:hi]
                gU[nb + band][tap, v0:v0 + hi - lo] += gd[lo:hi]
        w_halves = _kernel_halves(w.data, C)
        gw = np.zeros((2, C, K * Co))
        g_seqs = []
        for i, ((lo, hi, seq), gx) in enumerate(zip(reads, gU)):
            # the read rows, back in [n*B, K*Co], the layout of the forward matmul's output
            gx = gx[:, lo:hi].transpose(1, 2, 0, 3).reshape(-1, K * Co)
            g_seq = np.zeros((B, C, T))  # unread rows get no gradient
            g_seq[:, :, lo:hi] = np.matmul(gx, w_halves[i // nb].T).reshape(
                hi - lo, B, C).transpose(1, 2, 0)
            g_seqs.append(g_seq)
            gw[i // nb] += np.matmul(seq.reshape(-1, C).T, gx)
        gw = gw.reshape(Ci, kh, kw, Co).transpose(3, 0, 1, 2)
        return (*g_seqs, gw, g.sum(axis=(0, 2, 3)))

    return _make(out_data, (*starts, *ends, w, b), backward, "band_map_conv")


@lru_cache(maxsize=16)
def upper_cells(T):
    """(rows, cols) of the T(T+1)/2 cells e >= s of a T x T map in packed order:
    diagonal d = e - s from 0 to T-1, each diagonal by start s. Read-only."""
    rows = np.concatenate([np.arange(T - d) for d in range(T)])
    cols = rows + np.repeat(np.arange(T), np.arange(T, 0, -1))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def scatter_upper(x, T):
    """[B, C, T, T] maps of packed cells x [B, C, n, 1] whose first T(T+1)/2 are
    the cells e >= s in upper_cells(T) order. Cells e < s are 0; the rest of x
    is not read. The adjoint is the gather of those cells."""
    x = _as_tensor(x)
    B, C = x.data.shape[:2]
    rows, cols = upper_cells(T)
    m = rows.size
    out_data = np.zeros((B, C, T, T))
    out_data[:, :, rows, cols] = x.data[:, :, :m, 0]

    def backward(g):
        gx = np.zeros(x.data.shape)
        gx[:, :, :m, 0] = g[:, :, rows, cols]
        return (gx,)

    return _make(out_data, (x,), backward, "scatter_upper")


class BatchNormState:
    """Running statistics plus learnable per-channel affine."""

    def __init__(self, channels, momentum=0.1, eps=1e-5):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps


def batchnorm_lite(x, state, train, last_count=1):
    """Per-channel normalization over all non-channel axes of [B,C,...].

    Train mode normalizes with biased batch statistics and updates the
    running buffers; eval mode uses the running buffers. Variance gets an
    eps floor, so a zero-variance batch (e.g. B=1 constant) is fine.
    In train mode the last cell of each item counts last_count times: it
    stands in for that many equal cells, so the statistics weight it by
    last_count, and its gradient is the sum over the cells it stands for.
    """
    x = _as_tensor(x)
    axes = (0,) + tuple(range(2, x.data.ndim))
    last = (slice(None), slice(None)) + (-1,) * (x.data.ndim - 2)
    extra = last_count - 1 if train else 0  # copies of each last cell not in x
    n = x.data.size // x.data.shape[1] + x.data.shape[0] * extra
    bshape = (1, -1) + (1,) * (x.data.ndim - 2)
    if train:
        mean = (x.data.sum(axis=axes) + extra * x.data[last].sum(axis=0)) / n
    else:
        mean = state.running_mean
    x_hat = x.data - mean.reshape(bshape)  # centred once, scaled in place below
    if train:
        sq = x_hat * x_hat
        var = (sq.sum(axis=axes) + extra * sq[last].sum(axis=0)) / n  # biased
        del sq
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mean
        state.running_var = (1 - m) * state.running_var + m * var
    else:
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    x_hat *= inv_std.reshape(bshape)
    out_data = state.gamma.data.reshape(bshape) * x_hat + state.beta.data.reshape(bshape)
    gamma, beta = state.gamma, state.beta

    def backward(g):
        g_gamma, g_beta = (g * x_hat).sum(axis=axes), g.sum(axis=axes)
        scale = (gamma.data * inv_std).reshape(bshape)
        if not train:
            return g * scale, g_gamma, g_beta
        # sum(g*gamma) = gamma*g_beta and sum(g*gamma*x_hat) = gamma*g_gamma
        gx = n * g
        gx -= g_beta.reshape(bshape)
        gx -= x_hat * g_gamma.reshape(bshape)
        # each stand-in cell takes the mean terms of every cell it stands for
        gx[last] -= extra * (g_beta + x_hat[last] * g_gamma)
        gx *= scale / n
        return gx, g_gamma, g_beta

    return _make(out_data, (x, gamma, beta), backward, "batchnorm_lite")


def fold_batchnorm(state, w, b):
    """(W', b') of a 1x1 conv (w [Co, Ci], b) applied to eval-mode batchnorm_lite output.

    Eval batchnorm is the per-channel affine map y = a*x + c with
    a = gamma / sqrt(running_var + eps) and c = beta - running_mean*a, so
    W y + b = W' x + b' with W' = W diag(a) and b' = b + W c.
    """
    a = state.gamma.data / np.sqrt(state.running_var + state.eps)
    c = state.beta.data - state.running_mean * a
    return w * a, b + w @ c


def relu_bn_conv1x1(x, state, w, b, train, last_count=1):
    """One tail block, z = W bn(relu(x)) + b over the cells of x [B, C, ...], as one op.

    Equals conv2d_dilated(batchnorm_lite(relu(x), state, train, last_count), w, b)
    for a 1x1 kernel w [Co, C, 1, 1], running statistics included, without
    keeping relu(x), the normalized cells or the batchnorm output.

    Train mode folds the batch statistics into the conv: with X = relu(x),
    a = gamma * inv_std and Xc = X - mean, z = (W diag(a)) Xc + (W beta + b).
    The statistics are batchnorm_lite's (centred biased variance, the last
    cell of each item counted last_count times). The node keeps mean,
    inv_std, a and W diag(a); its adjoint recomputes Xc from x and needs
    only [Co, C] reductions of the upstream G besides the input gradient
    (Ioffe and Szegedy 2015, arXiv:1502.03167, with batchnorm's affine
    folded into W). With Mc = sum G Xc^T and g_b = sum G,
      g_W = Mc diag(a) + g_b beta^T,  g_beta = W^T g_b,
      g_gamma = inv_std * colsum(W * Mc),
      g_x = [x > 0] (a W^T G - (a / n) (g_beta + inv_std g_gamma Xc)),
    where the stand-in last cell takes its mean term last_count times.

    Every train pass sweeps one batch item's [C, cells] block at a time
    through one item-sized scratch array, so besides the output and g_x no
    map-sized array is made. The forward's sweeps sum the relu cells into
    the mean, then their centred squares into the variance, then write
    each item's output; the adjoint's first sweep sums Mc and g_b and
    writes a W^T G into g_x, its second adds the mean terms and applies
    the relu mask. Each sum adds the items in the order a whole-batch
    reduction does, so statistics, output and gradients are bit-identical
    to whole-batch passes over the [B, C, cells] block.

    Eval mode is fold_batchnorm's conv on relu(x), one batch item at a time so
    that x is left as it is, and builds no graph.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    B, C, *cells = x.data.shape
    Co = w.data.shape[0]
    if w.data.shape != (Co, C, 1, 1):
        raise ValueError(f"need a 1x1 kernel over {C} channels, got {w.data.shape}")
    x3 = x.data.reshape(B, C, -1)
    w2 = w.data[:, :, 0, 0]
    if not train:
        wf, bf = fold_batchnorm(state, w2, b.data)
        out_data = np.empty((B, Co, x3.shape[2]))
        r = np.empty(x3.shape[1:])
        for xi, oi in zip(x3, out_data):
            np.maximum(xi, 0.0, out=r)
            np.matmul(wf, r, out=oi)
            oi += bf[:, None]
        return Tensor(out_data.reshape(B, Co, *cells), op="relu_bn_conv1x1")
    extra = last_count - 1  # copies of each last cell not in x
    n = B * (x3.shape[2] + extra)
    r = np.empty(x3.shape[1:])  # one item's cells, the only scratch
    # item by item, in the order a whole-batch sum adds them
    total, last = np.zeros(C), np.zeros(C)
    for xi in x3:
        np.maximum(xi, 0.0, out=r)
        total += r.sum(axis=1)
        last += r[:, -1]
    mean = (total + extra * last) / n

    def centred(xi, out):
        """relu(xi) - mean of one item, written into out."""
        np.maximum(xi, 0.0, out=out)
        out -= mean[:, None]
        return out

    total[:], last[:] = 0.0, 0.0
    for xi in x3:
        centred(xi, r)
        r *= r
        total += r.sum(axis=1)
        last += r[:, -1]
    var = (total + extra * last) / n  # biased
    m = state.momentum
    state.running_mean = (1 - m) * state.running_mean + m * mean
    state.running_var = (1 - m) * state.running_var + m * var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    gamma, beta = state.gamma, state.beta
    a = gamma.data * inv_std
    wa = w2 * a
    shift = w2 @ beta.data + b.data
    out_data = np.empty((B, Co, x3.shape[2]))
    for xi, oi in zip(x3, out_data):
        np.matmul(wa, centred(xi, r), out=oi)
        oi += shift[:, None]

    def backward(g):
        G = g.reshape(B, Co, -1)
        gx = np.empty(x.data.shape)  # owned, so the sweep adopts it
        gx3 = gx.reshape(B, C, -1)
        xc = np.empty(x3.shape[1:])  # one item's centred cells, freed on return
        mc, g_b = np.zeros((Co, C)), np.zeros(Co)
        for xi, gi, gxi in zip(x3, G, gx3):
            mc += gi @ centred(xi, xc).T
            g_b += gi.sum(axis=1)
            np.matmul(wa.T, gi, out=gxi)
        g_w = (mc * a + np.outer(g_b, beta.data)).reshape(Co, C, 1, 1)
        g_beta = w2.T @ g_b
        g_gamma = inv_std * (w2 * mc).sum(axis=0)
        # batchnorm's mean terms, in place of the centred cells they are made of
        scale, offset = -a * inv_std * g_gamma / n, a * g_beta / n
        for xi, gxi in zip(x3, gx3):
            centred(xi, xc)
            xc *= scale[:, None]
            xc -= offset[:, None]
            xc[:, -1] *= last_count
            gxi += xc
            gxi *= xi > 0.0
        return gx, g_w, g_b, g_gamma, g_beta

    return _make(out_data.reshape(B, Co, *cells), (x, w, b, gamma, beta), backward,
                 "relu_bn_conv1x1")


# -- verification and optimization ------------------------------------

def grad_check(fn, inputs, eps=1e-4):
    """Max relative error between analytic and central-difference gradients.

    fn maps the tensor list to a scalar Tensor. The relative error per
    coordinate uses max(|analytic|, |numeric|, 1e-8) in the denominator.
    """
    for t in inputs:
        t.zero_grad()
    loss = fn(inputs)
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]
    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = fn(inputs).item()
            flat[i] = orig - eps
            down = fn(inputs).item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(a.reshape(-1)[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a.reshape(-1)[i] - numeric) / denom)
    return worst


class AdamState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One bias-corrected Adam update from the accumulated .grad fields."""
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_arrays(self):
        """Flat list of (name, array) pairs for checkpointing."""
        out = [("adam_step", np.array([float(self.step_count)]))]
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out.append((f"adam_m{i}", m))
            out.append((f"adam_v{i}", v))
        return out

    def load_state_arrays(self, arrays, where="optimizer state"):
        """Inverse of state_arrays; a missing array raises ValueError naming `where`."""
        for name, _ in self.state_arrays():
            if name not in arrays:
                raise ValueError(f"{where} is missing optimizer array {name!r}")
        self.step_count = int(arrays["adam_step"][0])
        for i in range(len(self.params)):
            self.m[i][...] = arrays[f"adam_m{i}"]
            self.v[i][...] = arrays[f"adam_v{i}"]
