"""Network blocks for the sparse multilevel boundary generator.

The model maps a per-video feature sequence [B, N0, T] to

  * start/end boundary probability sequences [B, T], and
  * a classification + regression confidence map pair [B, T, T] over
    (start index, end index) cells, valid on the upper triangle e >= s.

The proposal feature map is assembled from per-duration-band 1D
convolutions evaluated only at the start and end positions of each cell,
which is what makes the layer cheap compared with dense boundary-matching
sampling; ``SmbgNet.band_sequences`` runs them for every forward. The
one forward, ``SmbgNet.forward``, never materializes that map: the first
confidence-head conv reads the band sequences directly
(``tensor.band_map_conv``) and computes packed cells, the upper triangle
e >= s plus, in training, the cells e < s that batch statistics pool: the
diagonals the dilated conv reaches, and one cell that stands in for the
rest, which all equal the conv's bias (``tensor.lower_strip``).
The tail after it is three ``tensor.relu_bn_conv1x1`` blocks (relu,
batchnorm and 1x1 conv as one op, the batchnorm folded into the conv in
both modes) and a sigmoid. ``SmbgNet.predict``, which inference runs, is
the eval forward without a graph. The dense map path (``mpfg_forward`` +
``sec_head``) stays as the reference it is checked against. The speed
benchmark (``costmodel.bench``) times the band layer as ``mpfg_forward``
under ``tensor.no_grad``: the band sequences that training and inference
also compute, assembled into the dense map that neither of them builds,
so training does not run ``mpfg_forward``'s ops. A BMN-style
sampling generator is included purely as the efficiency baseline for the
cost model and benchmarks; it is the only code here that calls raw numpy
conv kernels directly.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import tensor as t


class BandSpecError(ValueError):
    """A band spec that does not fit its temporal length."""


class ModelFieldError(ValueError):
    """A ModelConfig field of the wrong type or out of range; .field names it."""

    def __init__(self, field, problem):
        super().__init__(f"{field.replace('_', ' ')} {problem}")
        self.field, self.problem = field, problem


@dataclass
class BandSpec:
    """Duration bands and their per-band 1D kernel sizes.

    edges: ascending [0, l1, l2, ..., T]; band i covers durations
    (e - s) in [edges[i], edges[i+1]). kernel_sizes has one odd entry
    per band.
    """

    edges: list
    kernel_sizes: list

    def __post_init__(self):
        self.edges = [int(e) for e in self.edges]
        self.kernel_sizes = [int(k) for k in self.kernel_sizes]

    @property
    def num_bands(self):
        return len(self.edges) - 1

    def validate(self, T):
        if len(self.edges) < 2:
            raise BandSpecError("need at least one band")
        if self.edges[0] != 0:
            raise BandSpecError(f"first band edge must be 0, got {self.edges[0]}")
        if self.edges[-1] != T:
            raise BandSpecError(f"band edges must reach T={T}, got {self.edges[-1]} "
                                "(cells past the last edge would be unmasked)")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise BandSpecError(f"band edges must be strictly ascending, got {self.edges}")
        if len(self.kernel_sizes) != self.num_bands:
            raise BandSpecError(f"{self.num_bands} bands need {self.num_bands} kernel sizes, "
                                f"got {len(self.kernel_sizes)}")
        if any(k < 1 or k % 2 == 0 for k in self.kernel_sizes):
            raise BandSpecError(f"kernel sizes must be odd positive, got {self.kernel_sizes}")
        return self


def default_band_spec(T=100):
    """The stock four-band layout; kernel size tracks the band's duration range."""
    if T == 100:
        return BandSpec([0, 17, 33, 57, 100], [17, 33, 57, 99])
    # scale the stock edges to other T, keeping them ascending and valid
    edges = sorted({0, T} | {max(1, min(T - 1, round(e * T / 100))) for e in (17, 33, 57)})
    kernels = [min(2 * T - 1, 2 * (edges[i + 1] - 1) + 1) | 1 for i in range(len(edges) - 1)]
    return BandSpec(edges, kernels)


def build_masks(T, spec):
    """Per-band binary (start, end) masks.

    Cell (s, e) belongs to band i iff edges[i] <= e - s < edges[i+1]; the
    masks exactly partition the upper triangle.
    """
    spec.validate(T)
    ss, ee = np.meshgrid(np.arange(T), np.arange(T), indexing="ij")
    masks = []
    for i in range(spec.num_bands):
        lo, hi = spec.edges[i], spec.edges[i + 1]
        masks.append(((ee - ss >= lo) & (ee - ss < hi)).astype(np.float64))
    return masks


def band_cells(masks):
    """Each band's active cells as row runs (s, e0, e1): cells (s, e), e0 <= e < e1.

    This is the cell form tensor.assemble_band_maps takes. A duration band
    is one run per row, s + edges[i] <= e < s + edges[i+1] clipped to T.
    """
    out = []
    for m in masks:
        rows, cols = np.nonzero(m)
        # a run opens at the first cell and wherever the row changes or a column is skipped
        opens = np.ones(cols.size, dtype=bool)
        opens[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1] + 1)
        closes = np.ones_like(opens)
        closes[:-1] = opens[1:]
        out.append(tuple(zip(rows[opens].tolist(), cols[opens].tolist(),
                             (cols[closes] + 1).tolist())))
    return out


def drop_mask_mode(d, where):
    """Config dict without the retired "mask_mode" field.

    Duration bands are the only band semantics; files written while a
    second mode existed carry "mask_mode": "duration" and still load.
    """
    d = dict(d)
    mode = d.pop("mask_mode", "duration")
    if mode != "duration":
        raise ValueError(f"{where}: mask_mode {mode!r} is not supported; duration bands "
                         "are the only band semantics (drop the field or set 'duration')")
    return d


@dataclass
class ModelConfig:
    """Shapes of every block; serialized into checkpoints."""

    in_channels: int = 400
    temporal_length: int = 100
    base_hidden: int = 256
    base_channels: int = 128          # N, the f_b channel count
    band_channels: int = 0            # per-branch band conv output width; 0 -> N
    boundary_hidden: int = 0          # 0 -> N // 2
    sec_hidden: int = 128
    dilation: int = 7
    band_spec: BandSpec = None        # None -> default_band_spec(temporal_length)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, (int, np.integer))):
                raise ModelFieldError(f.name, f"must be an integer, got {value!r}")
        if self.temporal_length < 1:
            raise ModelFieldError("temporal_length", f"must be >= 1, got {self.temporal_length}")
        if self.dilation < 1:
            raise ModelFieldError("dilation", f"must be >= 1, got {self.dilation}")
        if self.band_spec is None:
            self.band_spec = default_band_spec(self.temporal_length)
        elif isinstance(self.band_spec, dict):
            try:
                self.band_spec = BandSpec(**self.band_spec)
            except (TypeError, ValueError) as e:
                raise BandSpecError(f"malformed band spec ({e})") from None
        elif not isinstance(self.band_spec, BandSpec):
            raise BandSpecError(f"band spec must be an object with edges and kernel_sizes, "
                                f"got {self.band_spec!r}")
        if not self.band_channels:
            self.band_channels = self.base_channels
        if not self.boundary_hidden:
            self.boundary_hidden = max(1, self.base_channels // 2)
        self.band_spec.validate(self.temporal_length)

    def to_dict(self):
        return asdict(self)


class Conv1d:
    def __init__(self, draw, cin, cout, k):
        self.w = t.Tensor(draw((cout, cin, k), cin * k), requires_grad=True)
        self.b = t.Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x, lo=0, hi=None):
        return t.conv1d_same(x, self.w, self.b, lo, hi)


class Conv2d:
    def __init__(self, draw, cin, cout, k, dilation=1):
        self.w = t.Tensor(draw((cout, cin, k, k), cin * k * k), requires_grad=True)
        self.b = t.Tensor(np.zeros(cout), requires_grad=True)
        self.dilation = dilation

    def __call__(self, x):
        return t.conv2d_dilated(x, self.w, self.b, self.dilation)


class SmbgNet:
    """Base module, boundary head, multilevel band layer and confidence head."""

    def __init__(self, config, seed=0):
        rng = t.init_rng(seed)
        self._build(config, lambda shape, fan_in: t.fan_in_uniform(rng, shape, fan_in))

    @classmethod
    def _unfilled(cls, config):
        """A net whose conv weights are uninitialized, for a loader to replace."""
        net = cls.__new__(cls)
        net._build(config, lambda shape, fan_in: np.empty(shape))
        return net

    def _build(self, config, draw):
        """Every layer, in weight-draw order; draw(shape, fan_in) makes a conv weight."""
        self.config = c = config
        n = c.base_channels
        self.base1 = Conv1d(draw, c.in_channels, c.base_hidden, 3)
        self.base2 = Conv1d(draw, c.base_hidden, n, 3)
        self.start1 = Conv1d(draw, n, c.boundary_hidden, 3)
        self.start2 = Conv1d(draw, c.boundary_hidden, 1, 1)
        self.end1 = Conv1d(draw, n, c.boundary_hidden, 3)
        self.end2 = Conv1d(draw, c.boundary_hidden, 1, 1)
        self.band_starts = [Conv1d(draw, n, c.band_channels, k) for k in c.band_spec.kernel_sizes]
        self.band_ends = [Conv1d(draw, n, c.band_channels, k) for k in c.band_spec.kernel_sizes]
        self.sec_dil = Conv2d(draw, 2 * c.band_channels, c.sec_hidden, 3, dilation=c.dilation)
        self.sec_bn1 = t.BatchNormState(c.sec_hidden)
        self.sec_c1 = Conv2d(draw, c.sec_hidden, c.sec_hidden, 1)
        self.sec_bn2 = t.BatchNormState(c.sec_hidden)
        self.sec_c2 = Conv2d(draw, c.sec_hidden, c.sec_hidden, 1)
        self.sec_bn3 = t.BatchNormState(c.sec_hidden)
        self.sec_c3 = Conv2d(draw, c.sec_hidden, 2, 1)
        self.cells = band_cells(build_masks(c.temporal_length, c.band_spec))

    # -- parameter plumbing --------------------------------------------
    def named_parameters(self):
        """(name, Tensor) pairs in a fixed declaration order."""
        out = []
        for name in ("base1", "base2", "start1", "start2", "end1", "end2"):
            layer = getattr(self, name)
            out += [(f"{name}.w", layer.w), (f"{name}.b", layer.b)]
        for i, (s, e) in enumerate(zip(self.band_starts, self.band_ends)):
            out += [(f"band{i}.start.w", s.w), (f"band{i}.start.b", s.b),
                    (f"band{i}.end.w", e.w), (f"band{i}.end.b", e.b)]
        for name in ("sec_dil", "sec_c1", "sec_c2", "sec_c3"):
            layer = getattr(self, name)
            out += [(f"{name}.w", layer.w), (f"{name}.b", layer.b)]
        for name in ("sec_bn1", "sec_bn2", "sec_bn3"):
            bn = getattr(self, name)
            out += [(f"{name}.gamma", bn.gamma), (f"{name}.beta", bn.beta)]
        return out

    def named_buffers(self):
        out = []
        for name in ("sec_bn1", "sec_bn2", "sec_bn3"):
            bn = getattr(self, name)
            out += [(f"{name}.running_mean", bn.running_mean),
                    (f"{name}.running_var", bn.running_var)]
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    # -- forward pieces --------------------------------------------------
    def base_module(self, x):
        if x.data.ndim != 3:
            raise ValueError("expected features [B, C, T]")
        if x.data.shape[2] != self.config.temporal_length:
            raise ValueError(f"temporal length mismatch: model expects "
                             f"{self.config.temporal_length}, input has {x.data.shape[2]}")
        return t.relu(self.base2(t.relu(self.base1(x))))

    def boundary_head(self, f_b):
        p_s = t.sigmoid(self.start2(t.relu(self.start1(f_b))))
        p_e = t.sigmoid(self.end2(t.relu(self.end1(f_b))))
        B, _, T = f_b.data.shape
        return t.reshape(p_s, (B, T)), t.reshape(p_e, (B, T))

    def band_sequences(self, f_b):
        """Per-band start and end sequences [B, C, T], computed on their band_rows only."""
        rows_s, rows_e = t.band_rows(self.config.band_spec.edges)
        return ([conv(f_b, *r) for conv, r in zip(self.band_starts, rows_s)],
                [conv(f_b, *r) for conv, r in zip(self.band_ends, rows_e)])

    def mpfg_forward(self, f_b):
        """The dense [B, 2C, T, T] proposal feature map (reference path)."""
        starts, ends = self.band_sequences(f_b)
        return t.assemble_band_maps(starts, ends, self.cells, self.config.temporal_length)

    def sec_head(self, f_p, train=False):
        """Confidence head over a dense proposal feature map (reference path)."""
        out = self._sec_tail(self.sec_dil(f_p), train)
        return t.select_channel(out, 0), t.select_channel(out, 1)

    def _sec_tail(self, h, train, last_count=1):
        """Everything after the first map conv, [B, H, ...] cells -> [B, 2, ...]:
        three tensor.relu_bn_conv1x1 blocks (relu, batchnorm, 1x1 conv), then
        the sigmoid. In training the last cell of each item counts last_count
        times in every batchnorm's statistics; every other op is per cell, so
        a cell that stands in for equal cells stays one. In eval each block is
        its batchnorm folded into its conv, and the output has no graph."""
        for bn, conv in ((self.sec_bn1, self.sec_c1), (self.sec_bn2, self.sec_c2),
                         (self.sec_bn3, self.sec_c3)):
            h = t.relu_bn_conv1x1(h, bn, conv.w, conv.b, train, last_count)
        return t.sigmoid(h)

    def forward(self, x, train=False):
        """Full pass: features -> (P_s, P_e, P_c, P_r), P_c and P_r [B, T, T].

        The first map conv reads the band sequences directly, so the proposal
        feature map is never built; it computes the cells e >= s. Training
        adds the cells e < s that batch statistics pool: the tensor.lower_strip
        diagonals the conv reaches, and one stand-in for the n_far cells below
        them, which all equal sec_dil.b and so stay equal through the per-cell
        tail. P_c and P_r equal sec_head(mpfg_forward(f_b)) on the cells e >= s
        and are exactly 0 on the cells e < s; in training so do the running
        statistics.
        """
        T = self.config.temporal_length
        f_b = self.base_module(x)
        p_s, p_e = self.boundary_head(f_b)
        starts, ends = self.band_sequences(f_b)
        h = t.band_map_conv(starts, ends, self.config.band_spec.edges, self.sec_dil.w,
                            self.sec_dil.b, self.sec_dil.dilation, lower=train)
        _, n_far = t.lower_strip(T, self.sec_dil.w.shape[2], self.sec_dil.dilation)
        maps = t.scatter_upper(self._sec_tail(h, train, max(n_far, 1)), T)
        return {"f_b": f_b, "P_s": p_s, "P_e": p_e,
                "P_c": t.select_channel(maps, 0), "P_r": t.select_channel(maps, 1)}

    def predict(self, x):
        """forward(x, train=False) on features x [B, C, T] without a graph, as the
        arrays (P_s, P_e, P_c, P_r)."""
        with t.no_grad():
            out = self.forward(t.Tensor(x), train=False)
        return tuple(out[k].data for k in ("P_s", "P_e", "P_c", "P_r"))


def mpfg_naive_oracle(f_b, spec, net):
    """Cell-by-cell reference for the multilevel band layer.

    For every active cell (s, e) of every band the two 1D convolution
    outputs are computed directly as dot products over the padded input
    window. Independent of the vectorized assembly path.
    """
    x = f_b.data if isinstance(f_b, t.Tensor) else np.asarray(f_b, dtype=np.float64)
    B, N, T = x.shape
    C = net.config.band_channels
    masks = build_masks(T, spec)
    out = np.zeros((B, 2 * C, T, T))
    for i in range(spec.num_bands):
        k = spec.kernel_sizes[i]
        p = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p)))
        ws = net.band_starts[i].w.data.reshape(C, N * k)
        bs = net.band_starts[i].b.data
        we = net.band_ends[i].w.data.reshape(C, N * k)
        be = net.band_ends[i].b.data
        ss, ee = np.nonzero(masks[i])
        for s_idx, e_idx in zip(ss, ee):
            for b in range(B):
                win_s = xp[b, :, s_idx:s_idx + k].reshape(-1)
                win_e = xp[b, :, e_idx:e_idx + k].reshape(-1)
                out[b, :C, s_idx, e_idx] += ws @ win_s + bs
                out[b, C:, s_idx, e_idx] += we @ win_e + be
    return out


@dataclass
class BmnConfig:
    """Shape of the boundary-matching baseline; echoed into cost reports."""

    channels: int = 128
    temporal_length: int = 100
    sample_count: int = 32
    expansion: float = 0.25
    hidden_3d: int = 512
    hidden_2d: int = 128
    out_channels: int = 2

    def to_dict(self):
        return asdict(self)


class BmnPfgReference:
    """Dense boundary-matching feature generator (the efficiency baseline).

    Every (s, e) cell samples `sample_count` bilinearly interpolated
    points over its duration-expanded span, realized as one matrix
    product with a precomputed [T, S*T*T] mask. ``forward_block`` chains
    the conventional 3D + 2D convolution stack that turns the samples
    into a 2-channel map, matching the widths of the public reference
    architecture. Not part of the proposal model; used for cost and
    speed comparisons only.
    """

    def __init__(self, config=None, seed=0):
        self.config = config or BmnConfig()
        c = self.config
        rng = t.init_rng(seed)
        self.sampling_mask = self._build_sampling_mask(c.temporal_length, c.sample_count,
                                                       c.expansion)
        n_in3d = c.channels * c.sample_count
        self.w3d = t.fan_in_uniform(rng, (c.hidden_3d, n_in3d), n_in3d)
        self.w1 = t.fan_in_uniform(rng, (c.hidden_2d, c.hidden_3d, 1, 1), c.hidden_3d)
        self.w2 = t.fan_in_uniform(rng, (c.hidden_2d, c.hidden_2d, 3, 3), c.hidden_2d * 9)
        self.w3 = t.fan_in_uniform(rng, (c.hidden_2d, c.hidden_2d, 3, 3), c.hidden_2d * 9)
        self.w4 = t.fan_in_uniform(rng, (c.out_channels, c.hidden_2d, 1, 1), c.hidden_2d)

    @staticmethod
    def sample_positions(s, e, sample_count, expansion, T):
        """Clamped sample positions over the expanded span of cell (s, e)."""
        lo, hi = float(s), float(e + 1)
        margin = expansion * (hi - lo)
        pts = np.linspace(lo - margin, hi + margin, sample_count)
        return np.clip(pts, 0.0, T - 1.0)

    @classmethod
    def _build_sampling_mask(cls, T, sample_count, expansion):
        mask = np.zeros((T, sample_count * T * T))
        for s in range(T):
            for e in range(s, T):
                pts = cls.sample_positions(s, e, sample_count, expansion, T)
                base = np.floor(pts).astype(int)
                frac = pts - base
                hi = np.minimum(base + 1, T - 1)
                for q in range(sample_count):
                    col = q * T * T + s * T + e
                    mask[base[q], col] += 1.0 - frac[q]
                    mask[hi[q], col] += frac[q]
        return mask

    def sample(self, x):
        """x [B,N,T] -> sampled features [B,N,S,T,T]."""
        B, N, T = x.shape
        c = self.config
        out = np.matmul(x, self.sampling_mask)
        return out.reshape(B, N, c.sample_count, T, T)

    def forward_block(self, x):
        """Sampling plus the 3D/2D convolution stack; streams over the batch."""
        B, N, T = x.shape
        c = self.config
        outs = []
        for b in range(B):
            samp = self.sample(x[b:b + 1])                      # [1, N, S, T, T]
            h = self.w3d @ samp.reshape(N * c.sample_count, T * T)
            h = np.maximum(h, 0.0).reshape(1, c.hidden_3d, T, T)
            h = np.maximum(t.conv2d_dilated_raw(h, self.w1, None, 1), 0.0)
            h = np.maximum(t.conv2d_dilated_raw(h, self.w2, None, 1), 0.0)
            h = np.maximum(t.conv2d_dilated_raw(h, self.w3, None, 1), 0.0)
            outs.append(t.conv2d_dilated_raw(h, self.w4, None, 1)[0])
        return np.stack(outs)


# -- checkpoint container ----------------------------------------------

_MAGIC = b"SMBG\x01"


def save_arrays(path, header, arrays):
    """One-file binary container: JSON header + float64 LE arrays in order.

    Written to `path`.tmp and moved over `path` with os.replace, so an
    interrupted write never leaves a partial file under `path`.
    """
    manifest = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    head = json.dumps({"header": header, "arrays": manifest}, sort_keys=True).encode()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", len(head)))
            f.write(head)
            for _, a in arrays:
                f.write(np.ascontiguousarray(a, dtype="<f8"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_exact(f, n, path, what):
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: truncated in {what} "
                         f"(expected {n} bytes, got {len(buf)})")
    return buf


def load_arrays(path):
    """(header, {name: array}) from a container; a truncated file, trailing
    bytes or a malformed header raise ValueError naming the file."""
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint container (bad magic {magic!r})")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, path, "header length"))
        try:
            meta = json.loads(_read_exact(f, hlen, path, "header").decode())
            manifest = [(e["name"], tuple(e["shape"])) for e in meta["arrays"]]
            header = meta["header"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
            raise ValueError(f"{path}: malformed container header ({e})") from None
        out = {}
        for name, shape in manifest:
            a = np.empty(shape, dtype="<f8")
            got = f.readinto(a.reshape(-1).view(np.uint8))  # straight into the array
            if got != a.nbytes:
                raise ValueError(f"{path}: truncated in array {name!r} "
                                 f"(expected {a.nbytes} bytes, got {got})")
            out[name] = a
        extra = os.fstat(f.fileno()).st_size - f.tell()
        if extra:
            last = f"after array {manifest[-1][0]!r}" if manifest else "after the header"
            raise ValueError(f"{path}: {extra} trailing bytes {last}")
    return header, out


def save_checkpoint(path, net, extra_header=None, optimizer=None):
    header = {"model_config": net.config.to_dict()}
    if extra_header:
        header.update(extra_header)
    arrays = [(n, p.data) for n, p in net.named_parameters()]
    arrays += net.named_buffers()
    if optimizer is not None:
        arrays += optimizer.state_arrays()
    save_arrays(path, header, arrays)


def net_from_arrays(header, arrays, where):
    """Rebuild a SmbgNet from a checkpoint's header and arrays.

    No weights are drawn: each parameter holds its float64 array from
    `arrays` itself, not a copy; buffers are copied.
    """
    if not isinstance(header.get("model_config"), dict):
        raise ValueError(f"{where}: header has no 'model_config' object")
    try:
        config = ModelConfig(**drop_mask_mode(header["model_config"], where))
    except BandSpecError as e:
        raise ValueError(f"{where}: model_config.band_spec: {e}") from None
    except ModelFieldError as e:
        raise ValueError(f"{where}: model_config.{e.field} {e.problem}") from None
    except TypeError as e:  # an unknown field
        raise ValueError(f"{where}: model_config: {e}") from None
    net = SmbgNet._unfilled(config)
    targets = [("parameter", n, p.data) for n, p in net.named_parameters()]
    targets += [("buffer", n, b) for n, b in net.named_buffers()]
    for kind, name, dst in targets:
        if name not in arrays:
            raise ValueError(f"{where} is missing {kind} {name!r}")
        if arrays[name].shape != dst.shape:
            raise ValueError(f"{where}: shape mismatch for {kind} {name!r}: "
                             f"file {arrays[name].shape} vs model {dst.shape}")
    for name, p in net.named_parameters():
        p.data = np.asarray(arrays[name], dtype=np.float64)
    for name, buf in net.named_buffers():
        buf[...] = arrays[name]
    return net


def load_checkpoint(path):
    """Rebuild a SmbgNet from a container; returns (net, header)."""
    header, arrays = load_arrays(path)
    return net_from_arrays(header, arrays, f"checkpoint {path}"), header
