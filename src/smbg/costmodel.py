"""Analytic MAC accounting, a counting oracle, and wall-clock benchmarks.

Convention: one multiply-accumulate = 1 MAC; bias adds, activations,
normalization, masking and summation are free. Zero-padding taps are
counted (the reference kernels execute them), so the closed forms are
exact, not approximate.

The per-branch width that reproduces the published 1.35e9 figure for the
multilevel band layer (inputs 128 channels, 256 per branch) is wider
than the stock model default (branch width = input width); reports
always echo the channel assumptions they were computed under.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as t
from .net import (BmnConfig, BmnPfgReference, ModelConfig, SmbgNet,
                  default_band_spec, mpfg_block_forward)
from .reference import (MacCounter, batchnorm_eval_ref, conv1d_same_ref,
                        conv2d_dilated_ref, matmul_ref, relu_ref, sigmoid_ref)


def macs_conv1d(cin, cout, k, T):
    if min(cin, cout, k, T) < 1:
        raise ValueError("conv1d MAC formula needs positive arguments")
    return cin * cout * k * T


def macs_conv2d(cin, cout, k, T):
    if min(cin, cout, k, T) < 1:
        raise ValueError("conv2d MAC formula needs positive arguments")
    return cin * cout * k * k * T * T


def macs_mpfg(n_in, n_out, kernel_sizes, T):
    """Two 1D branches per duration band; the masked assembly is free."""
    return sum(2 * macs_conv1d(n_in, n_out, k, T) for k in kernel_sizes)


def macs_bmn_pfg(config):
    """Sampling matmul plus the 3D/2D stack of the reference architecture."""
    c = config
    T, S = c.temporal_length, c.sample_count
    return (c.channels * T * (T * T * S)
            + c.hidden_3d * (c.channels * S) * T * T
            + c.hidden_3d * c.hidden_2d * T * T
            + 2 * macs_conv2d(c.hidden_2d, c.hidden_2d, 3, T)
            + c.hidden_2d * c.out_channels * T * T)


def full_scale_model_config():
    """Documented configuration for the published cost figures at T=100."""
    return ModelConfig(in_channels=400, temporal_length=100, base_hidden=256,
                       base_channels=128, band_channels=256, boundary_hidden=64,
                       sec_hidden=128, dilation=7, band_spec=default_band_spec(100))


@dataclass
class LayerCost:
    name: str
    macs: int
    params: int


@dataclass
class CostReport:
    variant: str
    config: dict
    batch: int
    layers: list
    block_total: int
    module_total: int
    wall_mean_s: float = 0.0
    wall_std_s: float = 0.0
    wall_median_s: float = 0.0
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        d = asdict(self)
        d["layers"] = [asdict(l) for l in self.layers]
        return d

    def table(self):
        lines = [f"{self.variant} cost (batch={self.batch})",
                 f"{'layer':<16}{'MACs':>16}{'params':>12}"]
        for l in self.layers:
            lines.append(f"{l.name:<16}{l.macs:>16,}{l.params:>12,}")
        lines.append(f"{'block total':<16}{self.block_total:>16,}")
        lines.append(f"{'module total':<16}{self.module_total:>16,}")
        if self.wall_mean_s:
            lines.append(f"wall: mean {self.wall_mean_s * 1e3:.2f} ms, "
                         f"median {self.wall_median_s * 1e3:.2f} ms, "
                         f"std {self.wall_std_s * 1e3:.2f} ms")
        return "\n".join(lines)


def smbg_layer_macs(config, batch=1):
    """name -> MACs for every convolution in the proposal model."""
    c = config
    T, n = c.temporal_length, c.base_channels
    out = {
        "base1": batch * macs_conv1d(c.in_channels, c.base_hidden, 3, T),
        "base2": batch * macs_conv1d(c.base_hidden, n, 3, T),
        "start1": batch * macs_conv1d(n, c.boundary_hidden, 3, T),
        "start2": batch * macs_conv1d(c.boundary_hidden, 1, 1, T),
        "end1": batch * macs_conv1d(n, c.boundary_hidden, 3, T),
        "end2": batch * macs_conv1d(c.boundary_hidden, 1, 1, T),
    }
    for i, k in enumerate(c.band_spec.kernel_sizes):
        out[f"band{i}.start"] = batch * macs_conv1d(n, c.band_channels, k, T)
        out[f"band{i}.end"] = batch * macs_conv1d(n, c.band_channels, k, T)
    out["sec_dil"] = batch * macs_conv2d(2 * c.band_channels, c.sec_hidden, 3, T)
    out["sec_c1"] = batch * macs_conv2d(c.sec_hidden, c.sec_hidden, 1, T)
    out["sec_c2"] = batch * macs_conv2d(c.sec_hidden, c.sec_hidden, 1, T)
    out["sec_c3"] = batch * macs_conv2d(c.sec_hidden, 2, 1, T)
    return out


def bmn_layer_macs(config, batch=1):
    c = config
    T, S = c.temporal_length, c.sample_count
    return {
        "sampling": batch * c.channels * T * (T * T * S),
        "conv3d": batch * c.hidden_3d * (c.channels * S) * T * T,
        "stack1": batch * macs_conv2d(c.hidden_3d, c.hidden_2d, 1, T),
        "stack2": batch * macs_conv2d(c.hidden_2d, c.hidden_2d, 3, T),
        "stack3": batch * macs_conv2d(c.hidden_2d, c.hidden_2d, 3, T),
        "stack4": batch * macs_conv2d(c.hidden_2d, c.out_channels, 1, T),
    }


def smbg_cost_report(config, batch=1):
    macs = smbg_layer_macs(config, batch)
    net = SmbgNet(config, seed=0)
    params = {}
    for name, p in net.named_parameters():
        base = name.rsplit(".", 1)[0]
        params[base] = params.get(base, 0) + p.data.size
    layers = [LayerCost(name, int(m), int(params.get(name, 0))) for name, m in macs.items()]
    block = sum(m for name, m in macs.items() if name.startswith("band"))
    return CostReport(
        variant="mpfg", config=config.to_dict(), batch=batch, layers=layers,
        block_total=int(block), module_total=int(sum(macs.values())),
        notes={"block": "multilevel band layer (per-band start/end 1D convolutions)",
               "channel_assumptions": f"f_b channels {config.base_channels}, "
                                      f"per-branch band width {config.band_channels}"},
    )


def bmn_cost_report(config, batch=1):
    macs = bmn_layer_macs(config, batch)
    c = config
    params = {
        "sampling": 0,  # fixed interpolation weights
        "conv3d": c.hidden_3d * c.channels * c.sample_count,
        "stack1": c.hidden_2d * c.hidden_3d,
        "stack2": c.hidden_2d * c.hidden_2d * 9,
        "stack3": c.hidden_2d * c.hidden_2d * 9,
        "stack4": c.out_channels * c.hidden_2d,
    }
    layers = [LayerCost(name, int(m), int(params[name])) for name, m in macs.items()]
    total = int(sum(macs.values()))
    return CostReport(
        variant="bmn_pfg", config=config.to_dict(), batch=batch, layers=layers,
        block_total=total, module_total=total,
        notes={"block": "boundary-matching sampling matmul + 3D/2D convolution stack",
               "channel_assumptions": f"{c.channels} input channels, {c.sample_count} samples, "
                                      f"hidden widths {c.hidden_3d}/{c.hidden_2d}"},
    )


# -- instrumented scalar forwards ---------------------------------------

def instrument_smbg_forward(net, x):
    """Eval-mode forward through the scalar reference kernels.

    Returns (outputs dict, MacCounter). The counter's per-layer tallies
    must equal smbg_layer_macs exactly; this is the measured side of the
    analytic formulas.
    """
    counter = MacCounter()
    c = net.config
    h = relu_ref(conv1d_same_ref(x, net.base1.w.data, net.base1.b.data, counter, "base1"))
    f_b = relu_ref(conv1d_same_ref(h, net.base2.w.data, net.base2.b.data, counter, "base2"))
    hs = relu_ref(conv1d_same_ref(f_b, net.start1.w.data, net.start1.b.data, counter, "start1"))
    p_s = sigmoid_ref(conv1d_same_ref(hs, net.start2.w.data, net.start2.b.data, counter, "start2"))
    he = relu_ref(conv1d_same_ref(f_b, net.end1.w.data, net.end1.b.data, counter, "end1"))
    p_e = sigmoid_ref(conv1d_same_ref(he, net.end2.w.data, net.end2.b.data, counter, "end2"))
    starts = [conv1d_same_ref(f_b, conv.w.data, conv.b.data, counter, f"band{i}.start")
              for i, conv in enumerate(net.band_starts)]
    ends = [conv1d_same_ref(f_b, conv.w.data, conv.b.data, counter, f"band{i}.end")
            for i, conv in enumerate(net.band_ends)]
    f_p = t.assemble_band_maps_raw(starts, ends, net.cells, c.temporal_length)
    g = relu_ref(conv2d_dilated_ref(f_p, net.sec_dil.w.data, net.sec_dil.b.data,
                                    c.dilation, counter, "sec_dil"))
    g = batchnorm_eval_ref(g, net.sec_bn1.gamma.data, net.sec_bn1.beta.data,
                           net.sec_bn1.running_mean, net.sec_bn1.running_var)
    g = relu_ref(conv2d_dilated_ref(g, net.sec_c1.w.data, net.sec_c1.b.data, 1, counter, "sec_c1"))
    g = batchnorm_eval_ref(g, net.sec_bn2.gamma.data, net.sec_bn2.beta.data,
                           net.sec_bn2.running_mean, net.sec_bn2.running_var)
    g = relu_ref(conv2d_dilated_ref(g, net.sec_c2.w.data, net.sec_c2.b.data, 1, counter, "sec_c2"))
    g = batchnorm_eval_ref(g, net.sec_bn3.gamma.data, net.sec_bn3.beta.data,
                           net.sec_bn3.running_mean, net.sec_bn3.running_var)
    out = sigmoid_ref(conv2d_dilated_ref(g, net.sec_c3.w.data, net.sec_c3.b.data,
                                         1, counter, "sec_c3"))
    outputs = {"f_b": f_b, "f_p": f_p, "P_s": p_s[:, 0], "P_e": p_e[:, 0],
               "P_c": out[:, 0], "P_r": out[:, 1]}
    return outputs, counter


def instrument_bmn_forward(ref, x):
    """Scalar-loop boundary-matching block with MAC counting."""
    counter = MacCounter()
    c = ref.config
    T, S = c.temporal_length, c.sample_count
    outs = []
    for b in range(x.shape[0]):
        samp = matmul_ref(x[b], ref.sampling_mask, counter, "sampling")
        samp = samp.reshape(c.channels * S, T * T)
        h = relu_ref(matmul_ref(ref.w3d, samp, counter, "conv3d"))
        h = h.reshape(1, c.hidden_3d, T, T)
        h = relu_ref(conv2d_dilated_ref(h, ref.w1, None, 1, counter, "stack1"))
        h = relu_ref(conv2d_dilated_ref(h, ref.w2, None, 1, counter, "stack2"))
        h = relu_ref(conv2d_dilated_ref(h, ref.w3, None, 1, counter, "stack3"))
        outs.append(conv2d_dilated_ref(h, ref.w4, None, 1, counter, "stack4")[0])
    return np.stack(outs), counter


# -- wall-clock harness --------------------------------------------------

@dataclass
class BenchResult:
    variant: str
    repetitions: int
    warmup: int
    times_s: list
    mean_s: float
    std_s: float
    median_s: float

    def to_dict(self):
        return asdict(self)


def _time_callable(fn, repetitions, warmup):
    if repetitions < 10:
        raise ValueError(f"need >= 10 repetitions, got {repetitions}")
    if warmup < 3:
        raise ValueError(f"need >= 3 warmup runs, got {warmup}")
    sink = 0.0
    for _ in range(warmup):
        sink += float(np.sum(fn()))
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        sink += float(np.sum(out))
    assert np.isfinite(sink)
    return times


def bench(variant, repetitions=10, warmup=3, batch=16, smbg_config=None,
          bmn_config=None, seed=0):
    """Time one proposal-feature block variant on a shared random input."""
    smbg_config = smbg_config or full_scale_model_config()
    bmn_config = bmn_config or BmnConfig(channels=smbg_config.base_channels,
                                         temporal_length=smbg_config.temporal_length)
    rng = t.init_rng(seed)
    x = rng.standard_normal((batch, smbg_config.base_channels, smbg_config.temporal_length))
    if variant == "mpfg":
        net = SmbgNet(smbg_config, seed=seed)
        fn = lambda: mpfg_block_forward(net, x)
    elif variant == "bmn_pfg":
        ref = BmnPfgReference(bmn_config, seed=seed)
        fn = lambda: ref.forward_block(x)
    else:
        raise ValueError(f"unknown bench variant {variant!r}")
    times = _time_callable(fn, repetitions, warmup)
    return BenchResult(variant=variant, repetitions=repetitions, warmup=warmup,
                       times_s=times, mean_s=float(np.mean(times)),
                       std_s=float(np.std(times)), median_s=float(np.median(times)))


def bench_compare(repetitions=10, warmup=3, batch=16, smbg_config=None,
                  bmn_config=None, seed=0):
    """Both variants, same input distribution and engine; returns stats + speedup."""
    fast = bench("mpfg", repetitions, warmup, batch, smbg_config, bmn_config, seed)
    slow = bench("bmn_pfg", repetitions, warmup, batch, smbg_config, bmn_config, seed)
    return {
        "mpfg": fast.to_dict(),
        "bmn_pfg": slow.to_dict(),
        "speedup_median": slow.median_s / fast.median_s,
        "speedup_mean": slow.mean_s / fast.mean_s,
    }


def save_cost_report(path, report):
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
