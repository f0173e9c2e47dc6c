"""The four sub-networks: visual encoder, mask U-Net with tiled visual
fusion, spatial-coherence classifier, and RIR decoder.

All forward functions are pure in (inputs, params) and operate on Tensor
graphs so every loss can be differentiated exactly. Spectrograms enter as
real/imag channel pairs on a frames x bins grid of 64 x 256; the raw STFT
grid is 61 x 257, so frames are zero-padded and the Nyquist bin is carried
by constant masks (identity for the channel masks, zero for the difference
mask), which keeps the engineered identity initialization exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class ArchConfig:
    obs_h: int = 32
    obs_w: int = 64
    visual_channels: tuple[int, ...] = (8, 16, 32, 64)
    spec_frames: int = 64          # network grid (zero-padded frames)
    spec_bins: int = 256           # network grid (Nyquist handled outside)
    frames_raw: int = 61
    bins_raw: int = 257
    unet_channels: tuple[int, int, int] = (4, 8, 16)
    fusion_dim: int = 16
    coh_channels: tuple[int, int, int] = (4, 8, 16)
    rir_channels: tuple[int, ...] = (32, 24, 16, 8)
    rir_seed_hw: tuple[int, int] = (4, 16)
    # hidden width of the coherence head: flip detection is a product of the
    # audio louder-side and the visual source-side, which a purely linear
    # combiner cannot express
    coh_head_hidden: int = 32
    mask_bound: float = 2.0
    leaky: float = 0.2

    @property
    def feature_dim(self) -> int:
        return self.visual_channels[-1]

    @property
    def premap_hw(self) -> tuple[int, int]:
        return (self.obs_h // 8, self.obs_w // 8)

    @property
    def bottleneck_hw(self) -> tuple[int, int]:
        return (self.spec_frames // 8, self.spec_bins // 8)


# tiny configuration for finite-difference gradient checks (<= 500 params)
REDUCED_ARCH = ArchConfig(
    obs_h=8, obs_w=16,
    visual_channels=(1, 1, 1, 2),
    spec_frames=16, spec_bins=16,
    frames_raw=13, bins_raw=17,
    unet_channels=(1, 1, 1),
    fusion_dim=1,
    coh_channels=(1, 1, 1),
    rir_channels=(1, 1, 1, 1),
    rir_seed_hw=(1, 1),
    coh_head_hidden=2,
)


def init_params(arch: ArchConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Kaiming-uniform conv/linear weights, zero biases, engineered mask heads."""
    rng = np.random.default_rng(np.random.SeedSequence([0x1417, seed]))
    p: dict[str, np.ndarray] = {}

    def conv(name, c_in, c_out, k=3):
        p[f"{name}.w"] = _kaiming(rng, (k, k, c_in, c_out), c_in * k * k)
        p[f"{name}.b"] = np.zeros(c_out)

    def convt(name, c_in, c_out, k=3):
        p[f"{name}.w"] = _kaiming(rng, (c_in, k, k, c_out), c_in * k * k)
        p[f"{name}.b"] = np.zeros(c_out)

    def dense(name, n_in, n_out):
        p[f"{name}.w"] = _kaiming(rng, (n_in, n_out), n_in)
        p[f"{name}.b"] = np.zeros(n_out)

    vc = arch.visual_channels
    conv("visual.c0", 3, vc[0])
    conv("visual.c1", vc[0], vc[1])
    conv("visual.c2", vc[1], vc[2])
    conv("visual.c3", vc[2], vc[3])

    uc = arch.unet_channels
    conv("unet.d0", 2, uc[0])
    conv("unet.d1", uc[0], uc[1])
    conv("unet.d2", uc[1], uc[2])
    dense("fusion.proj", arch.feature_dim, arch.fusion_dim)
    conv("unet.mid", uc[2] + arch.fusion_dim, uc[2])
    conv("unet.u0", uc[2] + uc[2], uc[1])
    conv("unet.u1", uc[1] + uc[1], uc[0], k=1)
    conv("unet.u2", uc[0] + uc[0], uc[0], k=1)
    # engineered identity init: zero weights; channel-mask heads open at 1+0j
    bias_one = math.atanh(1.0 / arch.mask_bound)
    for head, bias in (("head_d", 0.0), ("head_l", bias_one), ("head_r", bias_one)):
        p[f"unet.{head}.w"] = np.zeros((1, 1, uc[0], 2))
        p[f"unet.{head}.b"] = np.array([bias, 0.0])

    cc = arch.coh_channels
    conv("coh.c0", 4, cc[0])
    conv("coh.c1", cc[0], cc[1])
    conv("coh.c2", cc[1], cc[2])
    dense("coh.fc1", cc[2] + arch.feature_dim, arch.coh_head_hidden)
    dense("coh.fc2", arch.coh_head_hidden, 1)

    rc = arch.rir_channels
    sh, sw = arch.rir_seed_hw
    dense("rir.fc", arch.feature_dim, rc[0] * sh * sw)
    convt("rir.u0", rc[0], rc[1])
    convt("rir.u1", rc[1], rc[2])
    convt("rir.u2", rc[2], rc[3])
    convt("rir.u3", rc[3], 2)
    return p


def _kaiming(rng, shape, fan_in, a=0.2):
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def param_count(params: dict[str, np.ndarray]) -> int:
    return int(sum(v.size for v in params.values()))


def subnet_counts(params: dict[str, np.ndarray]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, arr in params.items():
        prefix = name.split(".")[0]
        out[prefix] = out.get(prefix, 0) + arr.size
    return out


def _t(params, name) -> Tensor:
    v = params[name]
    return v if isinstance(v, Tensor) else Tensor(v)


def as_tensor_params(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v) for k, v in params.items()}


def visual_encode(obs, params, arch: ArchConfig = ArchConfig()
                  ) -> tuple[Tensor, Tensor]:
    """obs (N,H,W,3) -> (pooled features (N,F), pre-pool map (N,H/8,W/8,F))."""
    x = obs if isinstance(obs, Tensor) else Tensor(obs)
    if x.data.ndim != 4 or x.data.shape[1:] != (arch.obs_h, arch.obs_w, 3):
        raise ValueError(
            f"expected observations (N,{arch.obs_h},{arch.obs_w},3), "
            f"got {x.data.shape}")
    a = arch.leaky
    x = ad.conv2d(x, _t(params, "visual.c0.w"), _t(params, "visual.c0.b"),
                  2, 1, act_slope=a)
    x = ad.conv2d(x, _t(params, "visual.c1.w"), _t(params, "visual.c1.b"),
                  2, 1, act_slope=a)
    x = ad.conv2d(x, _t(params, "visual.c2.w"), _t(params, "visual.c2.b"),
                  2, 1, act_slope=a)
    premap = ad.conv2d(x, _t(params, "visual.c3.w"), _t(params, "visual.c3.b"),
                       1, 1, act_slope=a)
    pooled = ad.tmean(premap, axis=(1, 2))
    return pooled, premap


def mask_head(spec, vfeat, params, arch: ArchConfig = ArchConfig()
              ) -> dict[str, Tensor]:
    """spec (N,frames,bins,2) real/imag mono -> three bounded complex masks.

    Returns {"d","l","r"}: each (N,frames,bins,2), components in
    [-mask_bound, mask_bound].
    """
    x = spec if isinstance(spec, Tensor) else Tensor(spec)
    n, fr, bins, two = x.data.shape
    if (fr, bins, two) != (arch.spec_frames, arch.spec_bins, 2):
        raise ValueError(
            f"expected spectrogram (N,{arch.spec_frames},{arch.spec_bins},2), "
            f"got {x.data.shape}")
    a = arch.leaky
    # encoder: stride-1 convolutions with 2x2 mean pooling (keeps every
    # gather contiguous, which matters for throughput at the 64x256 grid)
    a0 = ad.conv2d(x, _t(params, "unet.d0.w"), _t(params, "unet.d0.b"),
                   1, 1, act_slope=a)
    a1 = ad.conv2d(ad.avg_pool2(a0), _t(params, "unet.d1.w"),
                   _t(params, "unet.d1.b"), 1, 1, act_slope=a)
    a2 = ad.conv2d(ad.avg_pool2(a1), _t(params, "unet.d2.w"),
                   _t(params, "unet.d2.b"), 1, 1, act_slope=a)
    p2 = ad.avg_pool2(a2)

    proj = ad.linear(vfeat, _t(params, "fusion.proj.w"), _t(params, "fusion.proj.b"))
    bh, bw = arch.bottleneck_hw
    tile = ad.reshape(proj, (n, 1, 1, arch.fusion_dim))
    tile = ad.mul(tile, Tensor(np.ones((1, bh, bw, 1), dtype=proj.data.dtype)))
    mid = ad.concat([p2, tile], axis=3)
    mid = ad.conv2d(mid, _t(params, "unet.mid.w"), _t(params, "unet.mid.b"),
                    1, 1, act_slope=a)

    # decoder: nearest upsampling, skip concat, then a conv (3x3 at the first
    # level, 1x1 above where the skips already carry fine structure)
    u0 = ad.conv2d(ad.concat([ad.upsample2(mid), a2], axis=3),
                   _t(params, "unet.u0.w"), _t(params, "unet.u0.b"),
                   1, 1, act_slope=a)
    u1 = ad.conv2d(ad.concat([ad.upsample2(u0), a1], axis=3),
                   _t(params, "unet.u1.w"), _t(params, "unet.u1.b"),
                   1, 0, act_slope=a)
    u2 = ad.conv2d(ad.concat([ad.upsample2(u1), a0], axis=3),
                   _t(params, "unet.u2.w"), _t(params, "unet.u2.b"),
                   1, 0, act_slope=a)

    # one fused 1x1 GEMM for the three heads, then split
    w_all = ad.concat([_t(params, "unet.head_d.w"), _t(params, "unet.head_l.w"),
                       _t(params, "unet.head_r.w")], axis=3)
    b_all = ad.concat([_t(params, "unet.head_d.b"), _t(params, "unet.head_l.b"),
                       _t(params, "unet.head_r.b")], axis=0)
    raw = ad.mul(ad.tanh(ad.conv2d(u2, w_all, b_all, 1, 0)), arch.mask_bound)
    return {"d": raw[:, :, :, 0:2], "l": raw[:, :, :, 2:4], "r": raw[:, :, :, 4:6]}


def coherence_classify(pair, vfeat, params, arch: ArchConfig = ArchConfig()
                       ) -> Tensor:
    """pair (N,frames,bins,4) real/imag of both channels -> P(flipped), (N,)."""
    x = pair if isinstance(pair, Tensor) else Tensor(pair)
    if x.data.shape[1:] != (arch.spec_frames, arch.spec_bins, 4):
        raise ValueError(f"expected (N,{arch.spec_frames},{arch.spec_bins},4), "
                         f"got {x.data.shape}")
    a = arch.leaky
    # conv before any pooling: raw real/imag bins carry fast-rotating phase,
    # so averaging first would cancel the interaural evidence
    x = ad.avg_pool2(ad.conv2d(x, _t(params, "coh.c0.w"),
                               _t(params, "coh.c0.b"), 1, 1, act_slope=a))
    x = ad.avg_pool2(ad.conv2d(x, _t(params, "coh.c1.w"),
                               _t(params, "coh.c1.b"), 1, 1, act_slope=a))
    x = ad.avg_pool2(ad.conv2d(x, _t(params, "coh.c2.w"),
                               _t(params, "coh.c2.b"), 1, 1, act_slope=a))
    pooled = ad.tmean(x, axis=(1, 2))
    joint = ad.concat([pooled, vfeat], axis=1)
    hidden = ad.leaky_relu(ad.linear(joint, _t(params, "coh.fc1.w"),
                                     _t(params, "coh.fc1.b")), a)
    logit = ad.linear(hidden, _t(params, "coh.fc2.w"), _t(params, "coh.fc2.b"))
    return ad.sigmoid(ad.reshape(logit, (logit.data.shape[0],)))


def rir_decode(vfeat, params, arch: ArchConfig = ArchConfig()) -> Tensor:
    """vfeat (N,F) -> non-negative magnitudes (N,frames,bins_raw,2).

    Four stride-2 transposed convolutions from the seed map; softplus output;
    the final bin column is edge-replicated to reach bins_raw.
    """
    v = vfeat if isinstance(vfeat, Tensor) else Tensor(vfeat)
    n = v.data.shape[0]
    a = arch.leaky
    sh, sw = arch.rir_seed_hw
    rc = arch.rir_channels
    x = ad.leaky_relu(ad.linear(v, _t(params, "rir.fc.w"), _t(params, "rir.fc.b")), a)
    x = ad.reshape(x, (n, sh, sw, rc[0]))
    x = ad.conv_transpose2d(x, _t(params, "rir.u0.w"), _t(params, "rir.u0.b"),
                            2, 1, 1, act_slope=a)
    x = ad.conv_transpose2d(x, _t(params, "rir.u1.w"), _t(params, "rir.u1.b"),
                            2, 1, 1, act_slope=a)
    x = ad.conv_transpose2d(x, _t(params, "rir.u2.w"), _t(params, "rir.u2.b"),
                            2, 1, 1, act_slope=a)
    x = ad.conv_transpose2d(x, _t(params, "rir.u3.w"), _t(params, "rir.u3.b"),
                            2, 1, 1)
    x = ad.concat([x, x[:, :, -1:, :]], axis=2)  # replicate edge bin pre-softplus
    return ad.softplus(x)


# ---------------------------------------------------------------------------
# spectrogram <-> network-grid adapters (numpy side, constants in the graph)
# ---------------------------------------------------------------------------

def spec_to_net(spec: np.ndarray, arch: ArchConfig,
                dtype=np.float64) -> np.ndarray:
    """complex (N, frames_raw, bins_raw) -> real (N, spec_frames, spec_bins, 2)."""
    n, fr, bins = spec.shape
    if fr != arch.frames_raw or bins != arch.bins_raw:
        raise ValueError(f"expected raw grid ({arch.frames_raw},{arch.bins_raw}), "
                         f"got ({fr},{bins})")
    out = np.zeros((n, arch.spec_frames, arch.spec_bins, 2), dtype=dtype)
    out[:, :fr, :, 0] = spec.real[:, :, :arch.spec_bins]
    out[:, :fr, :, 1] = spec.imag[:, :, :arch.spec_bins]
    return out


def difference_spec(mask_d: np.ndarray, mono_spec: np.ndarray) -> np.ndarray:
    """Difference-route synthesis a_D = m_D * a_M on the raw STFT grid.

    mask_d: (N, spec_frames, spec_bins, 2) real/imag difference mask; mono_spec:
    complex (N, frames_raw, bins_raw). Returns complex128 (N, frames_raw,
    bins_raw) with a zero Nyquist bin; the ears are a_M +- a_D/2.
    """
    md = mask_d.astype(np.float64)
    frames_raw, bins_net = mono_spec.shape[1], md.shape[2]
    out = np.zeros(mono_spec.shape, dtype=np.complex128)
    out[:, :, :bins_net] = (md[:, :frames_raw, :, 0] + 1j * md[:, :frames_raw, :, 1]) \
        * mono_spec[:, :, :bins_net]
    return out


def pair_to_net(left: np.ndarray, right: np.ndarray, arch: ArchConfig,
                dtype=np.float64) -> np.ndarray:
    """two complex (N, frames_raw, bins_raw) -> real (N, ..., 4)."""
    return np.concatenate([spec_to_net(left, arch, dtype),
                           spec_to_net(right, arch, dtype)], axis=3)
