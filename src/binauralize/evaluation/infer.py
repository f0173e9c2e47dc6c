"""Sliding-window binauralization.

Windows of the analysis length slide at a 0.1 s hop; each runs the model
with the temporally nearest observation, the difference waveform comes back
through the ISTFT, overlapping windows are combined by triangular-weighted
averaging in the waveform domain, and the channels are reassembled as
a_L = a_M + a_D/2, a_R = a_M - a_D/2. Peak memory is independent of clip
length (windows are processed in fixed-size chunks).
"""

from __future__ import annotations

import numpy as np

from ..dsp.stft import istft_array, stft
from ..dsp.types import DEFAULT_SAMPLE_RATE, BinauralClip, StftParams, \
    Waveform
from ..nn import autodiff as ad
from ..nn.model import ArchConfig, difference_spec, mask_head, spec_to_net, \
    visual_encode

WINDOW_SECONDS = 0.63
HOP_SECONDS = 0.1
CHUNK = 32


def binauralize_clip(mono: Waveform, observations, params, arch: ArchConfig,
                     p: StftParams = StftParams(),
                     observation_transform: str = "none") -> BinauralClip:
    """observations: list of (time, ObservationImage) covering the clip.

    observation_transform: "none", "zero" (audio-only), or "flip"
    (horizontally mirrored frames).
    """
    sr = mono.sample_rate
    if sr != DEFAULT_SAMPLE_RATE:
        raise ValueError(f"mono audio is {sr} Hz; the model expects "
                         f"{DEFAULT_SAMPLE_RATE} Hz")
    n = len(mono)
    win = int(round(WINDOW_SECONDS * sr))
    if n < win:
        raise ValueError("clip shorter than the analysis window")
    if not observations:
        raise ValueError("no observations supplied")
    obs_times = np.array([t for t, _ in observations])
    duration = n / sr
    if obs_times[0] > 0.5 or duration - obs_times[-1] > 1.0:
        raise ValueError("observations do not cover the clip duration")

    starts = _window_starts(n, win, int(round(HOP_SECONDS * sr)))
    dtype = next(iter(params.values())).dtype

    # synthesized difference signal spans window_size + (frames-1)*hop samples
    out_len = p.window_size + (p.n_frames(win) - 1) * p.hop
    tri = np.bartlett(out_len) + 1e-3  # floor keeps edge windows normalizable
    acc = np.zeros(n)
    weight = np.zeros(n)
    for lo in range(0, len(starts), CHUNK):
        chunk = starts[lo:lo + CHUNK]
        specs, frames = [], []
        for s in chunk:
            seg = mono.samples[s:s + win]
            specs.append(stft(Waveform(seg, sr), p).bins)
            t_center = (s + win / 2) / sr
            idx = int(np.argmin(np.abs(obs_times - t_center)))
            frames.append(_transform(observations[idx][1].pixels,
                                     observation_transform))
        mono_spec = np.stack(specs)
        obs_batch = np.stack(frames).astype(dtype)
        with ad.no_grad():
            vfeat, _ = visual_encode(obs_batch, params, arch)
            masks = mask_head(spec_to_net(mono_spec, arch, dtype), vfeat,
                              params, arch)
        a_d = istft_array(difference_spec(masks["d"].data, mono_spec), p)
        for k, s in enumerate(chunk):
            acc[s:s + out_len] += a_d[k] * tri
            weight[s:s + out_len] += tri

    covered = weight > 0
    diff = np.zeros(n)
    diff[covered] = acc[covered] / weight[covered]
    left = mono.samples + diff / 2.0
    right = mono.samples - diff / 2.0
    return BinauralClip(Waveform(left, sr), Waveform(right, sr))


def _window_starts(n, win, hop):
    starts = list(range(0, n - win + 1, hop))
    if starts[-1] != n - win:
        starts.append(n - win)
    return starts


def _transform(pixels: np.ndarray, kind: str) -> np.ndarray:
    if kind == "none":
        return pixels
    if kind == "zero":
        return np.zeros_like(pixels)
    if kind == "flip":
        return pixels[:, ::-1, :]
    raise ValueError(f"unknown observation transform {kind!r}")
