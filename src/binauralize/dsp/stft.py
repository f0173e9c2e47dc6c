"""STFT analysis/synthesis and Griffin-Lim phase retrieval.

Framing policy: frame i covers samples [i*hop, i*hop + window_size); samples
past the last full window are dropped; each frame is multiplied by the
analysis window and zero-padded on the right from window_size to fft_size.

Synthesis is weighted overlap-add with sum-of-squared-window normalization
(the least-squares STFT inverse), which reconstructs istft(stft(x)) exactly
on the interior even for the 400/160 window/hop pair. The first and last
ceil(window/hop) frames are the boundary region excluded from round-trip
guarantees; see valid_interior(). istft_array runs the synthesis over any
leading batch axes; istft is its typed single-spectrogram form.
"""

from __future__ import annotations

import math

import numpy as np

from .types import ComplexSpectrogram, MagnitudeSpectrogram, StftParams, Waveform

_EPS = 1e-12


def stft(w: Waveform, p: StftParams = StftParams()) -> ComplexSpectrogram:
    if len(w) == 0:
        raise ValueError("empty waveform")
    x = w.samples
    n_frames = p.n_frames(x.size)
    frames = np.lib.stride_tricks.sliding_window_view(x, p.window_size)[::p.hop][:n_frames]
    spec = np.fft.rfft(frames * p.window_array(), n=p.fft_size, axis=1)
    return ComplexSpectrogram(spec, p, w.sample_rate)


def istft(s: ComplexSpectrogram) -> Waveform:
    return Waveform(istft_array(s.bins, s.params), s.sample_rate)


def istft_array(bins: np.ndarray, p: StftParams) -> np.ndarray:
    """Weighted overlap-add of (..., frames, bins) complex spectrograms.

    Leading axes are a batch; each row is synthesized exactly as a single
    spectrogram would be (frames are accumulated in ascending order).
    """
    n_frames = bins.shape[-2]
    if n_frames == 0:
        raise ValueError("empty spectrogram")
    frames = np.fft.irfft(bins, n=p.fft_size, axis=-1)[..., :p.window_size]
    win = p.window_array()
    frames *= win

    out_len = p.window_size + (n_frames - 1) * p.hop
    acc = np.zeros(bins.shape[:-2] + (out_len,))
    wsum = np.zeros(out_len)
    win_sq = win * win
    for i in range(n_frames):
        lo = i * p.hop
        acc[..., lo:lo + p.window_size] += frames[..., i, :]
        wsum[lo:lo + p.window_size] += win_sq

    covered = wsum > _EPS
    lo, hi = valid_interior(n_frames, p)
    if not np.all(covered[lo:hi]):
        raise ValueError("zero normalization denominator at interior samples")
    acc[..., covered] /= wsum[covered]
    acc[..., ~covered] = 0.0
    return acc


def valid_interior(n_frames: int, p: StftParams) -> tuple[int, int]:
    """Sample range [lo, hi) unaffected by boundary frames.

    Excludes the sample span of the first and last ceil(window/hop) frames.
    """
    k = math.ceil(p.window_size / p.hop)
    out_len = p.window_size + (n_frames - 1) * p.hop
    lo = k * p.hop
    hi = out_len - k * p.hop
    return lo, max(lo, hi)


def spectral_convergence(cur: np.ndarray, target_mag: np.ndarray, p: StftParams) -> float:
    """Normalized distance between target magnitudes and |cur|.

    Uses Parseval weights for the half spectrum (DC and Nyquist once, interior
    bins twice) so the value equals the full-spectrum distance and the
    Griffin-Lim iteration decreases it monotonically.
    """
    w = np.full(p.n_bins, 2.0)
    w[0] = 1.0
    if p.fft_size % 2 == 0:
        w[-1] = 1.0
    num = np.sqrt(np.sum(w * (np.abs(cur) - target_mag) ** 2))
    den = np.sqrt(np.sum(w * target_mag ** 2))
    if den < _EPS:
        return 0.0
    return float(num / den)


def griffin_lim(mag: MagnitudeSpectrogram, iters: int = 60, seed: int = 0
                ) -> tuple[Waveform, list[float]]:
    """Iterative phase retrieval; returns (waveform, per-iteration error).

    Alternates the least-squares consistency projection (istft then stft)
    with the magnitude projection. The recorded spectral-convergence error
    belongs to the returned waveform at the last entry and is non-increasing.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    p = mag.params
    target = mag.bins
    rng = np.random.default_rng(seed)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=target.shape))
    # keep the implied full spectrum Hermitian: DC/Nyquist phases are +-1
    phase[:, 0] = np.where(phase[:, 0].real >= 0, 1.0, -1.0)
    if p.fft_size % 2 == 0:
        phase[:, -1] = np.where(phase[:, -1].real >= 0, 1.0, -1.0)
    spec = target * phase

    errors: list[float] = []
    wave = None
    for _ in range(iters):
        wave = istft(ComplexSpectrogram(spec, p, mag.sample_rate))
        consistent = stft(wave, p).bins
        errors.append(spectral_convergence(consistent, target, p))
        unit = np.where(np.abs(consistent) > _EPS,
                        consistent / np.maximum(np.abs(consistent), _EPS), 1.0)
        spec = target * unit
    return wave, errors
