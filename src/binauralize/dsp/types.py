"""Audio and time-frequency domain types.

Everything is float64/complex128 internally; audio file I/O may quantize
to 16-bit PCM but the DSP path never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SAMPLE_RATE = 16000


@dataclass
class Waveform:
    """Single-channel audio. Samples are dimensionless amplitude, not clamped."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite values")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class BinauralClip:
    left: Waveform
    right: Waveform

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise ValueError(
                f"channel length mismatch: {len(self.left)} vs {len(self.right)}")
        if self.left.sample_rate != self.right.sample_rate:
            raise ValueError("channel sample-rate mismatch")

    @property
    def sample_rate(self) -> int:
        return self.left.sample_rate

    def __len__(self) -> int:
        return len(self.left)

    def mono(self) -> Waveform:
        """Mono mixdown, the mean of the two channels."""
        return Waveform((self.left.samples + self.right.samples) / 2.0,
                        self.left.sample_rate)

    def difference(self) -> Waveform:
        """Difference channel, left minus right."""
        return Waveform(self.left.samples - self.right.samples, self.left.sample_rate)

    def as_array(self) -> np.ndarray:
        return np.stack([self.left.samples, self.right.samples], axis=1)


@dataclass(frozen=True)
class StftParams:
    fft_size: int = 512
    window_size: int = 400
    hop: int = 160
    window: str = "hann"

    def __post_init__(self):
        if self.fft_size <= 0 or self.window_size <= 0:
            raise ValueError("fft_size and window_size must be positive")
        if self.window_size > self.fft_size:
            raise ValueError(
                f"window_size {self.window_size} exceeds fft_size {self.fft_size}")
        if not (0 < self.hop <= self.window_size):
            raise ValueError(f"hop must be in (0, window_size], got {self.hop}")
        if self.window not in ("hann", "rect"):
            raise ValueError(f"unknown window kind {self.window!r}")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def window_array(self) -> np.ndarray:
        n = self.window_size
        if self.window == "rect":
            return np.ones(n)
        # periodic Hann
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.window_size:
            raise ValueError(
                f"waveform of {n_samples} samples is shorter than one window "
                f"({self.window_size})")
        return 1 + (n_samples - self.window_size) // self.hop


@dataclass
class ComplexSpectrogram:
    """frames x (fft_size/2 + 1) complex bins."""

    bins: np.ndarray
    params: StftParams = field(default_factory=StftParams)
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D, got shape {self.bins.shape}")
        if self.bins.shape[1] != self.params.n_bins:
            raise ValueError(
                f"expected {self.params.n_bins} bins per frame, got {self.bins.shape[1]}")

    @property
    def n_frames(self) -> int:
        return self.bins.shape[0]

    def magnitude(self) -> "MagnitudeSpectrogram":
        return MagnitudeSpectrogram(np.abs(self.bins), self.params, self.sample_rate)


@dataclass
class MagnitudeSpectrogram:
    bins: np.ndarray
    params: StftParams = field(default_factory=StftParams)
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.float64)
        if self.bins.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D, got shape {self.bins.shape}")
        if self.bins.size and np.min(self.bins) < 0:
            raise ValueError("magnitude spectrogram has negative entries")

