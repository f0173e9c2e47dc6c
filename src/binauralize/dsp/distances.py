"""The two clip-level evaluation distances.

STFT distance sums the per-channel Frobenius distances between complex
spectrograms (reported as a mean over clips by the evaluation harness).

ENV distance is the per-sample RMS of the envelope error, averaged over the
two channels.
"""

from __future__ import annotations

import numpy as np

from .envelope import envelope
from .stft import stft
from .types import BinauralClip, StftParams


def stft_distance(pred: BinauralClip, gt: BinauralClip,
                  p: StftParams = StftParams()) -> float:
    if len(pred) != len(gt):
        raise ValueError(f"clip length mismatch: {len(pred)} vs {len(gt)}")
    d_l = np.linalg.norm(stft(pred.left, p).bins - stft(gt.left, p).bins)
    d_r = np.linalg.norm(stft(pred.right, p).bins - stft(gt.right, p).bins)
    return float(d_l + d_r)


def env_distance(pred: BinauralClip, gt: BinauralClip) -> float:
    if len(pred) != len(gt):
        raise ValueError(f"clip length mismatch: {len(pred)} vs {len(gt)}")
    d_l = np.sqrt(np.mean((envelope(pred.left) - envelope(gt.left)) ** 2))
    d_r = np.sqrt(np.mean((envelope(pred.right) - envelope(gt.right)) ** 2))
    return float((d_l + d_r) / 2.0)
