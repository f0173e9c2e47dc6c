from .types import (
    BinauralClip,
    ComplexSpectrogram,
    MagnitudeSpectrogram,
    StftParams,
    Waveform,
)
from .stft import stft, istft, istft_array, griffin_lim, valid_interior
from .envelope import envelope
from .distances import stft_distance, env_distance
from .rt60 import (
    InsufficientDecayError,
    NoEnergyError,
    schroeder_rt60,
    rt60_from_magspec,
    decay_fit_segment,
)

__all__ = [
    "Waveform", "BinauralClip", "StftParams", "ComplexSpectrogram",
    "MagnitudeSpectrogram",
    "stft", "istft", "istft_array", "griffin_lim", "valid_interior",
    "envelope", "stft_distance", "env_distance",
    "schroeder_rt60", "rt60_from_magspec", "decay_fit_segment",
    "NoEnergyError", "InsufficientDecayError",
]
