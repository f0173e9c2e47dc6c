"""Adam optimizer with per-sub-network learning rates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    window_seconds: float = 0.63
    batch_size: int = 64
    lr_audio: float = 1e-3    # U-Net and fusion
    lr_other: float = 1e-4    # visual encoder, coherence head, RIR decoder
    epochs: int = 40
    seed: int = 0
    flip_prob: float = 0.5
    windows_per_record: int = 4
    rir_pretrain_epochs: int = 5
    patience: int = 10
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    val_windows: int = 96
    dtype: str = "float32"  # training precision; gradient checks run float64
    keep_params: str = "best"  # "best" = lowest validation distance, or "final"

    def __post_init__(self):
        if min(self.window_seconds, self.batch_size, self.lr_audio,
               self.lr_other, self.epochs) <= 0:
            raise ValueError("train config values must be positive")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        if self.keep_params not in ("best", "final"):
            raise ValueError(
                f"keep_params must be 'best' or 'final', got {self.keep_params!r}")

    def lr_for(self, name: str) -> float:
        prefix = name.split(".")[0]
        return self.lr_audio if prefix in ("unet", "fusion") else self.lr_other


def adam_init(params: dict[str, np.ndarray]) -> dict[str, dict[str, np.ndarray]]:
    return {k: {"m": np.zeros_like(v), "v": np.zeros_like(v)}
            for k, v in params.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: dict, step: int, cfg: TrainConfig
              ) -> tuple[dict[str, np.ndarray], dict]:
    """One bias-corrected update; returns new (params, state).

    `step` is 1-based. Non-finite gradients abort with the offending name.
    """
    b1, b2 = cfg.betas
    new_params, new_state = {}, {}
    for name, theta in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        m = b1 * state[name]["m"] + (1 - b1) * g
        v = b2 * state[name]["v"] + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** step)
        v_hat = v / (1 - b2 ** step)
        new_params[name] = theta - cfg.lr_for(name) * m_hat / (np.sqrt(v_hat) + cfg.eps)
        new_state[name] = {"m": m, "v": v}
    return new_params, new_state
