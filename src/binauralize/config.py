"""Structured-text configuration.

Grammar: INI sections [stft] [room] [scene] [model] [train]; each line
`key = value`. Values are int/float/bool/str or comma-separated int tuples.
Unknown sections or keys are rejected. Precedence: built-in defaults, then
file values, then command-line overrides (--set section.key=value or the
dedicated flags). Defaults follow the published recipe where one exists
(16 kHz, FFT 512 / window 400 / hop 160, batch 64, Adam at 1e-3 for the
audio+fusion nets and 1e-4 elsewhere, loss weights 10 / 1 / 0.01 / 1).
"""

from __future__ import annotations

import configparser
import hashlib
from typing import Any

from .dsp.types import StftParams
from .nn.model import ArchConfig
from .scenegen.config import SceneGenConfig
from .training.adam import TrainConfig
from .training.losses import ConsistencyConfig, LossWeights


class ConfigError(ValueError):
    pass


def _tuple_of_int(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# section -> key -> (parser, default)
SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "stft": {
        "fft_size": (int, 512),
        "window_size": (int, 400),
        "hop": (int, 160),
        "window": (str, "hann"),
    },
    "room": {
        "speed_of_sound": (float, 343.0),
        "ear_separation": (float, 0.2),
        "max_order": (int, 40),
        "ir_seconds_min": (float, 0.2),
        "ir_seconds_max": (float, 0.8),
        "head_shadow_gain": (float, 0.6),
        "head_shadow_threshold_deg": (float, 30.0),
        "scattering": (float, 0.3),
        "air_attenuation": (float, 0.005),
        "diffuse_tail": (_bool, True),
    },
    "scene": {
        "duration": (float, 20.0),
        "fps": (int, 10),
        "waypoint_interval": (float, 5.0),
        "wall_margin": (float, 0.5),
        "dims_xy_min": (float, 3.0),
        "dims_xy_max": (float, 10.0),
        "dims_z_min": (float, 2.5),
        "dims_z_max": (float, 4.0),
        "absorption_min": (float, 0.1),
        "absorption_max": (float, 0.6),
        "azimuth_fov_deg": (float, 80.0),
        "azimuth_abs_min_deg": (float, 35.0),
        "azimuth_abs_max_deg": (float, 70.0),
        "azimuth_positive_prob": (float, 0.65),
        "min_source_distance": (float, 1.0),
        "max_source_distance": (float, 3.0),
        "drift_max": (float, 0.5),
        "grid_resolution": (float, 0.0),  # 0 disables receiver-grid snapping
        "crossfade": (float, 0.05),
        "external_sources": (str, ""),
    },
    "model": {
        "visual_channels": (_tuple_of_int, (8, 16, 32, 64)),
        "unet_channels": (_tuple_of_int, (4, 8, 16)),
        "coh_channels": (_tuple_of_int, (4, 8, 16)),
        "rir_channels": (_tuple_of_int, (32, 24, 16, 8)),
        "fusion_dim": (int, 16),
        "mask_bound": (float, 2.0),
        "leaky": (float, 0.2),
    },
    "train": {
        "window_seconds": (float, 0.63),
        "batch_size": (int, 64),
        "lr_audio": (float, 1e-3),
        "lr_other": (float, 1e-4),
        "epochs": (int, 40),
        "seed": (int, 0),
        "flip_prob": (float, 0.5),
        "windows_per_record": (int, 4),
        "rir_pretrain_epochs": (int, 5),
        "patience": (int, 10),
        "val_windows": (int, 96),
        "dtype": (str, "float32"),
        "lambda_b": (float, 10.0),
        "lambda_s": (float, 1.0),
        "lambda_g": (float, 0.01),
        "lambda_p": (float, 1.0),
        "margin": (float, 0.5),
        "delta_max": (float, 1.0),
    },
}


class Config:
    def __init__(self, values: dict[str, dict[str, Any]]):
        self.values = values

    def get(self, section: str, key: str):
        return self.values[section][key]

    def dump(self) -> str:
        lines = []
        for section in sorted(self.values):
            lines.append(f"[{section}]")
            for key in sorted(self.values[section]):
                lines.append(f"{key} = {self.values[section][key]}")
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.dump().encode("utf-8")).hexdigest()[:16]

    # adapters into the module-level configuration objects
    def stft_params(self) -> StftParams:
        s = self.values["stft"]
        return StftParams(s["fft_size"], s["window_size"], s["hop"], s["window"])

    def arch(self) -> ArchConfig:
        m = self.values["model"]
        return ArchConfig(
            visual_channels=m["visual_channels"],
            unet_channels=m["unet_channels"],
            coh_channels=m["coh_channels"],
            rir_channels=m["rir_channels"],
            fusion_dim=m["fusion_dim"],
            mask_bound=m["mask_bound"],
            leaky=m["leaky"],
        )

    def scene_cfg(self) -> SceneGenConfig:
        s, r = self.values["scene"], self.values["room"]
        return SceneGenConfig(
            dims_xy=(s["dims_xy_min"], s["dims_xy_max"]),
            dims_z=(s["dims_z_min"], s["dims_z_max"]),
            absorption_range=(s["absorption_min"], s["absorption_max"]),
            wall_margin=s["wall_margin"],
            duration=s["duration"],
            waypoint_interval=s["waypoint_interval"],
            fps=s["fps"],
            drift_max=s["drift_max"],
            min_source_distance=s["min_source_distance"],
            max_source_distance=s["max_source_distance"],
            grid_resolution=s["grid_resolution"] or None,
            azimuth_fov_deg=s["azimuth_fov_deg"],
            azimuth_abs_deg=(s["azimuth_abs_min_deg"], s["azimuth_abs_max_deg"]),
            azimuth_positive_prob=s["azimuth_positive_prob"],
            max_order=r["max_order"],
            ir_seconds_bounds=(r["ir_seconds_min"], r["ir_seconds_max"]),
            ear_separation=r["ear_separation"],
            head_shadow_gain=r["head_shadow_gain"],
            head_shadow_threshold_deg=r["head_shadow_threshold_deg"],
            scattering=r["scattering"],
            air_attenuation=r["air_attenuation"],
            diffuse_tail=r["diffuse_tail"],
            crossfade=s["crossfade"],
            external_dir=s["external_sources"] or None,
        )

    def train_cfg(self, seed: int | None = None) -> TrainConfig:
        t = self.values["train"]
        return TrainConfig(
            window_seconds=t["window_seconds"], batch_size=t["batch_size"],
            lr_audio=t["lr_audio"], lr_other=t["lr_other"], epochs=t["epochs"],
            seed=t["seed"] if seed is None else seed,
            flip_prob=t["flip_prob"],
            windows_per_record=t["windows_per_record"],
            rir_pretrain_epochs=t["rir_pretrain_epochs"],
            patience=t["patience"], val_windows=t["val_windows"],
            dtype=t["dtype"],
        )

    def loss_weights(self) -> LossWeights:
        t = self.values["train"]
        return LossWeights(t["lambda_b"], t["lambda_s"], t["lambda_g"],
                           t["lambda_p"])

    def consistency(self) -> ConsistencyConfig:
        t = self.values["train"]
        return ConsistencyConfig(t["margin"], t["delta_max"])


def parse_config(path=None, overrides: list[str] | None = None) -> Config:
    """Defaults, then file values, then `section.key=value` overrides."""
    values = {sec: {k: default for k, (_, default) in keys.items()}
              for sec, keys in SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                _apply(values, section, key, raw, where=str(path))
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.strip().split(".", 1)
        _apply(values, section, key, raw.strip(), where="--set")
    return Config(values)


def _apply(values, section, key, raw, where):
    if section not in SCHEMA:
        raise ConfigError(f"{where}: unknown section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"{where}: unknown key {section}.{key}")
    parser_fn = SCHEMA[section][key][0]
    try:
        values[section][key] = parser_fn(raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: bad value for {section}.{key}: {exc}") from exc
