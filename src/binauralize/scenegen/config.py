"""Dataset-generation configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SceneGenConfig:
    # room sampling
    dims_xy: tuple[float, float] = (3.0, 10.0)
    dims_z: tuple[float, float] = (2.5, 4.0)
    absorption_range: tuple[float, float] = (0.1, 0.6)
    wall_margin: float = 0.5

    # trajectory
    duration: float = 20.0
    waypoint_interval: float = 5.0
    fps: int = 10
    drift_max: float = 0.5           # waypoint-to-waypoint step, m
    min_source_distance: float = 1.0
    # keeping the receiver near the source keeps the direct path prominent
    # against the reverberant field, so interaural cues stay learnable
    max_source_distance: float = 3.0
    ear_height: tuple[float, float] = (1.2, 1.8)
    source_height: tuple[float, float] = (0.8, 2.0)
    grid_resolution: Optional[float] = None  # snap receiver positions when set

    # viewing geometry: azimuth stays inside (-fov, +fov); the sign prior is
    # asymmetric so that lateralization has a learnable corpus-level bias,
    # mirroring the viewpoint biases of real recordings
    azimuth_fov_deg: float = 80.0
    azimuth_abs_deg: tuple[float, float] = (35.0, 70.0)
    azimuth_positive_prob: float = 0.65

    # acoustics
    sample_rate: int = 16000
    max_order: int = 40
    ir_seconds_bounds: tuple[float, float] = (0.2, 0.8)
    ear_separation: float = 0.2
    head_shadow_gain: float = 0.6
    head_shadow_threshold_deg: float = 30.0
    scattering: float = 0.3
    air_attenuation: float = 0.005
    diffuse_tail: bool = True

    # source bank
    bank_categories: tuple[str, ...] = (
        "pluck_a3", "pluck_d4", "pluck_g4",
        "pulse_60", "pulse_90", "pulse_140",
        "am_noise_slow", "am_noise_fast",
    )
    clip_seconds: float = 22.0
    external_dir: Optional[str] = None

    # crossfade between waypoint segments
    crossfade: float = 0.05

    def __post_init__(self):
        if self.duration < 10.0 or self.duration > 40.0:
            raise ValueError(f"duration must lie in [10, 40] s, got {self.duration}")
        if self.waypoint_interval <= 0 or self.fps <= 0:
            raise ValueError("waypoint_interval and fps must be positive")
        lo, hi = self.absorption_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"bad absorption range {self.absorption_range}")
        if self.dims_xy[0] > self.dims_xy[1] or self.dims_z[0] > self.dims_z[1]:
            raise ValueError("empty room-dimension range")
        if not 0.0 < self.azimuth_fov_deg <= 90.0:
            raise ValueError("azimuth_fov_deg must lie in (0, 90]")
        if not (0.0 <= self.azimuth_abs_deg[0] <= self.azimuth_abs_deg[1]
                < self.azimuth_fov_deg):
            raise ValueError("azimuth_abs_deg must nest inside the field of view")
        if not 0.0 < self.azimuth_positive_prob < 1.0:
            raise ValueError("azimuth_positive_prob must lie in (0, 1)")
