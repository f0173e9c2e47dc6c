"""Metric tables over a test split: trained methods plus built-in baselines."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..dsp.distances import env_distance, stft_distance
from ..dsp.types import BinauralClip, StftParams
from ..nn.checkpoint import load_checkpoint
from ..scenegen.manifest import Manifest, read_manifest
from .infer import binauralize_clip

BUILTIN_METHODS = ("mono-mono", "gt")


@dataclass
class EvalReport:
    split: str
    clip_count: int
    rows: dict[str, dict[str, float]] = field(default_factory=dict)

    def table(self) -> str:
        lines = [f"split: {self.split}   clips: {self.clip_count}",
                 f"{'method':<14} {'STFT':>8} {'ENV':>8}"]
        for name, row in self.rows.items():
            lines.append(f"{name:<14} {row['stft']:>8.4f} {row['env']:>8.4f}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "split": self.split, "clip_count": self.clip_count,
            "rows": self.rows,
        }, sort_keys=True)


def evaluate(manifest, methods: dict[str, object], split: str = "test",
             p: StftParams = StftParams(),
             transforms: dict[str, str] | None = None) -> EvalReport:
    """methods: name -> checkpoint path/(params, arch) for model methods, or
    None for built-ins ("mono-mono", "gt").

    transforms: name -> observation transform of a model method ("none",
    "zero" or "flip", see binauralize_clip); "none" where a name is absent.
    """
    if not isinstance(manifest, Manifest):
        manifest = read_manifest(manifest)
    subset = manifest.split(split)
    if len(subset) == 0:
        raise ValueError(f"no records in split {split!r}")
    transforms = transforms or {}
    for name in transforms:
        if methods.get(name) is None:
            raise ValueError(f"observation transform for {name!r}, which is "
                             "not a checkpoint method")

    resolved = {}
    for name, source in methods.items():
        if source is None:
            if name not in BUILTIN_METHODS:
                raise ValueError(f"method {name!r} needs a checkpoint")
            resolved[name] = None
        elif isinstance(source, tuple):
            resolved[name] = source
        else:
            params, arch, _ = load_checkpoint(source)
            resolved[name] = (params, arch)

    sums = {name: {"stft": 0.0, "env": 0.0} for name in methods}
    count = 0
    for rec in subset:
        gt = rec.clip
        mono = gt.mono()
        for name in methods:
            pred = _predict(name, resolved[name], transforms.get(name, "none"),
                            mono, rec, p)
            sums[name]["stft"] += stft_distance(pred, gt, p)
            sums[name]["env"] += env_distance(pred, gt)
        count += 1
    report = EvalReport(split=split, clip_count=count)
    for name in methods:
        report.rows[name] = {k: v / count for k, v in sums[name].items()}
    return report


def _predict(name: str, resolved, transform: str, mono, rec, p) -> BinauralClip:
    if name == "gt":
        return rec.clip
    if name == "mono-mono":
        return BinauralClip(mono, mono)
    params, arch = resolved
    return binauralize_clip(mono, rec.observations, params, arch, p,
                            observation_transform=transform)


def write_report(report: EvalReport, path) -> None:
    path = Path(path)
    path.write_text(report.table() + "\n", encoding="utf-8")
    path.with_suffix(path.suffix + ".json").write_text(
        report.to_json() + "\n", encoding="utf-8")
