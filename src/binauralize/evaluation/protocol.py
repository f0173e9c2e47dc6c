"""End-to-end experiment protocol: corpus generation, the training grid
(full model, ablations, baselines, seeds), and evaluation tables.

This reproduces the qualitative structure of the published comparison at
desk scale: absolute numbers are not comparable to the full-scale study,
only the orderings are. Workers run as separate processes; every job is a
pure function of its seed, so results are independent of scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..dsp.types import StftParams
from ..nn.model import ArchConfig
from ..scenegen.config import SceneGenConfig
from ..scenegen.corpus import generate_corpus
from ..training.adam import TrainConfig
from ..training.losses import ConsistencyConfig, LossWeights
from ..training.loop import train
from .report import evaluate

# loss configurations mirroring the published ablation rows
VARIANTS: dict[str, LossWeights] = {
    "full": LossWeights(),
    "backbone": LossWeights(lambda_s=0.0, lambda_g=0.0, lambda_p=0.0),
    "ir": LossWeights(lambda_s=0.0, lambda_g=0.0),
    "spatial": LossWeights(lambda_s=0.0, lambda_p=0.0),
    "geom": LossWeights(lambda_g=0.0, lambda_p=0.0),
    "audio-only": LossWeights(lambda_s=0.0, lambda_g=0.0, lambda_p=0.0),
    # Eq.-2-style training of the flip classifier alone; it needs more steps
    # than the backbone peak, so it runs as its own job kept at final params
    "coherence": LossWeights(lambda_b=0.0, lambda_s=0.0, lambda_g=1.0,
                             lambda_p=0.0),
}


@dataclass(frozen=True)
class ProtocolConfig:
    """Desk-scale protocol; the published recipe's sizes do not fit a CPU
    budget, so the corpus and schedule are scaled down while the loss
    weights and data model stay faithful."""

    corpus_seed: int = 101
    n_train: int = 200
    n_val: int = 30
    n_test: int = 30
    seeds: tuple[int, ...] = (0, 1, 2)
    scene: SceneGenConfig = field(default_factory=SceneGenConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        batch_size=16, epochs=50, windows_per_record=2,
        rir_pretrain_epochs=3, patience=8, val_windows=64,
        lr_audio=2e-3, lr_other=1e-3))
    consistency: ConsistencyConfig = field(default_factory=ConsistencyConfig)
    stft: StftParams = field(default_factory=StftParams)
    jobs: int = 2


@dataclass
class TrainJob:
    variant: str          # key into VARIANTS
    seed: int
    corpus_dir: str
    eval_transforms: tuple[str, ...] = ("none",)  # also e.g. "flip"
    epochs: int | None = None      # override the protocol's schedule
    skip_eval: bool = False

    @property
    def name(self) -> str:
        return f"{self.variant}-s{self.seed}-{Path(self.corpus_dir).name}"


def run_training_grid(cfg: ProtocolConfig, jobs_list: list[TrainJob],
                      out_dir) -> dict[str, dict]:
    """Train and evaluate every job; returns name -> metrics/checkpoint.

    Workers are spawned (not forked) with single-threaded BLAS so that
    cfg.jobs concurrent trainings do not oversubscribe the cores; the env
    must be set before the child process imports numpy.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    args = [(cfg, job, str(out_dir)) for job in jobs_list]
    if cfg.jobs > 1 and len(jobs_list) > 1:
        import multiprocessing as mp

        saved = {k: os.environ.get(k) for k in
                 ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
        os.environ["OMP_NUM_THREADS"] = "1"
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            ctx = mp.get_context("spawn")
            with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(jobs_list)),
                                     mp_context=ctx) as pool:
                results = list(pool.map(_run_one_star, args))
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
    else:
        results = [_run_one_star(a) for a in args]
    return {job.name: res for job, res in zip(jobs_list, results)}


def _run_one_star(args):
    cfg, job, out_dir = args
    return run_one(cfg, job, out_dir)


def run_one(cfg: ProtocolConfig, job: TrainJob, out_dir) -> dict:
    weights = VARIANTS[job.variant]
    observation_mode = "zero" if job.variant == "audio-only" else "normal"
    tcfg = replace(cfg.train, seed=job.seed)
    if job.epochs is not None:
        tcfg = replace(tcfg, epochs=job.epochs)
    if weights.lambda_b == 0.0:
        # the validation metric tracks the backbone; without it there is
        # nothing to early-stop on, so keep the final parameters
        tcfg = replace(tcfg, patience=10 ** 6, keep_params="final")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    ckpt = Path(out_dir) / f"{job.name}.ckpt"
    params, log = train(job.corpus_dir, tcfg, weights, cfg.arch,
                        cfg.consistency, cfg.stft,
                        observation_mode=observation_mode,
                        out_checkpoint=ckpt)
    # a model trained without observations is evaluated without them
    base = "zero" if observation_mode == "zero" else "none"
    methods, transforms = {}, {}
    for transform in job.eval_transforms:
        label = job.variant if transform == "none" else f"{job.variant}+{transform}"
        methods[label] = (params, cfg.arch)
        transforms[label] = base if transform == "none" else transform
    report = {} if job.skip_eval else evaluate(
        job.corpus_dir, methods, p=cfg.stft, transforms=transforms).rows
    return {
        "checkpoint": str(ckpt),
        "steps": log[-1].get("steps", 0) if log else 0,
        "val_stft": min((e["val_stft"] for e in log if "val_stft" in e),
                        default=float("nan")),
        "rows": report,
    }


def generate_protocol_corpora(cfg: ProtocolConfig, root) -> dict[str, str]:
    """Position-split and scene-split corpora for the ordering experiments."""
    root = Path(root)
    dirs = {}
    for split_mode, seed_shift in (("position", 0), ("scene", 1)):
        out = root / f"corpus-{split_mode}"
        if not (out / "manifest.jsonl").exists():
            generate_corpus(cfg.corpus_seed + seed_shift, out,
                            n_train=cfg.n_train, n_val=cfg.n_val,
                            n_test=cfg.n_test, split_mode=split_mode,
                            cfg=cfg.scene, jobs=cfg.jobs)
        dirs[split_mode] = str(out)
    return dirs


def ordering_jobs(cfg: ProtocolConfig, corpora: dict[str, str]) -> list[TrainJob]:
    jobs = []
    for seed in cfg.seeds:
        jobs.append(TrainJob("full", seed, corpora["position"],
                             eval_transforms=("none", "flip")))
        for variant in ("backbone", "audio-only", "ir", "spatial", "geom"):
            jobs.append(TrainJob(variant, seed, corpora["position"]))
        jobs.append(TrainJob("full", seed, corpora["scene"]))
    return jobs


def median_rows(results: dict[str, dict], corpus_dir: str,
                metric: str = "stft") -> dict[str, float]:
    """Median metric per method label over seeds, one corpus."""
    per_label: dict[str, list[float]] = {}
    corpus_name = Path(corpus_dir).name
    for name, res in results.items():
        if not name.endswith(corpus_name):
            continue
        for label, row in res["rows"].items():
            per_label.setdefault(label, []).append(row[metric])
    return {label: float(np.median(vals)) for label, vals in per_label.items()}
