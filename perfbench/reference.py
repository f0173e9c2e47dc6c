"""Reference figures measured once, for the README next to the ROADMAP's
baseline table. Not part of the gated benchmark.

    python3 perfbench/reference.py --seed 1

Prints one JSON object: synthesize_record seconds per record, training
windows/s at batch 16 and 64 (steps only: batch assembly, gradient, Adam),
the inference real-time factor of one 20 s clip, corpus records/s at jobs=2,
and corpus peak RSS at two record counts. Each figure runs in its own
process, so no figure's memory or warm-up leaks into another.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def corpus(seed: int, records: int, jobs: int) -> dict:
    import shutil
    from binauralize.scenegen import corpus as module
    from binauralize.scenegen import generate_corpus

    stamps = []
    original = module.synthesize_record

    def stamped(*args, **kwargs):
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        stamps.append(time.perf_counter() - t0)
        return out

    module.synthesize_record = stamped
    out = run.WORK / f"reference-corpus-{records}-{jobs}"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    generate_corpus(seed, out, n_train=records - 2, n_val=1, n_test=1,
                    split_mode="scene", jobs=jobs)
    wall = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    figures = {"records_per_s": records / wall,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if stamps:  # jobs=1 runs the records in this process
        figures["synthesize_record_s"] = sum(stamps) / len(stamps)
    return figures


def steps(seed: int, batch: int, count: int) -> dict:
    import numpy as np
    from binauralize.evaluation.protocol import ProtocolConfig
    from binauralize.nn.model import ArchConfig, init_params
    from binauralize.scenegen import read_manifest
    from binauralize.training import (LossWeights, adam_init, adam_step,
                                      build_batch, grad, load_training_cache,
                                      make_example)

    cfg = ProtocolConfig().train
    cache = load_training_cache(read_manifest(run.ensure_fixture(seed) / "corpus")
                                .split("train"))
    rng = np.random.default_rng(seed)
    params = {k: v.astype(np.float32) for k, v in init_params(ArchConfig(), 0).items()}
    state = adam_init(params)
    times = []
    for step in range(1, count + 1):
        t0 = time.perf_counter()
        examples = [make_example(cache[i % len(cache)], rng) for i in range(batch)]
        b = build_batch(examples, dtype=np.float32)
        _, grads = grad("total", b, params, weights=LossWeights())
        params, state = adam_step(params, grads, state, step, cfg)
        times.append(time.perf_counter() - t0)
    median = float(np.median(times[1:]))  # the first step warms up
    return {"step_s": median, "windows_per_s": batch / median,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def inference(seed: int) -> dict:
    from binauralize.evaluation import binauralize_clip
    from binauralize.nn.checkpoint import load_checkpoint
    from binauralize.scenegen import read_manifest

    fixture = run.ensure_fixture(seed)
    rec = read_manifest(fixture / "corpus").split("test").load(0)
    params, arch, _ = load_checkpoint(fixture / "full.ckpt")
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        binauralize_clip(rec.clip.mono(), rec.observations, params, arch)
        times.append(time.perf_counter() - t0)
    median = sorted(times)[1]
    return {"clip_s": median, "rtf": median / rec.scene.duration,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


FIGURES = {
    "corpus_jobs1_6": lambda seed: corpus(seed, 6, 1),
    "corpus_jobs1_12": lambda seed: corpus(seed, 12, 1),
    "corpus_jobs2_12": lambda seed: corpus(seed, 12, 2),
    "train_steps_bs16": lambda seed: steps(seed, 16, 6),
    "train_steps_bs64": lambda seed: steps(seed, 64, 3),
    "inference_20s_clip": inference,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--figure", choices=sorted(FIGURES))
    args = ap.parse_args()
    if args.figure:
        print(json.dumps(FIGURES[args.figure](args.seed)))
        return
    run.ensure_fixture(args.seed)
    out = {}
    for name in FIGURES:
        proc = subprocess.run([sys.executable, __file__, "--seed", str(args.seed),
                               "--figure", name], env=run.worker_env(), check=True,
                              capture_output=True, text=True)
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
