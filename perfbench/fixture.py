"""Fixture corpus and checkpoint for the train and binauralize workloads.

Run as its own process before any timed run, so the memory it uses never
shows in a workload's peak RSS:

    python3 perfbench/fixture.py --seed 3 --out .bench_work/fixtures/<key>

The corpus is generated by the program from the seed. The checkpoint is the
default architecture's initial parameters at seed 0 with the difference-mask
head set to seeded non-zero weights, so the binauralized output is not a copy
of the mono input.
"""

from __future__ import annotations

import argparse
import os
import shutil
from pathlib import Path

import numpy as np

FIXTURE = {"n_train": 16, "n_val": 2, "n_test": 1, "split_mode": "scene"}
HEAD_SCALE = 0.1


def build(seed: int, out: Path) -> None:
    from binauralize.nn.checkpoint import save_checkpoint
    from binauralize.nn.model import ArchConfig, init_params
    from binauralize.scenegen import generate_corpus

    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    generate_corpus(seed, tmp / "corpus", jobs=1, **FIXTURE)
    arch = ArchConfig()
    params = init_params(arch, 0)
    rng = np.random.default_rng(np.random.SeedSequence([0xd1ff, seed]))
    for name in ("unet.head_d.w", "unet.head_d.b"):
        params[name] = HEAD_SCALE * rng.standard_normal(params[name].shape)
    params = {k: v.astype(np.float32) for k, v in params.items()}
    save_checkpoint(tmp / "full.ckpt", params, arch, {"seed": seed})
    # write the files back now, not while a timed worker reads them
    for path in tmp.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    tmp.rename(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    build(args.seed, args.out)


if __name__ == "__main__":
    main()
