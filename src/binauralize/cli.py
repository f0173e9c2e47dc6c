"""Command-line entry point.

Subcommands: gen-data, train, infer, eval, probe-rt60, predict-rir,
model-info, gradcheck. Exit codes: 0 success, 1 runtime failure,
2 usage/config error. Every run prints a reproducibility header with the
package version, effective seed, and config hash. BINAURALIZE_SEED serves
as the seed fallback when --seed is not given.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, tensorfile
from .config import Config, ConfigError, parse_config

USAGE_ERROR = 2
RUNTIME_ERROR = 1
# eval method names whose checkpoint runs on transformed observations
EVAL_TRANSFORMS = {"flipped": "flip", "audio-only": "zero"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return USAGE_ERROR
    try:
        cfg = parse_config(args.config, args.set or [])
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    seed = _resolve_seed(args, cfg)
    print(f"binauralize {__version__} | seed {seed} | config {cfg.digest()}")
    try:
        return args.func(args, cfg, seed)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def _resolve_seed(args, cfg: Config) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("BINAURALIZE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"BINAURALIZE_SEED must be an integer, got {env!r}")
    return cfg.get("train", "seed")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binauralize",
        description="mono-to-binaural spatialization toolkit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--deterministic", action="store_true",
                       help="force single-worker execution")

    p = sub.add_parser("gen-data", help="generate a synthetic binaural corpus")
    common(p)
    p.add_argument("--scenes", type=int, default=200, help="training scene count")
    p.add_argument("--val", type=int, default=30)
    p.add_argument("--test", type=int, default=30)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("scene", "position"), default="scene")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the multi-task model")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="metrics log path (JSONL)")
    p.add_argument("--lambda-b", type=float, default=None)
    p.add_argument("--lambda-s", type=float, default=None)
    p.add_argument("--lambda-g", type=float, default=None)
    p.add_argument("--lambda-p", type=float, default=None)
    p.add_argument("--epochs", type=_positive_int, default=None)
    p.add_argument("--batch-size", type=_positive_int, default=None)
    p.add_argument("--observation-mode", choices=("normal", "zero"),
                   default="normal", help="zero = audio-only training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="binauralize a mono WAV")
    common(p)
    p.add_argument("--mono", required=True)
    p.add_argument("--obs", required=True, help="BNT1 uint8 observation stack")
    p.add_argument("--obs-fps", type=float, default=10.0)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--observation-transform", choices=("none", "zero", "flip"),
                   default="none")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="metric table over the test split")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--methods", default="mono-mono",
                   help="comma list: gt,mono-mono,full,backbone,audio-only,"
                   "flipped; flipped mirrors and audio-only zeroes the "
                   "observations")
    p.add_argument("--ckpt", action="append", default=[],
                   metavar="METHOD=PATH", help="checkpoint for a model method")
    p.add_argument("--split", default="test")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe-rt60", help="RT60 10-class probe accuracy")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--shuffle-labels", action="store_true",
                   help="permutation control (chance-level check)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("predict-rir", help="predict a binaural RIR from one frame")
    common(p)
    p.add_argument("--data", default=None, help="manifest; uses --index record")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--obs", default=None, help="or: BNT1 single frame HxWx3")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output prefix (.bnt/.wav)")
    p.set_defaults(func=cmd_predict_rir)

    p = sub.add_parser("model-info", help="parameter census")
    common(p)
    p.add_argument("--ckpt", default=None)
    p.set_defaults(func=cmd_model_info)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def cmd_gen_data(args, cfg: Config, seed: int) -> int:
    from .scenegen import generate_corpus

    jobs = 1 if args.deterministic else max(args.jobs, 1)
    manifest = generate_corpus(seed, args.out, n_train=args.scenes,
                               n_val=args.val, n_test=args.test,
                               split_mode=args.split, cfg=cfg.scene_cfg(),
                               jobs=jobs)
    print(f"wrote {len(manifest)} records to {args.out} "
          f"(splits {manifest.splits()})")
    return 0


def cmd_train(args, cfg: Config, seed: int) -> int:
    from .training import train

    weights = cfg.loss_weights()
    lam = {"lambda_b": args.lambda_b, "lambda_s": args.lambda_s,
           "lambda_g": args.lambda_g, "lambda_p": args.lambda_p}
    updates = {k: v for k, v in lam.items() if v is not None}
    if updates:
        from dataclasses import replace
        weights = replace(weights, **updates)
    tcfg = cfg.train_cfg(seed=seed)
    schedule = {k: v for k, v in (("epochs", args.epochs),
                                  ("batch_size", args.batch_size))
                if v is not None}
    if schedule:
        from dataclasses import replace
        tcfg = replace(tcfg, **schedule)
    _, log = train(args.data, tcfg, weights, cfg.arch(), cfg.consistency(),
                   cfg.stft_params(), observation_mode=args.observation_mode,
                   out_checkpoint=args.out, log_path=args.log)
    final = log[-1] if log else {}
    print(f"trained {final.get('steps', 0)} steps; "
          f"val stft {final.get('val_stft', float('nan')):.4f}; "
          f"checkpoint {args.out}")
    return 0


def cmd_infer(args, cfg: Config, seed: int) -> int:
    from .dsp.types import Waveform
    from .evaluation import binauralize_clip
    from .nn.checkpoint import load_checkpoint
    from .scenegen.types import ObservationImage
    from . import wavio

    audio, sr = wavio.read_wav(args.mono)
    if audio.ndim != 1:
        audio = audio.mean(axis=1)
    stack = tensorfile.load_tensor(args.obs)
    observations = [(i / args.obs_fps,
                     ObservationImage(frame.astype(np.float64) / 255.0))
                    for i, frame in enumerate(stack)]
    params, arch, _ = load_checkpoint(args.ckpt)
    clip = binauralize_clip(Waveform(audio, sr), observations, params, arch,
                            cfg.stft_params(),
                            observation_transform=args.observation_transform)
    wavio.write_wav(args.out, clip.as_array(), sr, fmt="pcm16")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args, cfg: Config, seed: int) -> int:
    from .evaluation import evaluate
    from .evaluation.report import write_report

    methods = {}
    ckpts = dict(item.split("=", 1) for item in args.ckpt)
    for name in [m.strip() for m in args.methods.split(",") if m.strip()]:
        if name in ("gt", "mono-mono"):
            methods[name] = None
        elif name in ckpts:
            methods[name] = ckpts[name]
        else:
            raise ConfigError(f"method {name!r} needs --ckpt {name}=PATH")
    transforms = {name: EVAL_TRANSFORMS[name] for name in methods
                  if name in EVAL_TRANSFORMS}
    t0 = time.monotonic()
    report = evaluate(args.data, methods, split=args.split,
                      p=cfg.stft_params(), transforms=transforms)
    print(report.table())
    print(f"eval runtime: {time.monotonic() - t0:.1f}s", file=sys.stderr)
    if args.report:
        write_report(report, args.report)
    return 0


def cmd_probe(args, cfg: Config, seed: int) -> int:
    from .evaluation import rt60_probe

    acc = rt60_probe(args.data, seed=seed, epochs=args.epochs,
                     arch=cfg.arch(), shuffle_labels=args.shuffle_labels)
    print(f"rt60 probe accuracy: {acc:.3f}"
          + (" (shuffled labels)" if args.shuffle_labels else ""))
    return 0


def cmd_predict_rir(args, cfg: Config, seed: int) -> int:
    from .evaluation import predict_rir
    from .scenegen import read_manifest

    if args.obs is not None:
        pixels = tensorfile.load_tensor(args.obs).astype(np.float64)
        if pixels.dtype == np.uint8 or pixels.max() > 1.5:
            pixels = pixels / 255.0
        gt_rt60 = None
    elif args.data is not None:
        manifest = read_manifest(args.data)
        rec = manifest.load(args.index)
        pixels = rec.observation_nearest(rec.scene.duration / 2).pixels
        gt_rt60 = rec.rt60
    else:
        raise ConfigError("predict-rir needs --obs or --data")
    result = predict_rir(pixels, args.ckpt, out_prefix=args.out,
                         p=cfg.stft_params())
    line = f"predicted RT60 (L/R): {result['rt60']}"
    if gt_rt60 is not None:
        line += f"; ground truth {gt_rt60:.3f} s"
    print(line)
    print(f"wrote {args.out}.bnt and {args.out}.wav")
    return 0


def cmd_model_info(args, cfg: Config, seed: int) -> int:
    from .nn.checkpoint import load_checkpoint
    from .nn.model import init_params, param_count, subnet_counts

    if args.ckpt:
        params, arch, header = load_checkpoint(args.ckpt)
        print(f"checkpoint: {args.ckpt}")
        for k in sorted(header):
            if k not in ("format", "arch"):
                print(f"  {k} = {header[k]}")
    else:
        arch = cfg.arch()
        params = init_params(arch, seed)
    print(f"architecture: {arch}")
    for name, count in sorted(subnet_counts(params).items()):
        print(f"  {name:<8} {count:>10,d}")
    total = param_count(params)
    print(f"  {'total':<8} {total:>10,d}  (budget 500,000)")
    return 0 if total <= 500_000 else 1


def cmd_gradcheck(args, cfg: Config, seed: int) -> int:
    from .training.gradcheck import run_gradcheck

    report = run_gradcheck(seed)
    ok = True
    for name, err in report.items():
        status = "ok" if err < 1e-3 else "FAIL"
        ok &= err < 1e-3
        print(f"  {name:<8} max rel err {err:.3e}  [{status}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
