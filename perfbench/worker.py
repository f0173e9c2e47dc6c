"""One workload process: set-up, timed rounds, then output checks.

    python3 perfbench/worker.py --workload train --seed 3 --worker 0 \
        --budget 7 --trace 0 --fixture DIR --work DIR --out result.json

A round is one call of the workload's public entry point on the same inputs:
the fixture for train and binauralize, a corpus seed drawn from (seed,
worker) for corpus. Rounds repeat until the budget (seconds since process start) is spent; there
is always at least one. A hook on the first call of the first work item
stamps the end of set-up and the start of each round's timed interval. The
result file holds monotonic timestamps, so the parent can measure set-up from
before it started this process.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

# corpus workload: one generate_corpus call per round
CORPUS_SPLIT = {"n_train": 12, "n_val": 2, "n_test": 2}
# train workload: fixed schedule, no early stop, checkpoint written
TRAIN_EPOCHS = 1


class FirstCall:
    """Stamps the first call of a function in each round.

    keep, when given, maps (args, result) of every call to what the checks
    need later; it must not hold on to large results.
    """

    def __init__(self, module, attr, keep=None):
        self.t_first = None
        self.kept: list = []
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            if self.t_first is None:
                self.t_first = time.monotonic()
            out = fn(*args, **kwargs)
            if keep is not None:
                self.kept.append(keep(args, out))
            return out

        setattr(module, attr, hook)

    def reset(self) -> None:
        self.t_first = None
        self.kept = []


# ---------------------------------------------------------------------------
# workloads: each has a hook, a round and a check of all rounds
# ---------------------------------------------------------------------------

class Corpus:
    def __init__(self, seed, worker, fixture, work):
        from binauralize.scenegen import corpus
        self.work = work
        # each worker of a run renders other scenes, so a run's median spans
        # the rooms of several corpora; its own rounds repeat one corpus
        self.corpus_seed = int(np.random.SeedSequence([seed, worker]).generate_state(1)[0])
        # the bank clip each record is rendered from, by clip id
        self.hook = FirstCall(corpus, "synthesize_record",
                              keep=lambda args, out: (args[0].source_clip_id,
                                                      args[1].samples))
        self.items = sum(CORPUS_SPLIT.values())
        self.bank: dict = {}

    def run(self, i):
        from binauralize.scenegen import generate_corpus
        out = self.work / f"corpus-r{i}"
        shutil.rmtree(out, ignore_errors=True)
        generate_corpus(self.corpus_seed, out, split_mode="scene", jobs=1,
                        **CORPUS_SPLIT)
        self.bank.update(self.hook.kept)
        return out

    def check(self, outputs):
        """Failed record count per round; a bad manifest fails them all."""
        root = outputs[0]
        entries = checks.read_manifest_lines(root)
        fails = checks.check_manifest(
            entries, {"train": CORPUS_SPLIT["n_train"], "val": CORPUS_SPLIT["n_val"],
                      "test": CORPUS_SPLIT["n_test"]})
        whole = bool(fails)
        bad = set()
        for e in entries:
            msgs = checks.check_record(root, e, self.bank[e["scene"]["source_clip_id"]])
            fails += [f"{e['id']}: {m}" for m in msgs]
            if msgs:
                bad.add(e["id"])
        failed = [self.items if whole else len(bad)]
        digest = checks.tree_digest(root)
        for out in outputs[1:]:
            other = checks.tree_digest(out)
            differ = {p for p in set(digest) | set(other) if digest.get(p) != other.get(p)}
            if differ:
                fails.append(f"{out.name}: {len(differ)} files differ from round 0")
            ids = {e["id"] for e in entries if any(e["id"] in p for p in differ)}
            all_bad = whole or "manifest.jsonl" in differ
            failed.append(self.items if all_bad else len(ids | bad))
        for out in outputs:
            shutil.rmtree(out, ignore_errors=True)
        return failed, fails


class Train:
    def __init__(self, seed, worker, fixture, work):
        from binauralize.evaluation.protocol import ProtocolConfig
        from binauralize.training import loop
        self.seed, self.work = seed, work
        self.corpus = fixture / "corpus"
        self.cfg = replace(ProtocolConfig().train, epochs=TRAIN_EPOCHS,
                           patience=TRAIN_EPOCHS)
        self.hook = FirstCall(loop, "grad")
        n_train = sum(1 for e in checks.read_manifest_lines(self.corpus)
                      if e["split"] == "train")
        self.items = ((self.cfg.rir_pretrain_epochs + self.cfg.epochs)
                      * n_train * self.cfg.windows_per_record)

    def run(self, i):
        from binauralize.training import LossWeights, train
        ckpt = self.work / f"train-r{i}.ckpt"
        log = self.work / f"train-r{i}.jsonl"
        params, entries = train(self.corpus, self.cfg, LossWeights(),
                                out_checkpoint=ckpt, log_path=log)
        return params, entries, ckpt, log

    def check(self, outputs):
        params, log, ckpt, log_path = outputs[0]
        fails = checks.check_losses(log)
        fails += checks.check_checkpoint(ckpt, params)
        fails += self._gradcheck(params)
        failed = [self.items if fails else 0]
        first = (ckpt.read_bytes(), log_path.read_bytes())
        for _, _, c, lp in outputs[1:]:
            same = (c.read_bytes(), lp.read_bytes()) == first
            if not same:
                fails.append(f"{c.name}: checkpoint or log differs from round 0")
            failed.append(self.items if fails or not same else 0)
        for _, _, c, lp in outputs:
            c.unlink()
            lp.unlink()
        return failed, fails

    def _gradcheck(self, params):
        """Float64 gradient of the full loss on two fixture windows."""
        from binauralize.scenegen.manifest import Manifest, read_manifest
        from binauralize.training import LossWeights, build_batch, grad, \
            load_training_cache, make_example

        train_split = read_manifest(self.corpus).split("train")
        cache = load_training_cache(Manifest(train_split.root, train_split.entries[:2]))
        rng = np.random.default_rng(np.random.SeedSequence([0x9c, self.seed]))
        batch = build_batch([make_example(r, rng, flip_prob=0.5) for r in cache],
                            dtype=np.float64)
        p64 = {k: v.astype(np.float64) for k, v in params.items()}
        _, gradient = grad("total", batch, p64, weights=LossWeights())
        return checks.directional_gradcheck(
            lambda p: grad("total", batch, p, weights=LossWeights())[0]["total"],
            gradient, p64)


class Binauralize:
    METHODS = ("full", "mono-mono")

    def __init__(self, seed, worker, fixture, work):
        from binauralize.evaluation import report
        self.corpus = fixture / "corpus"
        self.ckpt = fixture / "full.ckpt"
        self.hook = FirstCall(report, "binauralize_clip", keep=lambda args, out: (
            args[0].samples.copy(), out.left.samples, out.right.samples))
        self.tests = [e for e in checks.read_manifest_lines(self.corpus)
                      if e["split"] == "test"]
        self.clip_seconds = [e["scene"]["duration"] for e in self.tests]
        self.items = sum(self.clip_seconds)

    def run(self, i):
        from binauralize.evaluation import evaluate
        methods = {"full": str(self.ckpt), "mono-mono": None}
        report = evaluate(self.corpus, methods, split="test")
        return report.rows, self.hook.kept

    def check(self, outputs):
        rows, outs = outputs[0]
        fails = []
        clip_bad = [False] * len(self.tests)
        if len(outs) != len(self.tests):
            fails.append(f"{len(outs)} clips binauralized for {len(self.tests)} test records")
            clip_bad = [True] * len(self.tests)
        sums = {m: np.zeros(2) for m in self.METHODS}
        for j, (entry, (mono_in, left, right)) in enumerate(zip(self.tests, outs)):
            stereo, mono = checks.stereo_mono(self.corpus, entry)
            msgs = [] if np.array_equal(mono_in, mono) else ["mono input differs from the stored mixdown"]
            msgs += checks.check_binaural(mono, left, right)
            fails += [f"{entry['id']}: {m}" for m in msgs]
            clip_bad[j] = clip_bad[j] or bool(msgs)
            sums["full"] += checks.clip_distances(np.stack([left, right], axis=1), stereo)
            sums["mono-mono"] += checks.clip_distances(np.stack([mono, mono], axis=1), stereo)
        dist_fails = []
        for m in self.METHODS:
            dist_fails += checks.check_distances(rows[m], tuple(sums[m] / len(self.tests)), m)
        msgs = self._zero_head()
        fails += dist_fails + msgs
        if dist_fails or msgs:
            clip_bad = [True] * len(self.tests)
        first = self._failed_seconds(clip_bad)
        failed = [first]
        for k, (rows_k, outs_k) in enumerate(outputs[1:], start=1):
            same = rows_k == rows and len(outs_k) == len(outs) and all(
                np.array_equal(a, b) for x, y in zip(outs, outs_k) for a, b in zip(x, y))
            if not same:
                fails.append(f"round {k}: outputs differ from round 0")
            failed.append(self.items if not same else first)
        return failed, fails

    def _failed_seconds(self, bad):
        return sum(s for s, b in zip(self.clip_seconds, bad) if b)

    def _zero_head(self, seconds: float = 4.0):
        """With the difference head zeroed the output is the mono input.

        Runs on the clip's first seconds, which is a clip in its own right.
        """
        from binauralize.dsp.types import Waveform
        from binauralize.evaluation.infer import binauralize_clip
        from binauralize.nn.model import ArchConfig
        from binauralize.scenegen.manifest import read_manifest

        _, params = checks.read_archive(self.ckpt)
        params = {k: v.copy() for k, v in params.items()}
        params["unet.head_d.w"][:] = 0.0
        params["unet.head_d.b"][:] = 0.0
        rec = read_manifest(self.corpus).split("test").load(0)
        _, mono = checks.stereo_mono(self.corpus, self.tests[0])
        mono = mono[:int(seconds * checks.SR)]
        obs = [(t, img) for t, img in rec.observations if t <= seconds]
        out = binauralize_clip(Waveform(mono, checks.SR), obs, params, ArchConfig())
        if np.array_equal(out.left.samples, mono) and np.array_equal(out.right.samples, mono):
            return []
        return ["zeroed difference head does not return the mono input"]


WORKLOADS = {"corpus": Corpus, "train": Train, "binauralize": Binauralize}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worker", type=int, default=0, help="index within the run")
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fixture", type=Path)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.worker, args.fixture,
                                        args.work)

    rounds, outputs, layer_rounds, errors = [], [], [], []
    while True:
        i = len(rounds)
        workload.hook.reset()
        before = tracer.snapshot() if tracer else None
        try:
            out = workload.run(i)
        except Exception:  # a raising round is a failed round, not a crash
            errors.append(traceback.format_exc())
            rounds.append(None)
        else:
            t_end = time.monotonic()
            rounds.append({"t_first": workload.hook.t_first, "t_end": t_end})
            outputs.append(out)
            if tracer:
                layer_rounds.append(spans.round_metrics(before, tracer.snapshot()))
        if time.monotonic() - PROCESS_START >= args.budget:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()

    done = [r for r in rounds if r is not None]
    failed, fails = workload.check(outputs) if outputs else ([], [])
    result = {
        "setup_end": rounds[0]["t_first"] if rounds[0] else None,
        "rounds": [{"items": workload.items, "seconds": r["t_end"] - r["t_first"]}
                   for r in done],
        "attempted": workload.items * len(rounds),
        "failed": sum(failed) + workload.items * (len(rounds) - len(done)),
        "peak_rss_mb": peak_mb,
        "failures": fails + errors,
        "layers": layer_rounds,
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
