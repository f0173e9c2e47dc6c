"""Benchmark of the three stages a user waits on: corpus synthesis, multi-task
training and sliding-window binauralization.

    python3 perfbench/run.py --workload {corpus,train,binauralize} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
Each run starts fresh worker processes one after another (worker.py), each
for an equal share of the seconds: set-up, whole timed rounds, then output
checks. With --trace 0 it prints the end-to-end metrics (median round
throughput, median worker set-up time, median worker peak RSS); with
--trace 1 one untraced and one traced worker run, and it prints the
per-layer metrics of the traced rounds and the cost of tracing. The last
line of standard output is one JSON object.

Inputs come only from the seed. The train and binauralize workloads read a
fixture corpus and checkpoint built by fixture.py in its own process and
cached under .bench_work/, keyed by the seed and a digest of the program's
source, so a fixture is never reused across different program code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKERS = 3            # untraced workers per run; set-up is their median
BLAS_THREADS = "2"     # OpenBLAS threads in every worker, see README
WORKER_TIMEOUT = 150   # seconds; a run must end within 180

sys.path.insert(0, str(HERE))
from spans import per_layer_metrics  # noqa: E402


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "binauralize").rglob("*.py")) + [HERE / "fixture.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_fixture(seed: int) -> Path:
    digest = source_digest()
    base = WORK / "fixtures"
    out = base / f"{digest}-s{seed}"
    if out.is_dir():
        return out
    base.mkdir(parents=True, exist_ok=True)
    for old in base.iterdir():  # fixtures of other program code are stale
        if not old.name.startswith(digest):
            shutil.rmtree(old, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "fixture.py"), "--seed", str(seed),
                    "--out", str(out)], env=worker_env(), check=True, timeout=WORKER_TIMEOUT)
    return out


def run_worker(workload: str, seed: int, budget: float, traced: bool,
               fixture: Path | None, index: int, part: int) -> dict:
    """Run worker `index` of this run on input part `part`."""
    work = WORK / f"run-{os.getpid()}-{index}"
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--worker", str(part), "--budget", f"{budget:.3f}",
           "--trace", str(int(traced)), "--work", str(work), "--out", str(out)]
    if fixture is not None:
        cmd += ["--fixture", str(fixture)]
    work.mkdir(parents=True, exist_ok=True)
    try:
        start = time.monotonic()
        subprocess.run(cmd, env=worker_env(), check=True, timeout=WORKER_TIMEOUT)
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in result["failures"]:
        print(f"[{workload} worker {index}] FAILED CHECK: {msg}", file=sys.stderr)
    if result["setup_end"] is None or not result["rounds"]:
        raise RuntimeError(f"{workload} worker {index}: no round completed")
    result["setup_s"] = result["setup_end"] - start
    return result


def _throughputs(results) -> list[float]:
    return [r["items"] / r["seconds"] for res in results for r in res["rounds"]]


def end_to_end(results) -> dict:
    return {
        "throughput": {"value": statistics.median(_throughputs(results)), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results),
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in results),
                    "unit": "s"},
    }


def per_layer(untraced, traced) -> tuple[dict, bool]:
    """Median per-round values; counts must repeat exactly across rounds."""
    rounds = traced["layers"]
    metrics, repeat = {}, True
    for name, unit in per_layer_metrics():
        if name == "trace.overhead_pct":
            plain = statistics.median(_throughputs([untraced]))
            slow = statistics.median(_throughputs([traced]))
            value = 100.0 * (plain / slow - 1.0)
        else:
            values = [r[name] for r in rounds]
            if unit != "s" and len(set(values)) != 1:
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
                repeat = False
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("corpus", "train", "binauralize"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "binauralize" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    fixture = None if args.workload == "corpus" else ensure_fixture(args.seed)
    if args.trace:
        # both workers get the same inputs, so their throughputs compare
        share = args.seconds / 2
        results = [run_worker(args.workload, args.seed, share, traced, fixture, i, 0)
                   for i, traced in enumerate((False, True))]
        metrics, correct = per_layer(*results)
    else:
        share = args.seconds / WORKERS
        results = [run_worker(args.workload, args.seed, share, False, fixture, i, i)
                   for i in range(WORKERS)]
        metrics, correct = end_to_end(results), True
    print(json.dumps({
        "correct": correct,
        "attempted": int(sum(r["attempted"] for r in results)),
        "failed": int(sum(r["failed"] for r in results)),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
