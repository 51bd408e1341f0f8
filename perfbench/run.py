"""cruxkit pipeline benchmark: one command, three workloads.

    python3 perfbench/run.py --workload eval-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; cruxkit is imported from ``./src``. The
seeded generator (gen.py) writes each batch's inputs and the expected
result of every operation; the stages run in-process in one fresh worker
interpreter through ``cruxkit.cli``, with the echo toolchain and the mock
provider, and every output is checked (check.py).

Workloads:
  eval-sweep  ``evaluate`` over 3 tasks x 16 byte-distinct candidates, k=1,5,10
  rl-groups   ``reward`` (beta > 0) over 4 groups of 8 rollouts with repeats
  no-sim      ``categorize`` -> ``derive-crux --live`` -> ``build-dataset`` on
              2000 pairs, then ``grpo-check`` (beta > 0) on 4 toy instances

A batch is one pass of the workload's stages; batches run back to back for
``--seconds``. ``--trace 0`` prints the end-to-end metrics: ``ops_per_s``
(the workload's headline throughput, work over the summed wall time of its
headline stages, printed under its own name too), ``setup_s`` and
``peak_rss_mb``; no-sim also prints ``gradcheck.positions_per_s``.
``--trace 1`` prints the per-layer metrics of tracer.py.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. The full result, with run metadata, is kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

# set-up probes per run, half before the worker and half after, so the
# median spans the run rather than one moment of a shared host
SETUP_REPEATS = 10
HEADLINE = {
    "eval-sweep": ("eval.samples_per_s", "samples/s"),
    "rl-groups": ("rl.rollouts_per_s", "rollouts/s"),
    "no-sim": ("build.pairs_per_s", "pairs/s"),
}
# files each workload's stages load before their first call: config, toolchain, provider
SETUP_FILES = {
    "eval-sweep": ("config", "toolchain"),
    "rl-groups": ("config", "toolchain", "provider"),
    "no-sim": ("config", "provider"),
}


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: shows a slow or busy host.
    Recorded only; never used to rescale a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for folder, dirs, names in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's own .git, read directly; None when it has none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(root: str, src: str, workers: int) -> dict:
    sims = [b for b in ("iverilog", "vvp") if shutil.which(b)]
    return {
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "python": sys.version.split()[0],
        "nproc": workers,
        "loadavg_start": list(os.getloadavg()),
        "calibration_ms": calibration_ms(),
        "iverilog_lane": "present, not run" if len(sims) == 2 else "absent: iverilog/vvp not on PATH",
    }


def measure_setup(workload: str, files: dict, env: dict, repeats: int) -> list[float]:
    probe = os.path.join(HERE, "setup_probe.py")
    argv = [files[k] if k in SETUP_FILES[workload] else "-" for k in ("config", "toolchain", "provider")]
    times = []
    for _ in range(repeats):
        try:
            done = subprocess.run([sys.executable, probe, *argv], env=env, capture_output=True,
                                  text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError("setup probe timed out") from exc
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.split()[-1]))
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(gen.SIZES), default="full",
                        help="tiny runs one small batch (smoke tests)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cruxkit", "cli.py")):
        print("perfbench: no src/cruxkit here; run from the root of a cruxkit checkout",
              file=sys.stderr)
        return 2
    out_root = os.path.join(root, ".perfbench")
    work = os.path.join(out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    try:
        return _run(args, root, src, out_root, work, tmp)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: str, src: str, out_root: str, work: str, tmp: str) -> int:
    workers = len(os.sched_getaffinity(0))
    # scratch files of the stages and their sims stay inside the checkout
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=tmp)
    meta = metadata(root, src, workers)
    files = gen.write_run_files(args.workload, args.seed, work, src, workers)
    with open(os.path.join(work, "files.json"), "w", encoding="utf-8") as f:
        json.dump(files, f)
    setup = measure_setup(args.workload, files, env, SETUP_REPEATS // 2)

    log_path = os.path.join(work, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        # its own process group, so a timeout also ends the sims it started
        worker = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size, "--work", work],
            env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = worker.wait(timeout=args.seconds + 120)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            code = "timeout"
    result_path = os.path.join(work, "result.json")
    if code != 0 or not os.path.exists(result_path):
        with open(log_path, encoding="utf-8") as f:
            raise RuntimeError(f"worker failed ({code}):\n{f.read()[-3000:]}")
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    setup += measure_setup(args.workload, files, env, SETUP_REPEATS - SETUP_REPEATS // 2)

    result.update(meta, setup_s=statistics.median(setup), setup_runs_s=setup,
                  seed=args.seed, size=args.size, seconds=args.seconds)
    headline, headline_unit = HEADLINE[args.workload]
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
        shutil.copy(os.path.join(work, "spans.jsonl"), os.path.join(out_root, f"last-{args.workload}-spans.jsonl"))
    else:
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "ops/s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    with open(os.path.join(out_root, f"last-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    calls, distinct = result["sim_calls"], result["sim_distinct"]
    error_rate = result["failed"] / result["attempted"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"  commit {meta['git_commit'] or 'unknown (not a git checkout)'}  src_sha256 {meta['src_sha256']}")
    print(f"  python {meta['python']}  nproc {meta['nproc']}  loadavg_start "
          + " ".join(f"{x:.2f}" for x in meta["loadavg_start"])
          + f"  calibration_ms {meta['calibration_ms']:.2f}")
    print(f"  iverilog lane: {meta['iverilog_lane']}; all sims use the echo toolchain")
    print(f"  batches {result['batches']}  generator sim repeat share "
          f"{(calls - distinct) / calls if calls else 0.0:.4f} ({calls - distinct} of {calls} sim jobs repeat)")
    if not args.trace:
        print(f"  {headline:<28} {result['ops_per_s']:.4f} {headline_unit}")
        if "gradcheck_positions_per_s" in result:
            print(f"  {'gradcheck.positions_per_s':<28} {result['gradcheck_positions_per_s']:.4f} positions/s")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<28} {error_rate:.6g} ratio ({result['failed']} of {result['attempted']})")
    for message in result["messages"]:
        print(f"  FAIL {message}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
