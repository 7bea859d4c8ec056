"""rbitmc benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones;
``ops_per_s``, ``op_p50_ms``, ``op_tail_ms`` and ``fail_ratio`` are printed
as text only.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and what each metric means.

This process only starts and times workers (perfbench/worker.py); it imports
nothing from the package.  ``setup_s`` is the median over ``SETUP_RUNS``
fresh worker processes of the time from process start to the first timed
op; the last of them is the one that runs the ops.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mlmc_runs", "plain_mc_deep", "sde_strong", "cli_tables")
SETUP_RUNS = 3
DEADLINE_S = 175  # a run must end within 180 s


class RunError(Exception):
    pass


def _read_line(proc, deadline: float) -> str:
    """Next line of the worker's standard output, or RunError at EOF or deadline."""
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
            raise RunError("worker did not answer before the deadline")
        chunk = proc.stdout.read(1)
        if not chunk:
            raise RunError(f"worker ended early with exit code {proc.wait()}")
        line += chunk
    return line.decode()


def _worker(args, env, setup_only: bool, deadline: float):
    """Start a worker and wait for READY; return (set-up seconds, process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
    try:
        line = _read_line(proc, deadline)
        setup = time.monotonic() - t0
        if line.strip() != "READY":
            raise RunError(f"unexpected worker output {line!r}")
    except BaseException:
        _stop(proc)
        raise
    return setup, proc


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run(args) -> dict:
    if not (ROOT / "src" / "rbitmc" / "__init__.py").is_file():
        raise RunError(f"no rbitmc sources under {ROOT / 'src'}; run from a source checkout")
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(nproc))
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setup, proc = _worker(args, env, True, deadline)
            setups.append(setup)
            if proc.wait(max(deadline - time.monotonic(), 0.1)) != 0:
                raise RunError(f"set-up worker exited with code {proc.returncode}")
    setup, proc = _worker(args, env, False, deadline)
    setups.append(setup)
    try:
        line = _read_line(proc, deadline)
        if not line.startswith("RESULT "):
            raise RunError(f"unexpected worker output {line[:200]!r}")
        result = json.loads(line[len("RESULT "):])
        if proc.wait(max(deadline - time.monotonic(), 0.1)) != 0:
            raise RunError(f"worker exited with code {proc.returncode}")
    finally:
        _stop(proc)
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    result["info"].update(git_commit=git_commit(), setup_runs_s=setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rbitmc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    try:
        result = run(args)
    except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = result["info"]
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"{args.workload} {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} ops_per_s {info['ops_per_s']:.6g} 1/s")
        print(f"{args.workload} op_p50_ms {info['op_p50_ms']:.6g} ms")
        print(f"{args.workload} fail_ratio {info['fail_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']} ops failed)")
        if info["op_tail_ms"] is None:
            print(f"{args.workload} op_tail_ms omitted: {info['ops']} ops, too few for a tail")
        else:
            tail, pct = info["op_tail_ms"]
            print(f"{args.workload} op_tail_ms {tail:.6g} ms (p{pct:.4g} of {info['ops']} ops, "
                  "10 beyond it)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
