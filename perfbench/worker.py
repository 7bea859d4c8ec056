"""One benchmark process: set-up, then the timed closed loop of one workload.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
    python3 perfbench/worker.py --workload NAME --make-digests

Prints ``READY`` once set-up (imports, inputs, warm-up) is done, then, unless
``--setup-only``, one ``RESULT <json>`` line.  ``perfbench/run.py`` starts it
and times set-up from process start to ``READY``.  ``--make-digests``
rewrites this workload's entry of ``digests.json`` from one pass over its
schedule at the default seed.

A run does a fixed number of whole rounds of the schedule: ``--seconds``
over the workload's nominal round time, and at least ``MIN_OPS`` ops.  The
same ``--seconds`` thus gives the same ops, and the same op mix, on every
commit and machine.  With ``--trace 1`` it runs the ops of half that time
untraced, installs the span wrappers, repeats the same ops traced and
compares their outputs with the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

MIN_OPS = 11  # op_tail_ms, the latency with 10 ops beyond it, needs 11 ops
GRACE_S = 90  # no op starts this long past --seconds, so a slow run still ends in time
UNATTRIBUTED_WARN = 0.15  # cli_tables ops spend about 9% in interpreter start and exit


def ops_for(wl, seconds: float, min_ops: int = 1) -> int:
    """Ops in whole rounds that take about ``seconds`` at the nominal round time."""
    rounds = max(round(seconds / wl.round_s), -(-min_ops // wl.round_size), 1)
    return rounds * wl.round_size


def run_ops(wl, ctx, n_ops, expected=None, tracer=None, stop_after=math.inf):
    """Run the first ``n_ops`` ops of the schedule, or fewer if ``stop_after``
    seconds pass; returns latencies, digests, errors and span-covered time."""
    schedule = ctx["schedule"]
    res = {"latency": [], "digest": [], "errors": [], "covered": []}
    begin = time.perf_counter()
    for i in range(n_ops):
        if time.perf_counter() - begin >= stop_after:
            break
        item = schedule[i % len(schedule)]
        covered = 0.0
        if tracer is not None:
            tracer.op = i
            covered = tracer.top_s
        t0 = time.perf_counter()
        try:
            out = wl.op(ctx, item)
            raised = None
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            out, raised = None, exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            covered = tracer.top_s - covered
        if raised is None:
            errors = wl.check(ctx, item, out)
            digest = wl.digest(out)
        else:
            errors, digest = [f"raised {raised!r}"], None
        if expected is not None:
            want = expected.get(wl.digest_key(item))
            if digest != want:
                errors.append(f"digest {digest} != committed {want}")
        res["latency"].append(latency)
        res["digest"].append(digest)
        res["errors"].append(errors)
        res["covered"].append(covered)
    return res


def _failures(runs) -> list[str]:
    return [f"op {i}: {'; '.join(e)}" for run in runs for i, e in enumerate(run["errors"]) if e]


def _tail(latency: list[float]):
    """Latency in ms at the highest percentile with 10 ops beyond it, and that
    percentile; None when there are too few ops."""
    s = sorted(latency)
    n = len(s)
    if n < MIN_OPS:
        return None
    return s[n - 11] * 1e3, 100.0 * (n - 10) / n


def best_ms(wl, schedule, run) -> float:
    """Mean over op kinds of the fastest passing op of each kind, in ms.

    On a shared machine other tenants only ever add time to an op, in
    phases of seconds to minutes; where a kind has many ops in a run, its
    fastest op is one they barely touched, so it moves less between runs
    than the median does."""
    best = {}
    for i, (latency, errors) in enumerate(zip(run["latency"], run["errors"])):
        if not errors:
            kind = wl.kind(schedule[i % len(schedule)])
            best[kind] = min(latency, best.get(kind, math.inf))
    if not best:  # every op failed; the run is not correct anyway
        return statistics.fmean(run["latency"]) * 1e3
    return statistics.fmean(best.values()) * 1e3


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def provenance(wl, seed: int, seconds: int) -> dict:
    import numpy
    import scipy
    import rbitmc

    info = {"workload": wl.name, "seed": seed, "seconds": seconds,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "rbitmc": str(Path(rbitmc.__file__).resolve().parent.relative_to(ROOT))}
    info.update(_openblas())
    return info


def _openblas() -> dict:
    """OpenBLAS version and thread count, read from the loaded library."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": "not loaded", "blas_threads": None}


def _expected(wl, seed: int):
    """Committed digests that this run's outputs must match, if any apply."""
    from workloads import DEFAULT_SEED

    if not (wl.seed_independent or seed == DEFAULT_SEED):
        return None
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)[wl.name]


def measure(wl, ctx, args, info) -> dict:
    run = run_ops(wl, ctx, ops_for(wl, args.seconds, MIN_OPS), expected=_expected(wl, args.seed),
                  stop_after=args.seconds + GRACE_S)
    lat = run["latency"]
    failures = _failures([run])
    ok = len(lat) - len(failures)
    info.update(ops=len(lat), op_tail_ms=_tail(lat), fail_ratio=len(failures) / len(lat),
                ops_per_s=ok / sum(lat), op_p50_ms=statistics.median(lat) * 1e3,
                failures=failures[:10])
    metrics = {
        "op_best_ms": (best_ms(wl, ctx["schedule"], run), "ms"),
        "peak_rss_mb": (peak_rss_mb(wl.ops_in_children), "MB"),
        "ok_ratio": (ok / len(lat), "ratio"),
    }
    return {"attempted": len(lat), "failed": len(failures), "metrics": metrics, "info": info}


def measure_traced(wl, ctx, args, info) -> dict:
    from tracer import Tracer
    from workloads import OUT

    expected = _expected(wl, args.seed)
    plain = run_ops(wl, ctx, ops_for(wl, args.seconds / 2.0), expected=expected,
                    stop_after=args.seconds / 2.0 + GRACE_S / 2.0)
    n = len(plain["latency"])
    tracer = Tracer()
    tracer.install()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = str(OUT / f"trace-{wl.name}-{args.seed}")
    ctx = wl.build(args.seed)
    ctx["tracer"], ctx["trace_stem"] = tracer, stem
    cpu0 = _cpu_s()
    traced = run_ops(wl, ctx, n, expected=expected, tracer=tracer)
    cpu = _cpu_s() - cpu0
    tracer.uninstall()
    for i, (a, b) in enumerate(zip(plain["digest"], traced["digest"])):
        if a != b:
            traced["errors"][i].append(f"traced digest {b} != untraced {a}")
    failures = _failures([plain, traced])
    wall = sum(traced["latency"])
    unattributed = (wall - sum(traced["covered"])) / wall
    if unattributed > UNATTRIBUTED_WARN:
        print(f"WARNING: {unattributed:.1%} of traced op time is in no layer span; "
              "a call site may have escaped the wrappers", file=sys.stderr)
    metrics = tracer.layer_metrics(n)
    metrics["proc.cpu_s"] = (cpu / n, "s/op")
    metrics["trace.overhead_ratio"] = (wall / sum(plain["latency"]), "ratio")
    metrics["trace.unattributed_share"] = (unattributed, "ratio")
    tracer.dump(stem)
    info.update(ops=n, failures=failures[:10], spans=stem + ".npz",
                hook_errors=tracer.counters.get("trace.hook_errors", 0),
                absent=sorted(k for k, (v, _) in metrics.items() if v == 0))
    return {"attempted": 2 * n, "failed": len(failures), "metrics": metrics, "info": info}


def make_digests(wl, ctx) -> None:
    n = len(ctx["schedule"])
    run = run_ops(wl, ctx, n)
    failures = _failures([run])
    if failures:
        raise SystemExit("refusing to record digests of failing ops: " + "; ".join(failures[:5]))
    table = {}
    for item, digest in zip(ctx["schedule"], run["digest"]):
        table[wl.digest_key(item)] = digest
    data = {}
    if DIGESTS.exists():
        with open(DIGESTS, encoding="utf-8") as handle:
            data = json.load(handle)
    data[wl.name] = table
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{wl.name}: {len(table)} digests written to {DIGESTS.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--make-digests", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.seed is None or args.make_digests:
        args.seed = workloads.DEFAULT_SEED
    wl = workloads.WORKLOADS[args.workload]()
    wl.load()
    import rbitmc

    if not Path(rbitmc.__file__).resolve().is_relative_to(workloads.SRC):
        raise SystemExit(f"rbitmc was imported from {rbitmc.__file__}, not from {workloads.SRC}")
    ctx = wl.build(args.seed)
    wl.warm_up(ctx)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.make_digests:
        make_digests(wl, ctx)
        return 0
    info = provenance(wl, args.seed, args.seconds)
    result = (measure_traced if args.trace else measure)(wl, ctx, args, info)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
