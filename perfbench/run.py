"""Benchmark of the bytepatch package, one workload per run.

    python3 perfbench/run.py --workload convert --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from src/ of the tree
this file sits in, never from an installed copy. With --trace 0 the run
prints the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics from a traced replay of the same pass. Either way the last
line of standard output is one JSON object, and the run also writes it, with
a header and the raw figures, under perfbench/out/. `--workload all` runs
every workload one after another, each in its own process.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # one BLAS thread; takes effect only before numpy loads

import argparse
import dataclasses
import gc
import hashlib
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CONFIG = "configs/toy.cfg"
SETUP_REPEATS = 4  # setup_s is the median of this many full set-ups
WORKLOAD_NAMES = ("convert", "long-context")


def _import_package() -> None:
    """Put this tree's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    for need in (src / "bytepatch" / "__init__.py", ROOT / CONFIG, ROOT / "BENCHMARK.json"):
        if not need.is_file():
            raise SystemExit(f"error: {need.relative_to(ROOT)} is missing; run from a full source tree")
    sys.path.insert(0, str(src))
    import bytepatch

    if Path(bytepatch.__file__).resolve().parent != src / "bytepatch":
        raise SystemExit(f"error: imported bytepatch from {bytepatch.__file__}, not from {src}")


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bytepatch").glob("*.py")) + [ROOT / CONFIG]:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_header(args, plan) -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "config": CONFIG, "plan": dataclasses.asdict(plan),
    }


def _number(v):
    return int(v) if float(v).is_integer() and not isinstance(v, float) else float(v)


def measure(workload: str, seed: int, plan, trace: int, spec: dict,
            setup_repeats: int = SETUP_REPEATS, say=print):
    """Set up, run the timed pass and check it; with `trace`, replay the pass
    traced. Returns the result object, the raw record and the tracer (or None)."""
    import stats
    import tracing
    import workloads as wl

    clock = time.perf_counter

    def timed_setup():
        t0 = clock()
        out = wl.set_up(workload, seed, plan, ROOT)
        setup_s.append(clock() - t0)
        return out

    # Half the set-ups run before the pass and half after it, so that the
    # median blends two moments of a shared host instead of one.
    setup_s = []
    before = 1 if trace else max(1, setup_repeats // 2)
    for _ in range(before):
        setup = timed_setup()
    gc.collect()
    probe = tracing.Tracer()
    with tracing.patched(probe, tracing.PROBES):
        t0 = clock()
        raw = wl.timed_pass(workload, setup, plan, seed, probe)
        wall = clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = wl.evaluate(workload, setup, raw)
    del raw
    for _ in range(0 if trace else setup_repeats - before):
        timed_setup()

    say(f"{'metric':<24}{'value':>14}  {'unit':<6} samples")
    say(f"{'setup_s':<24}{stats.median(setup_s):>14.4f}  {'s':<6} {len(setup_s)} set-ups (median)")
    say(f"{'peak_rss_mb':<24}{peak_rss_mb:>14.1f}  {'MB':<6} 1 (process high-water mark "
        "at the end of the timed pass)")
    for m in outcome.metrics:
        pct = "" if m.percentile in (None, 50.0) else f", p{m.percentile:.1f}"
        slot = f" -> {m.slot}" if m.slot else ""
        say(f"{m.name:<24}{m.value:>14.4f}  {m.unit:<6} {m.n} {m.what}{pct}{slot}")

    record = {"setup_s": setup_s, "timed_wall_s": wall,
              "metrics": [dataclasses.asdict(m) for m in outcome.metrics]}
    tracer = None
    if trace:
        gc.collect()
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            t0 = clock()
            raw = wl.timed_pass(workload, setup, plan, seed, tracer)
            traced_wall = clock() - t0
        traced = wl.evaluate(workload, setup, raw)
        traced.check(traced.digest == outcome.digest,
                     f"traced pass digest {traced.digest} != untraced {outcome.digest}")
        record["traced_wall_s"] = traced_wall
        names = [m["name"] for m in spec["per_layer"]]
        values = tracing.layer_metrics(tracer, traced_wall, wall, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in names:
            say(f"{name:<44}{values[name]:>14.3f}  {units[name]}")
        outcome = traced
    else:
        values = {m.slot: m.value for m in outcome.metrics if m.slot}
        values.update(setup_s=stats.median(setup_s), peak_rss_mb=peak_rss_mb)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        names = list(units)

    for problem in outcome.problems:
        say(f"# FAILED: {problem}")
    say(f"{'failed_ops_ratio':<24}{outcome.failed / outcome.attempted:>14.4f}  {'ratio':<6} "
        f"{outcome.failed}/{outcome.attempted} ops failed "
        "(steps, windows, eval docs, prefills, decode bytes, checks)")
    say(f"# digest {outcome.digest}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": _number(values[n]), "unit": units[n]} for n in names},
    }
    record.update(digest=outcome.digest, problems=outcome.problems)
    return result, record, tracer


def run_one(args, spec: dict) -> int:
    import tracing
    import workloads as wl

    plan = wl.plan_for(args.workload, args.seconds)
    header = run_header(args, plan)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# header " + json.dumps(header))
    result, record, tracer = measure(args.workload, args.seed, plan, args.trace, spec)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans_path = OUT / f"spans-{stem}.tsv"
        tracing.write_spans(tracer, spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"header": header, **record, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay apart."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
