"""critspec benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports critspec from its
src/ directory.  Setup (imports, input generation, warm-up) is timed
apart from the body.  The body repeats whole rounds of the workload's
fixed operation list until --seconds have passed, then the outputs are
checked against references computed apart from critspec.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  A fuller record goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
# one thread per BLAS pool: runs stay on one core, as the workloads assume
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the name each end-to-end metric has on one workload
ALIASES = {
    "curves": {"op_p50_ms": "curve_p50_ms", "items_per_s": "phi_sq_points_per_s"},
    "spectra": {"op_p50_ms": "integral_p50_ms", "items_per_s": "integrals_per_s"},
    "collapse": {"op_p50_ms": "fit_p50_ms", "items_per_s": "fits_per_s"},
    "oracle": {"op_p50_ms": "trace_p50_ms", "items_per_s": "traces_per_s"},
}


def _git_sha():
    """Commit of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "platform": platform.platform(), "git_sha": _git_sha()}


def run_ops(ops, tracer, state):
    """Run operations in order; time, count and keep the outputs of each."""
    for op in ops:
        if tracer is not None:
            tracer.set_op(state["attempted"])
        state["attempted"] += 1
        t0 = time.perf_counter()
        try:
            items, output = op.fn()
        except Exception:
            state["failed"] += 1
            state["errors"].append(f"{op.label}: {traceback.format_exc(limit=3)}")
            continue
        dt = time.perf_counter() - t0
        state["items"] += items
        state["latency"].setdefault(op.kind, []).append(dt)
        state["by_label"].setdefault(op.label, []).append(dt)
        state["outputs"].setdefault(op.label, []).append(output)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ALIASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "critspec" / "__init__.py").is_file():
        print(f"no critspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")

    t_import = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import critspec
    if Path(critspec.__file__).resolve().parent != ROOT / "src" / "critspec":
        print(f"imported critspec from {critspec.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t_import

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        # setup runs several times; the median keeps one slow repeat out
        setup_times = []
        for _ in range(SETUP_REPEATS):
            wl = WORKLOADS[args.workload](args.seed, workdir)
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        state = {"attempted": 0, "failed": 0, "items": 0, "latency": {},
                 "outputs": {}, "by_label": {}, "errors": []}
        round_s = []
        t_body, cpu_body = time.perf_counter(), time.process_time()
        while not round_s or time.perf_counter() - t_body < args.seconds:
            t0 = time.perf_counter()
            run_ops(wl.ops(len(round_s)), tracer, state)
            round_s.append(time.perf_counter() - t0)
        run_ops(getattr(wl, "final_ops", list)(), tracer, state)
        body_s = time.perf_counter() - t_body
        body_cpu_s = time.process_time() - cpu_body
        if tracer is not None:
            tracer.uninstall()

        problems, checked = wl.check(state["outputs"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(round_s)
    lat = state["latency"].get(wl.timed_kind, [])
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(round_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "op_p50_ms": (statistics.median(lat) * 1e3 if lat else float("nan"), "ms"),
        "items_per_s": (state["items"] / body_s, "1/s"),
    }
    extra = {"import_s": import_s, "setup_repeats_s": setup_times, "round_s": round_s,
             "body_s": body_s, "body_cpu_s": body_cpu_s, "op_samples": len(lat)}
    # a tail percentile only when at least ten samples lie beyond it
    if len(lat) >= 100:
        extra["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1e3
    extra["label_p50_ms"] = {k: statistics.median(v) * 1e3
                             for k, v in state["by_label"].items()}
    for kind, xs in state["latency"].items():
        extra[f"{kind}_p50_ms"] = statistics.median(xs) * 1e3
        extra[f"{kind}_count"] = len(xs)

    if args.trace:
        layers = tracer.layer_metrics(rounds)
        n_spans = len(tracer.start)
        layers["tracer.spans"] = n_spans / rounds
        layers["tracer.overhead_s"] = n_spans * tracer.per_span_cost() / rounds
        layers["tracer.wall_s"] = statistics.median(round_s)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    correct = not problems and state["attempted"] > state["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "attempted": state["attempted"], "failed": state["failed"],
        "correct": correct, "problems": problems, "errors": state["errors"],
        "checked": checked, "metrics": metrics,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()}, "extra": extra,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    for msg in problems:
        print(f"CHECK FAILED {msg}")
    for msg in state["errors"]:
        print(f"OP FAILED {msg}")
    print(f"workload {args.workload}: {state['attempted']} attempted, "
          f"{state['failed']} failed, {rounds} rounds, correct={correct}")
    names = ALIASES[args.workload]
    for k, (v, u) in end_to_end.items():
        print(f"  {k:<14} {v:14.6g} {u:<5} {names.get(k, '')}")
    print(json.dumps({"correct": correct, "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
