"""Reference figures kept out of the workloads; each is measured once.

    python3 bench/figures.py criterion07   # oracle: trace stage vs estimate stage
    python3 bench/figures.py criterion08   # collapse: sweep stage vs fit stage
    python3 bench/figures.py sweep         # critspec sweep, --threads 1 vs 2

criterion07 and criterion08 repeat the acceptance tests' inputs exactly
(tests/test_acceptance.py) and time their stages apart.  sweep runs one
fixed 5 d x 7 T x 8 tau Model B sweep through the CLI with one process
and with a pool of two, the ProcessPoolExecutor question in ROADMAP
item 2.  Each prints one JSON object; bench/README.md lists the results.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

from critspec import cli  # noqa: E402
from critspec.collapse import SweepGrid, classical_collapse  # noqa: E402
from critspec.filters import GeometryConfig, PulseSequence  # noqa: E402
from critspec.models import ModelA, ModelB  # noqa: E402
from critspec.noise import decoherence_curve  # noqa: E402
from critspec.oracle import (LatticeSpec, mode_sum_phi_squared,  # noqa: E402
                             monte_carlo_phi_squared, simulate_field_trace)


def criterion07():
    lat, geom = LatticeSpec(L=64), GeometryConfig(d=2.0)
    tau, dt, seed, n_traces = 4.0, 0.005, 20260816, 1200
    models = {"relaxational far": ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0),
              "relaxational critical": ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0),
              "conserved far": ModelB(J=1.0, sigma_s=1.0, xi=1.0, T=1.0)}
    out = {"traces_s": 0.0, "estimate_s": 0.0, "z": {}}
    for name, model in models.items():
        t0 = time.perf_counter()
        traces = [simulate_field_trace(model, geom, lat, tau, dt, seed, trace_index=i)
                  for i in range(n_traces)]
        t1 = time.perf_counter()
        for seq_name, seq in (("ramsey", PulseSequence.ramsey(tau)),
                              ("hahn", PulseSequence.hahn(tau))):
            mc, err = monte_carlo_phi_squared(traces, seq)
            out["z"][f"{name}/{seq_name}"] = (mc - mode_sum_phi_squared(model, geom, lat, seq)) / err
        out["traces_s"] += t1 - t0
        out["estimate_s"] += time.perf_counter() - t1
    return out


def criterion08():
    out = {}
    for kind, taus in (("A", np.geomspace(3.0, 300.0, 8)), ("B", np.geomspace(10.0, 1e4, 8))):
        t0 = time.perf_counter()
        rows = []
        for d in np.geomspace(1.0, 10.0, 5):
            for T in (0.80, 0.88, 0.94, 1.06, 1.12, 1.20, 1.30):
                xi = 1.0 / math.sqrt(abs(T - 1.0))
                m = (ModelA(gamma0=1.0, J=1.0, xi=xi, T=T) if kind == "A"
                     else ModelB(J=1.0, sigma_s=1.0, xi=xi, T=T))
                c = decoherence_curve(taus, PulseSequence.ramsey(1.0), m,
                                      GeometryConfig(d=d), tol_omega=1e-6)
                rows += [(d, t, T, p) for t, p in zip(c.taus, c.phi_sq)]
        d, t, T, p = map(np.array, zip(*rows))
        grid = SweepGrid(d=d, tau=t, T=T, phi_sq=p)
        t1 = time.perf_counter()
        res = classical_collapse(grid, seed=0)
        t2 = time.perf_counter()
        out[f"model_{kind}"] = {"sweep_s": t1 - t0, "fit_s": t2 - t1, "nu": res.nu,
                                "eta": res.eta, "z": res.z, "T_c": res.critical_value}
    return out


def sweep():
    cfg = {"model": {"kind": "model_b", "xi": 1.0, "T": 1.0}, "geometry": {"d": 1.0},
           "sweep": {"d": {"log_range": [1.0, 10.0, 5]},
                     "tau": {"log_range": [10.0, 1e4, 8]},
                     "T": {"values": [0.80, 0.88, 0.94, 1.06, 1.12, 1.20, 1.30]}}}
    (BENCH / "out").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="figures-", dir=BENCH / "out")
    try:
        path = os.path.join(work, "sweep.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = {}
        for threads in (1, 2):
            t0 = time.perf_counter()
            rc = cli.main(["sweep", "--config", path, "--threads", str(threads),
                           "--out", os.path.join(work, f"sweep{threads}.csv")])
            out[f"threads_{threads}_s"] = time.perf_counter() - t0
            out[f"threads_{threads}_rc"] = rc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


if __name__ == "__main__":
    figures = {"criterion07": criterion07, "criterion08": criterion08, "sweep": sweep}
    if len(sys.argv) != 2 or sys.argv[1] not in figures:
        sys.exit(f"usage: figures.py {{{'|'.join(figures)}}}")
    print(json.dumps({"figure": sys.argv[1], "nproc": os.cpu_count(),
                      **figures[sys.argv[1]]()}))
