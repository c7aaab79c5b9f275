"""Study benchmark for setd: the paper's three workloads, end to end.

    python3 studybench/run.py --workload additive-fine --seed 1 --seconds 30 --trace 0

One run is a closed batch job in a single process. It runs the whole
convergence study with ``setd.harness.run_study`` in rounds of identical
work -- same config, same seed, study ``threads = 1`` -- for as long as the
next round still fits in ``--seconds`` (at least one round), and times
several builds of the workload's problem before each round (``setup_s``). Every cell of
every round is checked (see checks.py and the README), and the last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (in (scheme, dt, realization) cells) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
rounds of the study wall time and CPU time, the median set-up time, and
the peak resident memory. With ``--trace 1`` the same rounds run with
spans recorded around setd's public functions (tracing.py) and the
metrics are per-layer, per round. A run record (machine, checks, rounds)
and, when tracing, the first round's span table are written under
``.studybench/``.

The benchmark imports setd from ``src/`` of the checkout it sits in and
exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
# Problem builds timed before every round, so that setup_s samples the
# machine over the whole run as study_s does, not over its first 50 ms.
SETUP_REPEATS = 8
ORDER_BAND_LINEAR = (0.75, 1.0)      # acceptance criterion 3
ORDER_BAND_ADVECTION = (0.4, 0.75)   # acceptance criterion 4

# The paper's three workloads on the shipped presets, grid 1/32. The
# horizon T and the realization count are the benchmark's: they size one
# round to about 5 s on a 2-core machine, so that a run's median is taken
# over several rounds.
WORKLOADS = {
    "additive-fine": dict(
        preset="linear", T=Fraction(1, 16), realizations=2,
        dt_list=tuple(Fraction(1, d) for d in (160, 320, 640, 1280)),
        finest_dt=Fraction(1, 1280)),
    "streaks": dict(preset="advection", heterogeneous=True, T=Fraction(1, 10),
                    realizations=1),
    "homogeneous": dict(preset="advection", heterogeneous=False, T=Fraction(2, 5),
                        realizations=2),
}


def load_setd():
    """Import setd from this checkout's src/ or return None."""
    src = ROOT / "src"
    if not (src / "setd" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import setd
    import setd.darcy
    import setd.errors
    import setd.harness
    import setd.integrators
    import setd.kernels
    import setd.noise
    import setd.sparse
    if Path(setd.__file__).resolve().parent != (src / "setd").resolve():
        return None
    return setd


def study_config(setd, workload, seed):
    w = WORKLOADS[workload]
    if w["preset"] == "linear":
        return setd.harness.linear_additive_study(
            nx=32, realizations=w["realizations"], seed=seed, threads=1, T=w["T"],
            dt_list=w["dt_list"], finest_dt=w["finest_dt"])
    return setd.harness.advection_study(
        heterogeneous=w["heterogeneous"], nx=32, realizations=w["realizations"],
        seed=seed, threads=1, T=w["T"])


def machine_record():
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class CellCapture:
    """Keeps the final field of one (scheme, dt, realization) cell of the
    first round, by wrapping the name through which the harness runs cells."""

    def __init__(self, harness, scheme, dt, realization):
        self.harness = harness
        self.key = (scheme, float(dt), realization)
        self.final = None
        self.original = harness.run

    def install(self):
        original = self.original

        def run(problem, config, path, *args, **kwargs):
            out = original(problem, config, path, *args, **kwargs)
            if self.final is None and (config.scheme.value, config.dt,
                                       path.realization) == self.key:
                self.final = out.final.copy()
            return out

        self.harness.run = run

    def uninstall(self):
        self.harness.run = self.original


def time_setup(setd, cfg, times):
    """Build the problem SETUP_REPEATS times, appending each wall time."""
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        problem = setd.harness.build_problem(cfg)
        times.append(time.perf_counter() - t0)
    return problem


def run_rounds(setd, cfg, seconds, tracer, setup_times):
    """Whole studies, while the next one still fits in ``seconds``, each
    after SETUP_REPEATS timed problem builds."""
    rounds = []
    begin = time.perf_counter()
    while True:
        time_setup(setd, cfg, setup_times)
        mark = tracer.mark() if tracer else None
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        report, error = None, None
        try:
            report = setd.harness.run_study(cfg)
        except setd.errors.SETDError as exc:
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        rounds.append({"wall_s": t1 - t0, "cpu_s": cpu_seconds() - cpu0,
                       "report": report, "error": error, "mark": mark,
                       "end_mark": tracer.mark() if tracer else None})
        typical = statistics.median(r["wall_s"] for r in rounds)
        if t1 - begin + typical > seconds:
            return rounds


def row_signature(report):
    return [(r.scheme, str(r.dt), r.rms_error.hex(), r.realizations, r.flagged_count)
            for r in report.rows]


def check_linear(cfg, report):
    """Every cell against the mode-sum law; orders against criterion 3."""
    law = checks.mode_sum_law(cfg.dt_list, cfg.T, nx=cfg.nx)
    failed, detail = 0, []
    for scheme in (s.value for s in cfg.schemes):
        rows = [r for r in report.rows if r.scheme == scheme]
        ms, var = law[scheme]
        lo, hi = checks.law_band(ms, var, cfg.realizations)
        for k, row in enumerate(rows):
            ok = bool(lo[k] <= row.rms_error <= hi[k])
            failed += row.flagged_count if ok else cfg.realizations
            detail.append({"scheme": scheme, "dt": str(row.dt), "rms": row.rms_error,
                           "law": float(np.sqrt(ms[k])), "lo": float(lo[k]),
                           "hi": float(hi[k]), "ok": ok})
    return failed, {"law": detail}


def check_dense_cell(setd, cfg, problem, final):
    """The captured SETDM1 cell at the third dt, realization 0, against
    dense Pade propagators on the same increments."""
    dt = cfg.dt_list[DENSE_LEVEL]
    coarsening = int(dt / cfg.finest_dt)
    steps = int(cfg.T / dt)
    path = setd.noise.make_path(cfg.noise, cfg.seed, 0, float(cfg.finest_dt), cfg.fine_steps)
    grid = problem.discrete.grid
    increments = [setd.noise.sample_increment(path, grid, m, coarsening, where="cells")
                  for m in range(steps)]
    E, P = checks.dense_propagators(problem.discrete.A.dense(), float(dt))
    want = checks.dense_setdm1(E, P, float(dt), problem.X0, increments,
                               problem.discrete.dirichlet_mask,
                               problem.discrete.dirichlet_values,
                               drift=lambda u: -u / (np.abs(u) + 1.0),
                               dispersion=lambda u: u)
    mismatch = checks.field_mismatch(final, want) if final is not None else float("inf")
    return mismatch <= DENSE_TOL, {"scheme": "setdm1", "dt": str(dt), "realization": 0,
                                   "mismatch": mismatch, "tol": DENSE_TOL}


# Krylov actions run to an absolute tolerance of 1e-6 each; on these
# fields the dense and Krylov cells agree to 5e-11 or better (seeds 1-10).
DENSE_TOL = 1e-6
DENSE_LEVEL = 2      # dt = 1/40 on the advection presets


def check_darcy(setd, cfg, grid):
    """Face velocities of the study's own Darcy solve."""
    seen = []
    original = setd.darcy.solve_darcy

    def keep(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    setd.darcy.solve_darcy = keep
    try:
        setd.harness.build_problem(cfg)
    finally:
        setd.darcy.solve_darcy = original
    _, faces = seen[0]
    div, balance = checks.darcy_balance(faces.qx, faces.qy, grid.dx, grid.dy)
    ok = div <= 1e-10 and balance <= 1e-10
    return ok, {"divergence_over_qmax": div, "balance": balance, "ok": ok}


def check_advection(setd, cfg, report, problem, final, heterogeneous):
    cells = len(cfg.schemes) * len(cfg.dt_list) * cfg.realizations
    failed = sum(r.flagged_count for r in report.rows)
    ok, dense = check_dense_cell(setd, cfg, problem, final)
    detail = {"dense_cell": dense}
    target = [r for r in report.rows
              if r.scheme == "setdm1" and r.dt == cfg.dt_list[DENSE_LEVEL]]
    if not ok and target and target[0].flagged_count == 0:
        failed += 1
    if heterogeneous:
        darcy_ok, detail["darcy"] = check_darcy(setd, cfg, problem.discrete.grid)
        if not darcy_ok:
            failed = cells
    return failed, detail


def order_diagnostic(cfg, report, band):
    """Fitted orders against the criterion's band. Recorded, not gated: at
    the realization counts a run affords, the fitted order's Monte-Carlo
    spread is too wide for the band to hold on every seed (see README)."""
    out = {}
    for scheme in (s.value for s in cfg.schemes):
        rows = [r for r in report.rows if r.scheme == scheme]
        order = checks.fitted_order([r.dt for r in rows], [r.rms_error for r in rows])
        out[scheme] = {"order": order, "band": list(band),
                       "in_band": bool(checks.in_band(order, band))}
    return out


def account(setd, cfg, workload, rounds, problem, final):
    """(attempted, failed, check record) over every round."""
    cells = len(cfg.schemes) * len(cfg.dt_list) * cfg.realizations
    attempted = cells * len(rounds)
    first = next((r["report"] for r in rounds if r["report"] is not None), None)
    record = {"cells_per_round": cells, "errors": [r["error"] for r in rounds if r["error"]]}
    if first is None:
        return attempted, attempted, record
    w = WORKLOADS[workload]
    if w["preset"] == "linear":
        failed_first, detail = check_linear(cfg, first)
        band = ORDER_BAND_LINEAR
    else:
        failed_first, detail = check_advection(setd, cfg, first, problem, final,
                                               w["heterogeneous"])
        band = ORDER_BAND_ADVECTION
    detail["orders"] = order_diagnostic(cfg, first, band)
    record.update(detail)
    signature = row_signature(first)
    failed, mismatched = 0, 0
    for r in rounds:
        if r["report"] is None:
            failed += cells
        elif row_signature(r["report"]) != signature:
            failed += cells
            mismatched += 1
        else:
            failed += failed_first
    record["rounds_differing_from_first"] = mismatched
    return attempted, failed, record


def end_to_end(rounds, setup_times, peak_rss_mb):
    return {
        "study_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, rounds):
    """Per-round layer metrics: counts from the first round (every round
    repeats the same work), times as medians over the rounds."""
    per_round, extras = [], []
    for r in rounds:
        lo, c0 = r["mark"]
        hi, c1 = r["end_mark"]
        counts = {k: v - c0.get(k, 0) for k, v in c1.items()}
        metrics, extra = layer_metrics(tracer.by_name(lo, hi), counts)
        per_round.append(metrics)
        extras.append(extra)
    out = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_round)
        out[name] = (value, unit)
    out["trace.study_s"] = (statistics.median(r["wall_s"] for r in rounds), "s")
    out["trace.spans"] = (rounds[0]["end_mark"][0] - rounds[0]["mark"][0], "count")
    counts_repeat = all(
        all(m[k][0] == per_round[0][k][0] for k, (_, u) in per_round[0].items() if u != "s")
        for m in per_round)
    extra = {k: statistics.median(e[k] for e in extras) for k in extras[0]}
    return out, extra, counts_repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setd = load_setd()
    if setd is None:
        print(f"studybench: no setd package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cfg = study_config(setd, args.workload, args.seed)
    setup_times = []
    problem = time_setup(setd, cfg, setup_times)

    capture = CellCapture(setd.harness, "setdm1", cfg.dt_list[DENSE_LEVEL], 0)
    capture.install()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(setd)
    try:
        rounds = run_rounds(setd, cfg, args.seconds, tracer, setup_times)
    finally:
        if tracer:
            tracer.uninstall()
        capture.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        attempted, failed, record = account(setd, cfg, args.workload, rounds, problem,
                                            capture.final)
    except Exception as exc:  # a check that cannot run proves nothing
        import traceback
        traceback.print_exc()
        attempted = len(rounds) * len(cfg.schemes) * len(cfg.dt_list) * cfg.realizations
        failed, correct = attempted, False
        record = {"check_error": f"{type(exc).__name__}: {exc}"}

    out_dir = ROOT / ".studybench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {}
    if tracer:
        metrics, extra, counts_repeat = per_layer(tracer, rounds)
        record["trace_counts_repeat_across_rounds"] = counts_repeat
        # every round repeats the first, so its spans stand for the run
        tracer.save(out_dir / f"{stem}.spans.npz", rounds[0]["mark"][0],
                    rounds[0]["end_mark"][0])
    else:
        metrics = end_to_end(rounds, setup_times, peak_rss_mb)

    machine = machine_record()
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "study": {"T": str(cfg.T), "realizations": cfg.realizations, "nx": cfg.nx,
                  "dt_list": [str(d) for d in cfg.dt_list], "finest_dt": str(cfg.finest_dt),
                  "schemes": [s.value for s in cfg.schemes]},
        "rounds": [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "error": r["error"]}
                   for r in rounds],
        "setup_s": setup_times, "peak_rss_mb": peak_rss_mb,
        "metrics": {k: v for k, (v, _) in metrics.items()}, "layer_times": extra,
        "attempted": attempted, "failed": failed, "correct": correct,
    })
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} cells attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"  ({name} = {value:.6g} s, run record only)")
    for scheme, o in record.get("orders", {}).items():
        print(f"  order {scheme} = {o['order']:.4f} (band {o['band']}, "
              f"{'in' if o['in_band'] else 'outside'}; recorded, not gated)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
