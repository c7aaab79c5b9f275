"""Command-line entry points.

Three subcommands share the INI configuration format from `setd.config`:

    setd converge --config study.ini --out results/
    setd solve    --config study.ini --out traj.csv
    setd darcy    --config darcy.ini --out darcy.csv

`converge` runs the full Monte-Carlo convergence study and writes
report.csv / report.json. `solve` integrates a single trajectory and
writes it as (index, x, y, value) rows. `darcy` solves the pressure
system on the heterogeneous study's grid and writes cell pressures plus
face velocities.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

import numpy as np

from . import config as cfgmod
from .darcy import divergence, flux_balance, solve_streaks
from .errors import SETDError
from .grid import build_grid, site_axes, site_index, site_xy
from .harness import advection_study, build_problem, run_study
from .integrators import SchemeConfig, run
from .noise import make_path
from .sparse import save_matrix_market


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to the INI configuration")
    parser.add_argument("--seed", type=int, default=None, help="override study seed")


def _study_config(args, extra_overrides=None):
    sections = cfgmod.read_config(args.config)
    overrides = dict(extra_overrides or {})
    if args.seed is not None:
        overrides["seed"] = args.seed
    return sections, cfgmod.study_from_config(sections, overrides)


def _write_trajectory_csv(path, xy, values):
    x, y = xy
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "y", "value"])
        for k in range(len(values)):
            writer.writerow([k, repr(float(x[k])), repr(float(y[k])), repr(float(values[k]))])


def cmd_converge(args):
    overrides = {}
    if args.realizations is not None:
        overrides["realizations"] = args.realizations
    if args.threads is not None:
        overrides["threads"] = args.threads
    _, study = _study_config(args, overrides)

    t0 = time.perf_counter()
    report = run_study(study)
    elapsed = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "report.csv")
    json_path = os.path.join(args.out, "report.json")
    report.to_csv(csv_path)
    report.to_json(json_path)

    print(f"study '{study.problem}' finished in {elapsed:.1f} s "
          f"({study.realizations} realizations, {len(study.dt_list)} dt levels)")
    for scheme, order in sorted(report.fitted_orders.items()):
        shown = "n/a (degenerate fit)" if order is None else f"{order:.4f}"
        print(f"  fitted order [{scheme}]: {shown} (expected ~{study.expected_order:g})")
    flagged = sum(row.flagged_count for row in report.rows)
    if flagged:
        print(f"  flagged (diverged) cells: {flagged}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_solve(args):
    sections, study = _study_config(args)
    solve = cfgmod.solve_from_config(sections, study)
    if args.realization is not None:
        solve["realization"] = args.realization

    problem = build_problem(study)
    if args.export_operator:
        save_matrix_market(problem.discrete.A, args.export_operator,
                           comment=f"generator A_h, problem={study.problem}")
        print(f"wrote {args.export_operator}")

    dt = solve["dt"]
    coarsening = int(dt / study.finest_dt)
    steps = int(study.T / dt)
    path = make_path(study.noise, study.seed, solve["realization"],
                     float(study.finest_dt), study.fine_steps)
    scheme_cfg = SchemeConfig(scheme=solve["scheme"], dt=float(dt), steps=steps)
    traj = run(problem, scheme_cfg, path, coarsening=coarsening,
               snapshot_every=solve["snapshot_every"])

    xy = site_xy(problem.discrete.grid, problem.discrete.where)
    _write_trajectory_csv(args.out, xy, traj.final)
    print(f"wrote {args.out} ({solve['scheme'].value}, dt={dt}, "
          f"realization {solve['realization']})")
    stem, ext = os.path.splitext(args.out)
    for step, state in traj.snapshots:
        snap_path = f"{stem}_step{step:06d}{ext or '.csv'}"
        _write_trajectory_csv(snap_path, xy, state)
        print(f"wrote {snap_path}")
    return 0


def cmd_darcy(args):
    sections = cfgmod.read_config(args.config)
    study = advection_study(heterogeneous=True, **cfgmod.grid_from_config(sections))
    nx, ny = study.nx, study.ny
    grid = build_grid(nx, ny, study.L1, study.L2)
    p, vel = solve_streaks(grid, **cfgmod.darcy_from_config(sections))
    div = divergence(grid, vel)
    inflow, outflow = flux_balance(grid, vel)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "i", "j", "x", "y", "value"])
        xn, yn = site_axes(grid, "nodes")
        xc, yc = site_axes(grid, "cells")
        P = p[site_index(grid, "cells")]
        rows = [("pressure", i, j, xc[i], yc[j], P[i, j])  # flat cell order, x fastest
                for j, i in np.ndindex(ny, nx)]
        for kind, xs, ys, q in (("qx", xn, yc, vel.qx), ("qy", xc, yn, vel.qy)):
            rows += [(kind, i, j, xs[i], ys[j], q[i, j]) for i, j in np.ndindex(q.shape)]
        for kind, i, j, *values in rows:  # x, y, value
            writer.writerow([kind, i, j, *(repr(float(v)) for v in values)])

    print(f"wrote {args.out}")
    print(f"  max |divergence| = {abs(div).max():.3e}")
    print(f"  inflow {inflow:.12g}, outflow {outflow:.12g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="setd",
        description="Stochastic exponential time-differencing solvers and studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("converge", help="run a convergence study, write report.csv/json")
    _add_common(p_conv)
    p_conv.add_argument("--out", default=".", help="output directory (default: cwd)")
    p_conv.add_argument("--realizations", type=int, default=None,
                        help="override realization count")
    p_conv.add_argument("--threads", type=int, default=None, help="worker processes (default: usable CPUs)")
    p_conv.set_defaults(func=cmd_converge)

    p_solve = sub.add_parser("solve", help="integrate a single trajectory to CSV")
    _add_common(p_solve)
    p_solve.add_argument("--out", required=True, help="trajectory CSV path")
    p_solve.add_argument("--realization", type=int, default=None,
                         help="override realization index")
    p_solve.add_argument("--export-operator", default=None, metavar="PATH",
                         help="also write the generator matrix in Matrix Market format")
    p_solve.set_defaults(func=cmd_solve)

    p_darcy = sub.add_parser("darcy", help="solve the pressure system to CSV")
    p_darcy.add_argument("--config", required=True, help="path to the INI configuration")
    p_darcy.add_argument("--out", required=True, help="output CSV path")
    p_darcy.set_defaults(func=cmd_darcy)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SETDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
