"""Timings of the numerical hot paths.

Times the kernels and actions a study step runs: the numpy CSR matvec
reference ``csr_matvec_numpy`` beside the scipy product
``SparseOperator.matvec`` that the phi actions call, counter-based normal
blocks (``normal_block``), a truncated-Taylor phi0 action, and one full
SETDM1 step (one fused action).

    python benchmarks/kernel_bench.py [--repeats N] [--nx NX]

A second table times one fused SETDM1 action on the study operators (the
Darcy-streak upwind FV generator of the ``streaks`` workload and the P1-FEM
generator of the linear study, both on the presets' 1/32 grid) along both
routes of the phi-action core, the truncated-Taylor action and
uniformization, with the sparse products each one takes.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from setd import kernels, krylov
from setd.grid import build_grid
from setd.harness import advection_study, build_problem, linear_additive_study
from setd.integrators import ProblemDef, Scheme, SchemeConfig, setdm1_step
from setd.krylov import KrylovConfig, phi0_action
from setd.noise import NoiseSpec, make_path, sample_increment
from setd.operators import assemble_fem, assemble_fv
from setd.sparse import SparseOperator


def _time(fn, repeats):
    """Best per-call seconds over ``repeats`` batches (auto-sized batches)."""
    fn()  # warmup; builds the operator's cached forms on first use
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    inner = max(1, int(0.05 / max(once, 1e-9)))
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:9.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:9.2f} ms"
    return f"{seconds:9.2f} s "


def build_cases(nx):
    grid = build_grid(nx, nx, 1.0, 1.0)
    fem = assemble_fem(grid, 1.0, c0=0.5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(fem.ndof)
    A = fem.A

    spec = NoiseSpec.exponential(n1=64, n2=64)
    key0, key1 = kernels.derive_key(12345, 0)

    fv = assemble_fv(grid, (1e-2, 1e-3), c0=0.0)
    problem = ProblemDef(discrete=fv, noise=NoiseSpec.powerlaw(n1=64, n2=64),
                         X0=np.zeros(fv.ndof), drift=lambda u: -u / (np.abs(u) + 1.0),
                         dispersion=lambda u: u)
    cfg = SchemeConfig(Scheme.SETDM1, dt=0.1, steps=1)
    path = make_path(problem.noise, seed=1, realization=0, finest_dt=0.1, steps=1)
    dW = sample_increment(path, grid, 0, where="cells")
    state = 0.1 * rng.standard_normal(fv.ndof)

    return [
        (f"csr_matvec_numpy ({fem.ndof} dof, {A.nnz} nnz)",
         lambda: kernels.csr_matvec_numpy(A.indptr, A.indices, A.data, x)),
        (f"SparseOperator.matvec ({fem.ndof} dof, {A.nnz} nnz)",
         lambda: A.matvec(x)),
        ("normal_block 65x65",
         lambda: kernels.normal_block(key0, key1, spec.n1 + 1, spec.n2 + 1, 3, 0)),
        ("normal_block 101x101 (advection lattice)",
         lambda: kernels.normal_block(key0, key1, 101, 101, 3, 0)),
        (f"phi0_action, Taylor route ({fem.ndof} dof, dt=0.1)",
         lambda: phi0_action(A, x, 0.1)),
        (f"setdm1_step ({fv.ndof} cells, multiplicative)",
         lambda: setdm1_step(problem, cfg, state, dW)),
    ]


def build_route_cases():
    """(name, taylor, uniformized) fused actions on the study operators."""
    cfg = KrylovConfig()
    rng = np.random.default_rng(1)
    cases = []
    for label, study, dts in (
            ("Darcy-streak FV", advection_study(heterogeneous=True), (10, 160, 1600)),
            ("P1-FEM", linear_additive_study(), (160, 1280))):
        A = build_problem(study).discrete.A
        form = A.uniformized()
        u, f = rng.standard_normal(A.n_rows), rng.standard_normal(A.n_rows)
        for d in dts:
            args = (u, f, 1.0 / d, cfg)
            cases.append((
                f"fused action, {label} ({A.n_rows} dof, dt=1/{d})",
                lambda A=A, args=args: krylov._taylor_action(A, *args),
                lambda A=A, form=form, args=args: krylov._uniformized_action(A, form, *args)))
    return cases


def _products(fn):
    """Sparse products one call of ``fn`` takes."""
    count = 0
    product = SparseOperator.matvec

    def counted(self, x):
        nonlocal count
        count += 1
        return product(self, x)

    SparseOperator.matvec = counted
    try:
        fn()
    finally:
        SparseOperator.matvec = product
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing batches per case (default 5)")
    parser.add_argument("--nx", type=int, default=64,
                        help="grid cells per side for the operator cases (default 64)")
    args = parser.parse_args(argv)

    cases = build_cases(args.nx)
    width = max(len(name) for name, _ in cases)
    header = f"{'case':<{width}}  {'time':>12}"
    print(header)
    print("-" * len(header))
    for name, fn in cases:
        print(f"{name:<{width}}  {_fmt(_time(fn, args.repeats))}")

    routes = build_route_cases()
    width = max(len(name) for name, _, _ in routes)
    header = (f"\n{'phi-action route':<{width}}  {'Taylor':>12} {'products':>8}"
              f"  {'uniformized':>12} {'products':>8}   ratio")
    print(header)
    print("-" * (len(header) - 1))
    for name, taylor, uniformized in routes:
        tt, tu = _time(taylor, args.repeats), _time(uniformized, args.repeats)
        print(f"{name:<{width}}  {_fmt(tt)} {_products(taylor):8d}"
              f"  {_fmt(tu)} {_products(uniformized):8d}  {tu / tt:5.2f}x")


if __name__ == "__main__":
    main()
