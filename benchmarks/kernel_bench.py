"""Timings of the numerical hot paths.

Times the kernels and actions a study step runs: the sparse product
``SparseOperator.matvec``, one counter-based normal block (``normal_block``:
one compiled numpy Philox4x64-10 draw, on the 65x65 mode lattice of the
linear study), one fine-step site field on each preset lattice of the 1/32
grid (``sample_increment`` on a path without ``sites``: the lattice's
alias-class block, 33x33 at the linear study's nodes and 32x32 at the
advection studies' cells, and its projection), one realization's exact
reference on the linear preset at T = 1/16 (``evolve_exact`` over 80 fine
steps of 1/1280 on a path bound to the 1/32 nodes, its class draws and
stored fields included), and one full SETDM0 step (one phi0 action) and
one full SETDM1 step (one fused action) on the same state and increment.

    python benchmarks/kernel_bench.py [--repeats N] [--nx NX]

A second table times one product with the uniformized form P of each study
generator (the P1-FEM generator of the linear study and the upwind FV
generators of the homogeneous and Darcy-streak advection studies, all on
the presets' 1/32 grid) three ways: scipy's ``csr @ x``, and the two
accumulate kernels ``out += P x`` an operator's product form may bind
(``sparse._csr_kernel``: scipy's compiled ``csr_matvec``;
``sparse._dia_kernel``: its ``dia_matvec`` on P stored by diagonals), both
without scipy's dispatch. Every study P is a 5-diagonal stencil and takes
the diagonal kernel.

A third table times one fused SETDM1 action (``fused_action``), per action
and per sparse product, with the products it takes (``PhiResult.products``)
and its uniformization steps (``restarts_used + 1``): on the three study
generators at study step lengths, where every action is one step, and on
P1-FEM generators on the NX grid that no study builds (a consistent-mass
shift c0 = 0.5, and advection with velocity (1, 0.5) and (50, 20)), whose
large dt(beta - lam) takes several steps.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from setd import kernels
from setd.grid import build_grid
from setd.harness import advection_study, build_problem, linear_additive_study
from setd.integrators import ProblemDef, Scheme, SchemeConfig, setdm0_step, setdm1_step
from setd.krylov import fused_action
from setd.noise import NoiseSpec, alias_classes, make_path, sample_increment
from setd.operators import assemble_fem, assemble_fv
from setd.reference import evolve_exact, linear_state
from setd.sparse import _csr_kernel, _dia_kernel


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
    cfg0 = SchemeConfig(Scheme.SETDM0, dt=0.1, steps=1)
    cfg1 = SchemeConfig(Scheme.SETDM1, dt=0.1, steps=1)
    path = make_path(problem.noise, seed=1, realization=0, finest_dt=0.1, steps=1)
    dW = sample_increment(path, grid, 0, where="cells")
    state = 0.1 * rng.standard_normal(fv.ndof)

    fields = []
    preset = build_grid(32, 32, 1.0, 1.0)
    for where, noise in (("nodes", spec), ("cells", NoiseSpec.powerlaw(n1=100, n2=100))):
        free = make_path(noise, seed=1, realization=0, finest_dt=1e-3, steps=4)
        classes = "x".join(map(str, alias_classes(noise, preset, where)[2].shape))
        fields.append((f"fine-step field, {where} 1/32 ({classes} classes)",
                       lambda free=free, where=where: sample_increment(free, preset, 3,
                                                                       where=where)))
    linear = linear_additive_study()
    reference = lambda: evolve_exact(
        linear_state(linear.noise), make_path(linear.noise, seed=1, realization=0,
                                              finest_dt=1 / 1280, steps=80, sites=(preset, "nodes")))

    return [
        (f"SparseOperator.matvec ({fem.ndof} dof, {A.nnz} nnz)",
         lambda: A.matvec(x)),
        ("normal_block 65x65",
         lambda: kernels.normal_block(key0, key1, spec.n1 + 1, spec.n2 + 1, 3, 0)),
        *fields,
        ("exact reference, linear preset, T = 1/16", reference),
        (f"setdm0_step ({fv.ndof} cells, multiplicative)",
         lambda: setdm0_step(problem, cfg0, state, dW)),
        (f"setdm1_step ({fv.ndof} cells, multiplicative)",
         lambda: setdm1_step(problem, cfg1, state, dW)),
    ]


def build_product_cases():
    """(name, [csr @ x, CSR kernel, diagonal kernel]) products with each
    study generator's P."""
    rng = np.random.default_rng(2)
    cases = []
    for label, study in (("P1-FEM", linear_additive_study()),
                         ("homogeneous FV", advection_study()),
                         ("Darcy-streak FV", advection_study(heterogeneous=True))):
        csr = build_problem(study).discrete.A.uniformized_form[0].to_scipy()
        x, out = rng.standard_normal(csr.shape[1]), np.zeros(csr.shape[0])
        cases.append((f"P of {label} ({csr.shape[0]} dof, {csr.nnz} nnz)",
                      [lambda csr=csr, x=x: csr @ x,
                       lambda kernel=_csr_kernel(csr), x=x, out=out: kernel(x, out),
                       lambda kernel=_dia_kernel(csr), x=x, out=out: kernel(x, out)]))
    return cases


def build_action_cases(nx):
    """(name, fused action) on the study generators and on P1-FEM
    generators off the studies' traffic."""
    grid = build_grid(nx, nx, 1.0, 1.0)
    operators = (
        ("Darcy-streak FV", build_problem(advection_study(heterogeneous=True)).discrete.A,
         (10, 160, 1600)),
        ("homogeneous FV", build_problem(advection_study()).discrete.A, (160,)),
        ("P1-FEM", build_problem(linear_additive_study()).discrete.A, (160, 1280)),
        ("P1 c0=0.5", assemble_fem(grid, 1.0, c0=0.5).A, (10, 160)),
        ("P1 advection (1, 0.5)", assemble_fem(grid, 1.0, velocity=(1.0, 0.5)).A, (160,)),
        ("P1 advection (50, 20)", assemble_fem(grid, 1.0, velocity=(50.0, 20.0)).A, (160,)))
    rng = np.random.default_rng(1)
    cases = []
    for label, A, dts in operators:
        u, f = rng.standard_normal(A.n_rows), rng.standard_normal(A.n_rows)
        for d in dts:
            cases.append((f"fused action, {label} ({A.n_rows} dof, dt=1/{d})",
                          lambda A=A, u=u, f=f, dt=1.0 / d: fused_action(A, u, f, dt)))
    return cases


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

    products = build_product_cases()
    width = max(len(name) for name, _ in products)
    header = (f"\n{'sparse product':<{width}}  {'csr @ x':>12}"
              f"  {'csr_matvec':>12}  {'dia_matvec':>12}")
    print(header)
    print("-" * (len(header) - 1))
    for name, fns in products:
        print(f"{name:<{width}}" + "".join(f"  {_fmt(_time(fn, args.repeats))}" for fn in fns))

    actions = build_action_cases(args.nx)
    width = max(len(name) for name, _ in actions)
    header = (f"\n{'phi action':<{width}}  {'time':>12}  {'per product':>12}"
              f" {'products':>8} {'steps':>6}")
    print(header)
    print("-" * (len(header) - 1))
    for name, action in actions:
        res = action()
        seconds = _time(action, args.repeats)
        print(f"{name:<{width}}  {_fmt(seconds)}  {_fmt(seconds / res.products)}"
              f" {res.products:8d} {res.restarts_used + 1:6d}")

if __name__ == "__main__":
    main()
