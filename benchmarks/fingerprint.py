"""SHA-256 digests of what setd computes, one line per output: each study
preset's operator arrays, FEM and FV operators (advection, Dirichlet values,
c0) on small and odd grids, the Darcy-streaks pressure and face velocities,
one noise path's increments at nodes and at cells and its mode increments,
the alias-class maps and class amplitudes of that path's lattices and of
the presets' lattices, the exact linear reference field over every fine
step of that path, unbound and bound to the nodes, the report rows of small linear and
advection studies, and the final states of every scheme run at two step
sizes on a small FV and a small FEM problem with Dirichlet values (report
rows hold only RMS errors, so they cannot see a pinned or masked DOF). A
refactor that must keep every output's bytes diffs this script's output at
its parent and at the change:

    python benchmarks/fingerprint.py > after.txt
"""

import hashlib
from fractions import Fraction

import numpy as np

from setd import darcy
from setd.grid import BoundaryTag, build_grid
from setd.harness import advection_study, build_problem, linear_additive_study, run_study
from setd.integrators import ProblemDef, Scheme, SchemeConfig, run
from setd.noise import NoiseSpec, alias_classes, make_path, modes_at_sites, sample_increment
from setd.operators import FaceVelocities, assemble_fem, assemble_fv
from setd.reference import evolve_exact, linear_state


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def operator(d):
    return digest(*(arr for op in (d.A, d.K) for arr in (op.indptr, op.indices, op.data)),
                  d.mass, d.dirichlet_mask, d.dirichlet_values)


def lines():
    for cfg in (linear_additive_study(), advection_study(), advection_study(True)):
        yield f"preset {cfg.problem}", operator(build_problem(cfg).discrete)
    edges = {BoundaryTag.LEFT: 1.0, BoundaryTag.TOP: -0.5}
    for nx, ny in ((1, 1), (1, 4), (5, 1), (6, 9), (32, 32)):
        grid = build_grid(nx, ny, 1.0, 2.0)
        yield f"fem {nx}x{ny}", operator(assemble_fem(grid, [[1.0, 0.2], [0.2, 0.5]], (3.0, -1.0),
                                                      edges, c0=0.5))
        q = FaceVelocities.constant(grid, -2.0, 1.5)
        yield f"fv {nx}x{ny}", operator(assemble_fv(grid, (1.0, 0.1), q, edges, c0=0.5))
    p, vel = darcy.solve_streaks(build_grid(32, 32, 1.0, 1.0), contrast=100.0)
    yield "darcy streaks", digest(p, vel.qx, vel.qy)
    grid = build_grid(7, 5, 1.0, 1.0)
    path = make_path(NoiseSpec.exponential(n1=9, n2=6), 1, 0, 0.01, 4)
    for where in ("nodes", "cells"):
        yield f"noise {where}", digest(*(sample_increment(path, grid, m, 2, where) for m in (0, 1)))
    yield "noise modes", digest(*(path.brownian_increment_modes(m, c)
                                  for c in (1, 2) for m in range(4 // c)))
    preset = build_grid(32, 32, 1.0, 1.0)
    lattices = ((path.spec, grid, "nodes"), (path.spec, grid, "cells"),
                (linear_additive_study().noise, preset, "nodes"),
                (advection_study().noise, preset, "cells"))
    yield "noise classes", digest(*(arr for lattice in lattices for arr in alias_classes(*lattice)))
    fields = []
    for bound in (path, make_path(path.spec, 1, 0, 0.01, 4, sites=(grid, "nodes"))):
        state = evolve_exact(linear_state(path.spec, 1.0, 0.5), bound)
        fields += [modes_at_sites(state.c, grid, where) for where in ("nodes", "cells")]
    yield "reference linear", digest(*fields)
    short = tuple(Fraction(1, n) for n in (10, 20))
    for cfg in (linear_additive_study(nx=8, realizations=2, dt_list=short),
                advection_study(True, nx=8, realizations=1, dt_list=short, seed=2)):
        yield f"study {cfg.problem}", digest([(r.scheme, str(r.dt), r.rms_error.hex(),
                                               r.realizations, r.flagged_count)
                                              for r in run_study(cfg).rows])
    grid = build_grid(6, 6, 1.0, 1.0)
    spec = NoiseSpec.powerlaw(n1=8, n2=8)
    fv = assemble_fv(grid, (1e-2, 1e-3), FaceVelocities.constant(grid, 1.0, 0.0),
                     {BoundaryTag.LEFT: 1.0})
    fem = assemble_fem(grid, 1.0, dirichlet=edges, c0=0.5)
    finals = []
    for problem in (ProblemDef(fv, spec, np.zeros(fv.ndof), drift=lambda u: -u / (np.abs(u) + 1.0),
                               dispersion=lambda u: u),
                    ProblemDef(fem, spec, np.zeros(fem.ndof), drift=lambda u: -0.3 * u)):
        path = make_path(spec, 1, 0, 0.125, 8)
        finals += [run(problem, SchemeConfig(scheme, 0.125 * c, 8 // c), path).final
                   for scheme in Scheme for c in (1, 2)]
    yield "run finals", digest(*finals)


def main():
    for label, value in lines():
        print(f"{label:32s} {value}")


if __name__ == "__main__":
    main()
