"""Every argument rule is stated once, in setd.errors.check_int and
check_real, and every entry point below calls it.

Each row is (entry point, argument, bad value). A value that is not an
integer where an integer is due, or not a finite number where a number is
due, raises InvalidArgumentError naming the argument; nothing truncates
1.7 to 1, parses "3", or lets a coarsening of 2.5 run as 2. The typed
errors that carry attributes survive pickling, as a worker process
returns them.
"""

import pickle

import numpy as np
import pytest

from setd import kernels
from setd.darcy import PermeabilityField, solve_pressure
from setd.errors import (DivergenceError, InvalidArgumentError, KrylovConvergenceError,
                         check_int, check_real)
from setd.grid import build_grid
from setd.integrators import ProblemDef, Scheme, SchemeConfig, run
from setd.noise import NoisePath, NoiseSpec, make_path, sample_increment
from setd.operators import FaceVelocities, assemble_fem
from setd.reference import evolve_exact, exact_linear_step, linear_state

SPEC = NoiseSpec.exponential(n1=2, n2=2)
FINEST_DT = 0.25
GRID = build_grid(4, 4, 1.0, 1.0)
PATH_ARGS = {"spec": SPEC, "seed": 0, "realization": 0, "finest_dt": FINEST_DT, "steps": 8}


def _path():
    return make_path(**PATH_ARGS)


def _problem():
    discrete = assemble_fem(GRID, 1.0)
    return ProblemDef(discrete=discrete, noise=SPEC, X0=np.zeros(discrete.ndof))


def _perm(**kwargs):
    return PermeabilityField(GRID, np.ones((GRID.nx, GRID.ny)), **kwargs)


# (entry point, argument named in the message, call that passes the bad value)
CASES = [
    # no silent truncation of integers, and no parsing of strings
    *[(f"{ctor.__name__}-{name}={value!r}", name,
       lambda ctor=ctor, name=name, value=value: ctor(**{**PATH_ARGS, name: value}))
      for ctor in (make_path, NoisePath)
      for name, value in (("seed", 1.7), ("seed", "3"), ("seed", None),
                          ("realization", 0.9), ("realization", "0"),
                          ("steps", 4.9), ("steps", "3"), ("finest_dt", "0.1"))],
    ("SchemeConfig-steps=True", "steps", lambda: SchemeConfig(Scheme.SETDM1, 0.25, True)),
    # the one lattice a path stores fields for is a (Grid, site family) pair
    *[(f"{ctor.__name__}-sites={value!r}", "sites",
       lambda ctor=ctor, value=value: ctor(**PATH_ARGS, sites=value))
      for ctor in (make_path, NoisePath)
      for value in (GRID, (GRID, "edges"), [GRID, "nodes"], ("nodes", GRID), (GRID,))],
    ("normal_modes-step=1.5", "step", lambda: _path().normal_modes(1.5)),
    ("evolve_exact", "steps", lambda: evolve_exact(linear_state(SPEC), _path(), steps=2.5)),
    ("exact_linear_step", "dt",
     lambda: exact_linear_step(linear_state(SPEC), _path(), 0, str(FINEST_DT))),
    # a coarsening of 2.5 does not run as 2
    ("sample_increment", "coarsening", lambda: sample_increment(_path(), GRID, 0, 2.5)),
    ("brownian_increment_modes", "coarsening",
     lambda: _path().brownian_increment_modes(0, 2.5)),
    # nor does a run whose dt is 2.5 fine steps
    ("run", "dt",
     lambda: run(_problem(), SchemeConfig(Scheme.SETDM1, 2.5 * FINEST_DT, 1), _path())),
    # typed errors where the value used to reach float(), a ufunc or a bare check
    ("PermeabilityField-mu='1'", "mu", lambda: _perm(mu="1")),
    ("PermeabilityField-mu=None", "mu", lambda: _perm(mu=None)),
    ("solve_pressure-p_left='1'", "p_left", lambda: solve_pressure(_perm(), p_left="1")),
    ("FaceVelocities.constant-qx='a'", "qx", lambda: FaceVelocities.constant(GRID, "a", 0)),
    ("assemble_fem-c0='x'", "c0", lambda: assemble_fem(GRID, 1.0, c0="x")),
    ("derive_key-realization=-1", "realization", lambda: kernels.derive_key(0, -1)),
]


@pytest.mark.parametrize("name, call", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_bad_argument_raises_typed_error_naming_it(name, call):
    with pytest.raises(InvalidArgumentError, match=rf"\b{name} must be"):
        call()


def test_checkers_convert_and_bound():
    assert check_int(np.int64(3), "n") == 3 and type(check_int(np.int64(3), "n")) is int
    assert check_real(np.float32(0.5), "x") == 0.5 and type(check_real(1, "x")) is float
    assert check_int(2 ** 64 - 1, "seed", 0, 2 ** 64) == 2 ** 64 - 1
    assert check_real(1.0, "c", 0, 1) == 1.0
    for bad in (True, np.bool_(False), 2.0, "2", None, 2 ** 64):
        with pytest.raises(InvalidArgumentError, match="seed"):
            check_int(bad, "seed", 0, 2 ** 64)
    for bad in (True, "0.5", None, np.nan, np.inf, 10 ** 400, 0.0, 1.5):
        with pytest.raises(InvalidArgumentError, match="x must be a finite number"):
            check_real(bad, "x", 0, 1, open_lo=True)


@pytest.mark.parametrize("error, attribute, value", [
    (DivergenceError("left the bounded regime", step=3), "step", 3),
    (KrylovConvergenceError("over the product ceiling", est_error=0.25), "est_error", 0.25),
], ids=["DivergenceError", "KrylovConvergenceError"])
def test_typed_errors_survive_pickling(error, attribute, value):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) == error.args[0]
    assert getattr(copy, attribute) == value
