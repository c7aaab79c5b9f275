"""INI parsing and command-line interface tests."""

import csv
import importlib.metadata
import json
import pkgutil
import re
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import setd.darcy as darcy
from setd.cli import main
from setd.config import read_config, solve_from_config, study_from_config
from setd.errors import ConfigError
from setd.harness import advection_study, build_problem, linear_additive_study
from setd.integrators import Scheme
from setd.sparse import load_matrix_market


def _write(tmp_path, text, name="study.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


TINY_STUDY = """\
[study]
problem = linear_additive
schemes = setdm0, setdm1
dt_list = 1/4, 1/8
finest_dt = 1/8
realizations = 2
seed = 5

[grid]
nx = 6

[noise]
kind = exponential
n1 = 10
n2 = 10
"""

TINY_SOLVE = """\
[study]
problem = advection_homogeneous
schemes = setdm1
dt_list = 1/4
finest_dt = 1/8
realizations = 1
seed = 2

[grid]
nx = 6

[noise]
kind = powerlaw
n1 = 6
n2 = 6

[solve]
scheme = setdm1
dt = 1/4
realization = 1
snapshot_every = 2
"""

TINY_DARCY = """\
[grid]
nx = 8

[darcy]
contrast = 50
centers = 0.5
width_cells = 1
"""


def test_read_config_round_trip(tmp_path):
    sections = read_config(_write(tmp_path, TINY_STUDY))
    assert sections["study"]["problem"] == "linear_additive"
    assert sections["grid"] == {"nx": "6"}
    assert sections["noise"]["kind"] == "exponential"


def test_read_config_rejects_unknown_section(tmp_path):
    path = _write(tmp_path, "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        read_config(path)


def test_read_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "[study]\nproblem = linear_additive\ncolour = red\n")
    with pytest.raises(ConfigError, match="unknown key"):
        read_config(path)


def test_study_defaults_and_overrides(tmp_path):
    sections = read_config(_write(tmp_path, "[study]\nproblem = linear_additive\n"))
    cfg = study_from_config(sections)
    assert cfg.dt_list == (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40),
                           Fraction(1, 80), Fraction(1, 160))
    assert cfg.finest_dt == Fraction(1, 160)
    assert cfg.nx == 32 and cfg.ny == 32
    assert cfg.noise.kind.value == "exponential"  # default noise follows the problem
    assert len(cfg.schemes) == 3
    over = study_from_config(sections, {"seed": 99, "realizations": 4, "threads": 2})
    assert (over.seed, over.realizations, over.threads) == (99, 4, 2)


@pytest.mark.parametrize("problem", ["linear_additive", "advection_homogeneous",
                                     "advection_heterogeneous"])
def test_bare_ini_builds_the_preset(tmp_path, problem):
    # every key an INI leaves out takes the preset's value
    preset = {
        "linear_additive": linear_additive_study(),
        "advection_homogeneous": advection_study(),
        "advection_heterogeneous": advection_study(heterogeneous=True),
    }[problem]
    sections = read_config(_write(tmp_path, f"[study]\nproblem = {problem}\n"))
    assert study_from_config(sections) == preset


def test_problem_and_darcy_keys_reach_the_problem(tmp_path, monkeypatch):
    def built(problem, extra=""):
        text = f"[study]\nproblem = {problem}\n[grid]\nnx = 6\n" + extra
        return build_problem(study_from_config(read_config(_write(tmp_path, text))))

    plain = built("linear_additive")
    doubled = built("linear_additive", "[problem]\ndiffusion = 2\n")
    assert doubled.linear_reference == (2.0, 0.5)
    np.testing.assert_allclose(doubled.discrete.A.dense(), 2 * plain.discrete.A.dense(),
                               rtol=1e-13, atol=0)

    faces = []
    solve_darcy = darcy.solve_darcy

    def spy(*args, **kwargs):
        p, q = solve_darcy(*args, **kwargs)
        faces.append(q)
        return p, q

    monkeypatch.setattr(darcy, "solve_darcy", spy)
    built("advection_heterogeneous")
    built("advection_heterogeneous", "[darcy]\np_left = 2\n")
    # with p_right = 0 the face velocities are linear in p_left
    np.testing.assert_allclose(faces[1].qx, 2 * faces[0].qx, rtol=1e-10, atol=0)
    assert np.abs(faces[1].qx).max() > 0


def test_study_validation_errors(tmp_path):
    bads = [
        ("[study]\nproblem = heat_death\n", "unknown problem"),
        ("[study]\nschemes = setdm7\n", "unknown scheme"),
        ("[study]\ndt_list = abc\n", "exact fraction"),
        # removed options are unknown sections and keys like any other
        ("[krylov]\nmax_restarts = 10\n", r"unknown section \[krylov\]"),
        ("[study]\nsetdm1_variant = as_defined\n",
         r"unknown key 'setdm1_variant' in section \[study\]; allowed: \["),
        ("[noise]\nn1 = 4\n", "requires a 'kind'"),
        ("[noise]\nkind = white\n", "unknown noise kind"),
        ("[noise]\nkind = exponential\nr = 3\n", "does not apply"),
        ("[noise]\nkind = powerlaw\ngamma = 0.1\n", "does not apply"),
        ("[darcy]\ncontrast = 10\n", "advection_heterogeneous"),
        ("[study]\nproblem = linear_additive\n\n[problem]\ninflow = 1\n",
         "do not apply"),
    ]
    for text, match in bads:
        with pytest.raises(ConfigError, match=match):
            study_from_config(read_config(_write(tmp_path, text, name="bad.ini")))


def test_darcy_keys_feed_problem_params(tmp_path):
    text = """\
[study]
problem = advection_heterogeneous
schemes = setdm1
dt_list = 1/4
finest_dt = 1/8
[grid]
nx = 8
[noise]
kind = powerlaw
n1 = 4
n2 = 4
[darcy]
contrast = 25
centers = 0.25, 0.75
width_cells = 2
"""
    cfg = study_from_config(read_config(_write(tmp_path, text)))
    assert cfg.problem_params["contrast"] == 25.0
    assert cfg.problem_params["centers"] == (0.25, 0.75)
    assert cfg.problem_params["width_cells"] == 2


def test_solve_from_config(tmp_path):
    sections = read_config(_write(tmp_path, TINY_SOLVE))
    study = study_from_config(sections)
    solve = solve_from_config(sections, study)
    assert solve["scheme"] is Scheme.SETDM1
    assert solve["dt"] == Fraction(1, 4)
    assert solve["realization"] == 1
    assert solve["snapshot_every"] == 2
    # defaults: scheme setdm1, dt = the last (smallest) listed step
    bare = study_from_config(read_config(_write(tmp_path, TINY_STUDY, name="s2.ini")))
    solve2 = solve_from_config({}, bare)
    assert solve2["dt"] == bare.dt_list[-1]
    assert solve2["snapshot_every"] is None


def test_solve_divisibility_errors(tmp_path):
    sections = read_config(_write(tmp_path, TINY_SOLVE))
    study = study_from_config(sections)
    with pytest.raises(ConfigError, match="does not divide T"):
        solve_from_config({"solve": {"dt": "2/5"}}, study)
    with pytest.raises(ConfigError, match="not a multiple of finest_dt"):
        solve_from_config({"solve": {"dt": "1/16"}}, study)


def test_cli_converge_writes_reports(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_STUDY)
    out = tmp_path / "results"
    rc = main(["converge", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["seed"] == 5
    assert {row["scheme"] for row in report["rows"]} == {"setdm0", "setdm1"}
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,dt,rms_error,realizations,flagged_count"
    assert len(lines) == 1 + 2 * 2
    captured = capsys.readouterr()
    assert "fitted order [setdm1]" in captured.out


def test_cli_converge_flag_overrides(tmp_path):
    cfg = _write(tmp_path, TINY_STUDY)
    out = tmp_path / "o"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--seed", "77", "--realizations", "1", "--threads", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["seed"] == 77
    assert report["rows"][0]["realizations"] == 1


def test_cli_converge_rejects_out_of_range_seed(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_STUDY)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 1
    assert "error: seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_solve_writes_trajectory_snapshots_operator(tmp_path):
    cfg = _write(tmp_path, TINY_SOLVE)
    out = tmp_path / "traj.csv"
    mtx = tmp_path / "op.mtx"
    rc = main(["solve", "--config", cfg, "--out", str(out),
               "--export-operator", str(mtx)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "x", "y", "value"]
    assert len(rows) == 1 + 36  # 6x6 cell-centered DOFs
    values = np.array([float(r[3]) for r in rows[1:]])
    assert np.all(np.isfinite(values))
    # snapshot files appear at steps 0, 2, 4 for 4 steps with snapshot_every=2
    for step in (0, 2, 4):
        snap = tmp_path / f"traj_step{step:06d}.csv"
        assert snap.exists(), snap
    # exported operator loads back bit-for-bit
    from setd.config import study_from_config as sfc
    from setd.harness import build_problem
    study = sfc(read_config(cfg))
    problem = build_problem(study)
    loaded = load_matrix_market(str(mtx))
    np.testing.assert_array_equal(loaded.dense(), problem.discrete.A.dense())


def test_cli_solve_realization_override_changes_output(tmp_path):
    cfg = _write(tmp_path, TINY_SOLVE)
    out0 = tmp_path / "r0.csv"
    out1 = tmp_path / "r1.csv"
    assert main(["solve", "--config", cfg, "--out", str(out0),
                 "--realization", "0"]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out1),
                 "--realization", "1"]) == 0
    with out0.open(newline="") as fh0, out1.open(newline="") as fh1:
        v0 = [r[3] for r in csv.reader(fh0)][1:]
        v1 = [r[3] for r in csv.reader(fh1)][1:]
    assert v0 != v1


def test_cli_darcy_writes_fields(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_DARCY, name="darcy.ini")
    out = tmp_path / "darcy.csv"
    assert main(["darcy", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "i", "j", "x", "y", "value"]
    kinds = [r[0] for r in rows[1:]]
    nx = ny = 8
    assert kinds.count("pressure") == nx * ny
    assert kinds.count("qx") == (nx + 1) * ny
    assert kinds.count("qy") == nx * (ny + 1)
    captured = capsys.readouterr()
    assert "max |divergence|" in captured.out


def test_cli_reports_config_errors_cleanly(tmp_path, capsys):
    cfg = _write(tmp_path, "[study]\nproblem = bogus\n")
    rc = main(["converge", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "bogus" in captured.err
    # setd darcy parses [grid] and [darcy] as the studies do
    for text, key in (("[grid]\nnx = abc\n", "grid.nx"),
                      ("[darcy]\nwidth_cells = 2.5\n", "darcy.width_cells")):
        cfg = _write(tmp_path, text, name="darcy.ini")
        rc = main(["darcy", "--config", cfg, "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and key in captured.err


def _installed_distribution():
    try:
        return importlib.metadata.distribution("setd")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(_installed_distribution() is None,
                    reason="distribution 'setd' is not installed "
                           "(importlib.metadata.PackageNotFoundError)")
def test_cli_entry_point_installed():
    dist = _installed_distribution()
    scripts = {ep.name: ep.value for ep in dist.entry_points
               if ep.group == "console_scripts"}
    assert scripts.get("setd") == "setd.cli:main"
    exe = shutil.which("setd")
    assert exe is not None
    out = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_cli_entry_point_declared(capsys):
    # The wiring the installed script relies on, checked from the source
    # tree: pyproject declares the script and its target runs.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"setd": "setd.cli:main"}
    entry = pkgutil.resolve_name(scripts["setd"])
    assert entry is main
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    assert "converge" in capsys.readouterr().out


def test_hard_dependencies_are_numpy_and_scipy():
    # the kernels are plain numpy: no extra installs a second backend
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    names = {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower()
             for req in project["dependencies"]}
    assert names == {"numpy", "scipy"}
    assert set(project["optional-dependencies"]) == {"test"}


def test_public_surface_resolves():
    import setd

    missing = [name for name in setd.__all__ if not hasattr(setd, name)]
    assert missing == []
    assert setd.__version__
