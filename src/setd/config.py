"""INI configuration for studies, single solves, and Darcy runs.

Sections and keys are validated strictly: anything unrecognized is a
ConfigError, so typos fail fast instead of silently running defaults.
Times (T, dt values) parse as exact fractions ("1/160", "0.25", "1") so
divisibility requirements are checked without float rounding.
"""

from __future__ import annotations

import configparser
from fractions import Fraction

from .errors import ConfigError
from .harness import PROBLEM_NAMES, StudyConfig, default_noise
from .integrators import Scheme
from .krylov import KrylovConfig
from .noise import NoiseSpec

_SCHEME_NAMES = {s.value: s for s in Scheme}

_SECTION_KEYS = {
    "study": {"problem", "schemes", "dt_list", "finest_dt", "t", "realizations",
              "seed", "threads", "expected_order", "c0"},
    "grid": {"nx", "ny", "l1", "l2"},
    "noise": {"kind", "gamma", "b1", "b2", "r", "n1", "n2"},
    "problem": {"diffusion", "reaction", "diffusion_x", "diffusion_y", "inflow",
                "velocity_x", "velocity_y"},
    "darcy": {"contrast", "base", "mu", "p_left", "p_right", "width_cells", "centers"},
    "krylov": {"max_restarts"},
    "solve": {"scheme", "dt", "realization", "snapshot_every"},
}

_PROBLEM_KEYS = {
    "linear_additive": {"diffusion", "reaction"},
    "advection_homogeneous": {"diffusion_x", "diffusion_y", "inflow",
                              "velocity_x", "velocity_y"},
    "advection_heterogeneous": {"diffusion_x", "diffusion_y", "inflow"},
}


def _fraction(text, key):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: cannot parse {text!r} as an exact fraction") from exc


def _parse_typed(text, key, kind):
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {text!r} as {kind.__name__}") from exc
    raise ConfigError(f"unsupported type for {key}")


def _csv_list(text):
    return [item.strip() for item in text.split(",") if item.strip()]


def read_config(path):
    """Parse and validate an INI file into a dict of section dicts."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    sections = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(
                f"unknown section [{name}]; expected one of {sorted(_SECTION_KEYS)}"
            )
        values = {}
        for key, raw in parser.items(name):
            if key not in _SECTION_KEYS[name]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{name}]; "
                    f"allowed: {sorted(_SECTION_KEYS[name])}"
                )
            values[key] = raw
        sections[name] = values
    return sections


def _build_noise(noise_sec, problem, L1, L2):
    if not noise_sec:
        return default_noise(problem, L1, L2)
    kind = noise_sec.get("kind")
    if kind is None:
        raise ConfigError("[noise] section requires a 'kind' (exponential or powerlaw)")
    kind = kind.strip().lower()
    common = {}
    if "n1" in noise_sec:
        common["n1"] = _parse_typed(noise_sec["n1"], "noise.n1", int)
    if "n2" in noise_sec:
        common["n2"] = _parse_typed(noise_sec["n2"], "noise.n2", int)
    if kind == "exponential":
        for bad in ("r",):
            if bad in noise_sec:
                raise ConfigError(f"noise key {bad!r} does not apply to the exponential kind")
        for key in ("gamma", "b1", "b2"):
            if key in noise_sec:
                common[key] = _parse_typed(noise_sec[key], f"noise.{key}", float)
        return NoiseSpec.exponential(L1=L1, L2=L2, **common)
    if kind == "powerlaw":
        for bad in ("gamma", "b1", "b2"):
            if bad in noise_sec:
                raise ConfigError(f"noise key {bad!r} does not apply to the powerlaw kind")
        if "r" in noise_sec:
            common["r"] = _parse_typed(noise_sec["r"], "noise.r", float)
        return NoiseSpec.powerlaw(L1=L1, L2=L2, **common)
    raise ConfigError(f"unknown noise kind {kind!r}; expected exponential or powerlaw")


def study_from_config(sections, overrides=None):
    """Build a StudyConfig from parsed config sections.

    overrides is an optional mapping for seed/realizations/threads, used
    by the CLI flags of the same names.
    """
    overrides = dict(overrides or {})
    study = dict(sections.get("study", {}))
    problem = study.get("problem", "linear_additive").strip().lower()
    if problem not in PROBLEM_NAMES:
        raise ConfigError(f"unknown problem {problem!r}; expected one of {PROBLEM_NAMES}")

    scheme_names = _csv_list(study.get("schemes", "setdm0, setdm1, semi_implicit"))
    schemes = []
    for name in scheme_names:
        if name not in _SCHEME_NAMES:
            raise ConfigError(
                f"unknown scheme {name!r}; expected one of {sorted(_SCHEME_NAMES)}"
            )
        schemes.append(_SCHEME_NAMES[name])

    default_finest = "1/160" if problem == "linear_additive" else "1/1600"
    dt_list = [
        _fraction(tok, "study.dt_list")
        for tok in _csv_list(study.get("dt_list", "1/10, 1/20, 1/40, 1/80, 1/160"))
    ]
    finest_dt = _fraction(study.get("finest_dt", default_finest), "study.finest_dt")
    T = _fraction(study.get("t", "1"), "study.T")

    grid_sec = sections.get("grid", {})
    nx = _parse_typed(grid_sec.get("nx", "32"), "grid.nx", int)
    ny = _parse_typed(grid_sec.get("ny", str(nx)), "grid.ny", int)
    L1 = _parse_typed(grid_sec.get("l1", "1.0"), "grid.L1", float)
    L2 = _parse_typed(grid_sec.get("l2", "1.0"), "grid.L2", float)

    noise = _build_noise(sections.get("noise", {}), problem, L1, L2)

    kry_sec = sections.get("krylov", {})
    krylov = KrylovConfig(max_restarts=_parse_typed(
        kry_sec.get("max_restarts", "10000"), "krylov.max_restarts", int))

    prob_sec = dict(sections.get("problem", {}))
    allowed = _PROBLEM_KEYS[problem]
    unknown = set(prob_sec) - allowed
    if unknown:
        raise ConfigError(
            f"problem keys {sorted(unknown)} do not apply to {problem}; allowed: {sorted(allowed)}"
        )
    problem_params = {k: _parse_typed(v, f"problem.{k}", float) for k, v in prob_sec.items()}

    darcy_sec = dict(sections.get("darcy", {}))
    if darcy_sec and problem != "advection_heterogeneous":
        raise ConfigError("[darcy] section applies only to advection_heterogeneous")
    for key, raw in darcy_sec.items():
        if key == "centers":
            problem_params["centers"] = tuple(
                _parse_typed(tok, "darcy.centers", float) for tok in _csv_list(raw)
            )
        elif key == "width_cells":
            problem_params["width_cells"] = _parse_typed(raw, "darcy.width_cells", int)
        else:
            problem_params[key] = _parse_typed(raw, f"darcy.{key}", float)

    return StudyConfig(
        problem=problem,
        schemes=tuple(schemes),
        dt_list=tuple(dt_list),
        finest_dt=finest_dt,
        T=T,
        realizations=int(overrides.get(
            "realizations",
            _parse_typed(study.get("realizations", "10"), "study.realizations", int),
        )),
        seed=int(overrides.get(
            "seed", _parse_typed(study.get("seed", "0"), "study.seed", int)
        )),
        threads=int(overrides.get(
            "threads", _parse_typed(study.get("threads", "1"), "study.threads", int)
        )),
        nx=nx, ny=ny, L1=L1, L2=L2,
        noise=noise,
        krylov=krylov,
        c0=_parse_typed(study.get("c0", "0.0"), "study.c0", float),
        expected_order=_parse_typed(study.get("expected_order", "0.5"),
                                    "study.expected_order", float),
        problem_params=problem_params,
    )


def solve_from_config(sections, study_cfg):
    """Extract the single-trajectory solve settings ([solve] section)."""
    solve_sec = dict(sections.get("solve", {}))
    scheme_name = solve_sec.get("scheme", "setdm1").strip().lower()
    if scheme_name not in _SCHEME_NAMES:
        raise ConfigError(f"unknown scheme {scheme_name!r} in [solve]")
    dt = _fraction(solve_sec.get("dt", str(study_cfg.dt_list[-1])), "solve.dt")
    if (study_cfg.T / dt).denominator != 1:
        raise ConfigError(f"solve dt {dt} does not divide T={study_cfg.T}")
    if (dt / study_cfg.finest_dt).denominator != 1:
        raise ConfigError(
            f"solve dt {dt} is not a multiple of finest_dt {study_cfg.finest_dt}"
        )
    realization = _parse_typed(solve_sec.get("realization", "0"), "solve.realization", int)
    snapshot_every = solve_sec.get("snapshot_every")
    if snapshot_every is not None:
        snapshot_every = _parse_typed(snapshot_every, "solve.snapshot_every", int)
    return {
        "scheme": _SCHEME_NAMES[scheme_name],
        "dt": dt,
        "realization": realization,
        "snapshot_every": snapshot_every,
    }
