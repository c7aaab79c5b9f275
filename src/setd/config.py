"""INI configuration for studies, single solves, and Darcy runs.

Sections and keys are validated strictly: anything unrecognized is a
ConfigError, so typos fail fast instead of silently running defaults.
Only the keys a file gives are parsed and passed on: a key it leaves out
takes its value from the problem's preset (``harness.linear_additive_study``
or ``harness.advection_study``), from ``harness.PROBLEM_PARAMS`` or from
the Darcy solver. Times (T, dt values) parse as exact fractions ("1/160",
"0.25", "1") so divisibility requirements are checked without float
rounding.
"""

from __future__ import annotations

import configparser
from dataclasses import replace
from fractions import Fraction

from .errors import ConfigError
from .harness import (DARCY_KEYS, PROBLEM_NAMES, PROBLEM_PARAMS, advection_study,
                      linear_additive_study)
from .integrators import Scheme
from .noise import NoiseSpec

_SCHEME_NAMES = {s.value: s for s in Scheme}

# Typed keys by field name; the INI key is the field name in lower case.
_STUDY_KEYS = {"finest_dt": Fraction, "T": Fraction, "realizations": int, "seed": int,
               "threads": int, "expected_order": float, "c0": float}
_GRID_KEYS = {"nx": int, "ny": int, "L1": float, "L2": float}
_NOISE_KEYS = {
    "exponential": {"gamma": float, "b1": float, "b2": float, "n1": int, "n2": int},
    "powerlaw": {"r": float, "n1": int, "n2": int},
}

_SECTION_KEYS = {
    "study": {"problem", "schemes", "dt_list"} | {k.lower() for k in _STUDY_KEYS},
    "grid": {k.lower() for k in _GRID_KEYS},
    "noise": {"kind"}.union(*_NOISE_KEYS.values()),
    "problem": set().union(*PROBLEM_PARAMS.values()),
    "darcy": set(DARCY_KEYS),
    "solve": {"scheme", "dt", "realization", "snapshot_every"},
}


def _parse(text, key, kind):
    """text as kind (int, float or Fraction); a ConfigError naming key if not."""
    try:
        return kind(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        name = "an exact fraction" if kind is Fraction else kind.__name__
        raise ConfigError(f"{key}: cannot parse {text!r} as {name}") from exc


def _typed(section, kinds, name):
    """The keys of section that kinds names, by field name, each parsed."""
    return {field: _parse(section[field.lower()], f"{name}.{field}", kind)
            for field, kind in kinds.items() if field.lower() in section}


def _csv_list(text):
    return [item.strip() for item in text.split(",") if item.strip()]


def _scheme(name):
    if name not in _SCHEME_NAMES:
        raise ConfigError(f"unknown scheme {name!r}; expected one of {sorted(_SCHEME_NAMES)}")
    return _SCHEME_NAMES[name]


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


def _build_noise(noise_sec, L1, L2):
    kind = noise_sec.get("kind")
    if kind is None:
        raise ConfigError("[noise] section requires a 'kind' (exponential or powerlaw)")
    kind = kind.strip().lower()
    if kind not in _NOISE_KEYS:
        raise ConfigError(f"unknown noise kind {kind!r}; expected exponential or powerlaw")
    extra = sorted(set(noise_sec) - {"kind"} - set(_NOISE_KEYS[kind]))
    if extra:
        raise ConfigError(f"noise key {extra[0]!r} does not apply to the {kind} kind")
    params = _typed(noise_sec, _NOISE_KEYS[kind], "noise")
    return getattr(NoiseSpec, kind)(L1=L1, L2=L2, **params)


def grid_from_config(sections):
    """The [grid] values the file gives, by StudyConfig field (nx, ny, L1, L2)."""
    return _typed(sections.get("grid", {}), _GRID_KEYS, "grid")


def darcy_from_config(sections):
    """The [darcy] values by key: width_cells an int, centers a tuple of
    floats, every other key a float."""
    params = {}
    for key, raw in sections.get("darcy", {}).items():
        if key == "centers":
            params[key] = tuple(_parse(tok, "darcy.centers", float) for tok in _csv_list(raw))
        else:
            params[key] = _parse(raw, f"darcy.{key}", int if key == "width_cells" else float)
    return params


def study_from_config(sections, overrides=None):
    """Build a StudyConfig from parsed config sections.

    The problem's preset gets the keys the file gives and then overrides,
    an optional mapping for seed/realizations/threads used by the CLI
    flags of the same names; the preset supplies every other value.
    """
    study = sections.get("study", {})
    problem = study.get("problem", "linear_additive").strip().lower()
    if problem not in PROBLEM_NAMES:
        raise ConfigError(f"unknown problem {problem!r}; expected one of {PROBLEM_NAMES}")

    given = _typed(study, _STUDY_KEYS, "study")
    if "schemes" in study:
        given["schemes"] = tuple(_scheme(name) for name in _csv_list(study["schemes"]))
    if "dt_list" in study:
        given["dt_list"] = tuple(_parse(tok, "study.dt_list", Fraction)
                                 for tok in _csv_list(study["dt_list"]))
    given.update(grid_from_config(sections))

    prob_sec = sections.get("problem", {})
    allowed = PROBLEM_PARAMS[problem]
    unknown = set(prob_sec) - set(allowed)
    if unknown:
        raise ConfigError(
            f"problem keys {sorted(unknown)} do not apply to {problem}; allowed: {sorted(allowed)}"
        )
    if sections.get("darcy") and problem != "advection_heterogeneous":
        raise ConfigError("[darcy] section applies only to advection_heterogeneous")
    params = {key: _parse(raw, f"problem.{key}", float) for key, raw in prob_sec.items()}
    params.update(darcy_from_config(sections))
    if params:
        given["problem_params"] = params
    given.update(overrides or {})

    if problem == "linear_additive":
        cfg = linear_additive_study(**given)
    else:
        cfg = advection_study(heterogeneous=problem == "advection_heterogeneous", **given)
    if sections.get("noise"):
        cfg = replace(cfg, noise=_build_noise(sections["noise"], cfg.L1, cfg.L2))
    return cfg


def solve_from_config(sections, study_cfg):
    """Extract the single-trajectory solve settings ([solve] section)."""
    solve_sec = sections.get("solve", {})
    scheme = _scheme(solve_sec.get("scheme", "setdm1").strip().lower())
    dt = _parse(solve_sec.get("dt", str(study_cfg.dt_list[-1])), "solve.dt", Fraction)
    if (study_cfg.T / dt).denominator != 1:
        raise ConfigError(f"solve dt {dt} does not divide T={study_cfg.T}")
    if (dt / study_cfg.finest_dt).denominator != 1:
        raise ConfigError(
            f"solve dt {dt} is not a multiple of finest_dt {study_cfg.finest_dt}"
        )
    realization = _parse(solve_sec.get("realization", "0"), "solve.realization", int)
    snapshot_every = solve_sec.get("snapshot_every")
    if snapshot_every is not None:
        snapshot_every = _parse(snapshot_every, "solve.snapshot_every", int)
    return {
        "scheme": scheme,
        "dt": dt,
        "realization": realization,
        "snapshot_every": snapshot_every,
    }
