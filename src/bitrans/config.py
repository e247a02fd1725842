"""Run configuration: YAML schema, validation, and case construction.

The configuration is one YAML file of nested key/value sections. The
grammar (documented in the README) covers the section operator, the
geometry, diffusivities, forcing and boundary specifications, solver
options, and per-command parameters. What a library type carries, that
type checks; this module maps its errors, and checks the rest, to
`ConfigError`s naming the offending key. Downstream solver errors keep
their own types so the command layer can map them to exit codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from ._checks import is_integer
from .errors import ConfigError, DimensionMismatchError, SolverError
from .oracle import check_levels, manufactured_forced, manufactured_homogeneous
from .problem import BoundaryData, CylinderGeometry, ModalForcing, read_forcing_csv
from .section_operator import SectionOperator, build_dirichlet_laplacian_1d, from_matrix_file
from .transmission import SolveOptions

_FORCING_KINDS = ("zero", "sine", "csv", "manufactured")
_BOUNDARY_KINDS = ("zero", "explicit", "from-exact-case", "random")
_SCAN_DEFAULTS = {"start": 1e-6, "stop": 1e6, "points": 121}
_CONVERGENCE_DEFAULTS = {"method": "representation", "levels": (65, 129, 257)}
# Diffusivities enter the determinant symbol squared (the solution depends on
# k+ / k- only); lengths enter the spectrum, its square and the grid spacings
# squared and inverse-squared. Inside these ranges all of them stay normal.
_DIFFUSIVITY_RANGE = (1e-150, 1e150)
_LENGTH_RANGE = (1e-50, 1e50)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {context}")
    return mapping[key]


def _as_map(value, context: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(value).__name__}")
    return value


def _as_float(value, context: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context} must be a number, got {value!r}") from exc


def _as_int(value, context: str) -> int:
    if not is_integer(value):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    return int(value)


def _as_list(value, context: str, item=_as_float) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{context} must be a list, got {value!r}")
    return [item(v, f"{context}[{i}]") for i, v in enumerate(value)]


def _as_str(value, context: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{context} must be a nonempty string, got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration."""

    section: dict
    geometry: CylinderGeometry
    k_minus: float
    k_plus: float
    forcing: dict
    boundary: dict
    solver: SolveOptions
    scan: dict = field(default_factory=lambda: dict(_SCAN_DEFAULTS))
    convergence: dict = field(default_factory=lambda: dict(_CONVERGENCE_DEFAULTS))
    output: dict = field(default_factory=dict)
    seed: int = 0


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path!r}: {exc}") from exc
    raw = _as_map(raw, "config root")

    section = _as_map(_require(raw, "section", "config"), "section")
    kind = _require(section, "kind", "section")
    if kind not in ("laplacian-1d", "matrix-file"):
        raise ConfigError(f"section.kind must be 'laplacian-1d' or 'matrix-file', got {kind!r}")
    if kind == "laplacian-1d":
        _as_int(_require(section, "m", "section"), "section.m")
        length = _as_float(_require(section, "length", "section"), "section.length")
        if not _LENGTH_RANGE[0] <= length <= _LENGTH_RANGE[1]:
            raise ConfigError(f"section.length must lie in {_LENGTH_RANGE}, got {length}")
    else:
        _as_str(_require(section, "path", "section"), "section.path")

    geo = _as_map(_require(raw, "geometry", "config"), "geometry")
    try:
        geometry = CylinderGeometry(
            _as_float(_require(geo, "a", "geometry"), "geometry.a"),
            _as_float(_require(geo, "gamma", "geometry"), "geometry.gamma"),
            _as_float(_require(geo, "b", "geometry"), "geometry.b"),
        )
    except SolverError as exc:
        raise ConfigError(f"bad geometry: {exc}") from exc
    if max(geometry.c, geometry.d) > _LENGTH_RANGE[1]:
        raise ConfigError(f"geometry intervals must lie in {_LENGTH_RANGE}, "
                          f"got {geometry.c}, {geometry.d}")

    diff = _as_map(_require(raw, "diffusivities", "config"), "diffusivities")
    k_minus = _as_float(_require(diff, "k_minus", "diffusivities"), "diffusivities.k_minus")
    k_plus = _as_float(_require(diff, "k_plus", "diffusivities"), "diffusivities.k_plus")
    lo, hi = _DIFFUSIVITY_RANGE
    if not (lo <= k_minus <= hi and lo <= k_plus <= hi):
        raise ConfigError(f"diffusivities must be positive, finite and in {_DIFFUSIVITY_RANGE}, "
                          f"got {k_minus}, {k_plus}")

    forcing = _as_map(raw.get("forcing", {"kind": "zero"}), "forcing")
    fkind = forcing.get("kind", "zero")
    if fkind not in _FORCING_KINDS:
        raise ConfigError(f"forcing.kind must be one of {_FORCING_KINDS}, got {fkind!r}")
    boundary = _as_map(raw.get("boundary", {"kind": "zero"}), "boundary")
    bkind = boundary.get("kind", "zero")
    if bkind not in _BOUNDARY_KINDS:
        raise ConfigError(f"boundary.kind must be one of {_BOUNDARY_KINDS}, got {bkind!r}")
    if bkind == "from-exact-case" and fkind != "manufactured":
        raise ConfigError("boundary.kind 'from-exact-case' requires forcing.kind 'manufactured'")

    solver = _as_map(raw.get("solver", {}), "solver")
    try:
        options = SolveOptions(**{k: solver[k] for k in ("route", "n_x", "probe_points")
                                  if k in solver})
    except (ValueError, SolverError) as exc:
        raise ConfigError(f"bad solver: {exc}") from exc

    scan = {**_SCAN_DEFAULTS, **_as_map(raw.get("scan", {}), "scan")}
    start = _as_float(scan["start"], "scan.start")
    stop = _as_float(scan["stop"], "scan.stop")
    points = _as_int(scan["points"], "scan.points")
    if not (0.0 < start < stop < np.inf) or points < 1:
        raise ConfigError("scan requires 0 < start < stop (finite) and integer points >= 1")
    scan = {"start": start, "stop": stop, "points": points}

    convergence = {**_CONVERGENCE_DEFAULTS,
                   **_as_map(raw.get("convergence", {}), "convergence")}
    method = convergence["method"]
    levels = _as_list(convergence["levels"], "convergence.levels", _as_int)
    try:  # each gate message names its setting, method or levels
        convergence = {"method": method, "levels": check_levels(levels, method)}
    except (ValueError, SolverError) as exc:
        raise ConfigError(f"convergence.{exc}") from exc
    output = _as_map(raw.get("output", {}), "output")
    for key, name in output.items():
        _as_str(name, f"output.{key}")
    seed = check_seed(_as_int(raw.get("seed", 0), "seed"), "seed")
    return RunConfig(section=section, geometry=geometry, k_minus=k_minus,
                     k_plus=k_plus, forcing=forcing, boundary=boundary,
                     solver=options, scan=scan, convergence=convergence, output=output, seed=seed)


def check_seed(seed: int, context: str) -> int:
    """The RNG seed, which must be a non-negative integer."""
    if seed < 0:
        raise ConfigError(f"{context} must be a non-negative integer, got {seed}")
    return seed


def build_section(config: RunConfig) -> SectionOperator:
    """Construct the section operator named by the configuration."""
    section = config.section
    if section["kind"] == "laplacian-1d":
        return build_dirichlet_laplacian_1d(int(section["m"]), float(section["length"]))
    try:
        return from_matrix_file(section["path"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read section.path {section['path']!r}: {exc}") from exc


def _read_forcing_csv(path, geometry: CylinderGeometry, m: int) -> ModalForcing:
    try:
        return ModalForcing.from_csv_rows(geometry, m, read_forcing_csv(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad forcing csv {path!r}: {exc}") from exc
    except SolverError as exc:
        raise ConfigError(f"inconsistent forcing csv {path!r}: {exc}") from exc


def build_case(config: RunConfig, operator: SectionOperator):
    """Build (forcing, boundary, exact_case) from the configuration.

    ``exact_case`` is the manufactured case object when the forcing is
    manufactured, else None; verify/convergence commands use it as
    ground truth.
    """
    m = operator.m
    geometry = config.geometry
    fspec = config.forcing
    case = None
    fkind = fspec.get("kind", "zero")
    try:  # the forcing types, manufactured cases and the mode gate check their own arguments
        if fkind == "zero":
            forcing = ModalForcing.zero(m, geometry)
        elif fkind == "sine":
            forcing = ModalForcing.sine(
                operator, geometry, _require(fspec, "side", "forcing"),
                _as_int(_require(fspec, "mode", "forcing"), "forcing.mode"),
                k_multiple=_as_int(fspec.get("k_multiple", 1), "forcing.k_multiple"),
                amplitude=_as_float(fspec.get("amplitude", 1.0), "forcing.amplitude"),
            )
        elif fkind == "csv":
            forcing = _read_forcing_csv(
                _as_str(_require(fspec, "path", "forcing"), "forcing.path"), geometry, m)
        else:
            ckind = fspec.get("case", "forced")
            ctx = "forcing (manufactured)"
            if ckind == "forced":
                case = manufactured_forced(
                    operator, geometry, config.k_minus, config.k_plus,
                    _as_int(_require(fspec, "mode", "forcing"), "forcing.mode"),
                    _as_list(_require(fspec, "profile", ctx), "forcing.profile"),
                    psi1=_as_float(fspec.get("psi1", 0.0), "forcing.psi1"),
                    psi2=_as_float(fspec.get("psi2", 0.0), "forcing.psi2"),
                )
            elif ckind == "homogeneous":
                modes = _as_list(_require(fspec, "modes", ctx), "forcing.modes", _as_int)
                case = manufactured_homogeneous(
                    operator, geometry, modes, _as_list(_require(fspec, "a1", ctx), "forcing.a1"),
                    _as_list(_require(fspec, "a2", ctx), "forcing.a2"))
            else:
                raise ConfigError(f"forcing.case must be forced|homogeneous, got {ckind!r}")
            forcing = case.forcing()
    except (ValueError, DimensionMismatchError) as exc:
        raise ConfigError(f"bad forcing: {exc}") from exc

    bspec = config.boundary
    bkind = bspec.get("kind", "zero")
    if bkind == "zero":
        boundary = BoundaryData.zeros(m)
    elif bkind == "explicit":
        try:
            boundary = BoundaryData(*(_as_list(_require(bspec, key, "boundary"), f"boundary.{key}")
                                      for key in ("phi1_minus", "phi2_minus", "phi1_plus",
                                                  "phi2_plus")))
        except DimensionMismatchError as exc:
            raise ConfigError(f"bad boundary: {exc}") from exc
        if boundary.m != m:
            raise ConfigError(f"boundary vectors must have length {m}, got {boundary.m}")
    elif bkind == "random":
        rng = np.random.default_rng(config.seed)
        scale = _as_float(bspec.get("scale", 1.0), "boundary.scale")
        boundary = BoundaryData(*(scale * rng.standard_normal(m) for _ in range(4)))
    else:
        if case is None:
            raise ConfigError("boundary 'from-exact-case' needs a manufactured forcing")
        boundary = case.boundary_data()
    return forcing, boundary, case
