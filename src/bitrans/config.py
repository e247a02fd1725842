"""Run configuration: YAML schema, validation, and case construction.

The configuration is one YAML file of nested key/value sections. The
grammar (documented in the README) covers the section operator, the
geometry, diffusivities, forcing and boundary specifications, solver
options, and per-command parameters. Everything is validated here with
`ConfigError`s naming the offending key; downstream solver errors keep
their own types so the command layer can map them to exit codes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError, SolverError
from .oracle import manufactured_forced, manufactured_homogeneous
from .problem import SIDES, BoundaryData, CylinderGeometry, ModalForcing
from .section_operator import SectionOperator, build_dirichlet_laplacian_1d, from_matrix_file
from .transmission import ROUTE_BLOCK, ROUTE_BOTH, ROUTE_CALCULUS, SolveOptions

_FORCING_KINDS = ("zero", "sine", "csv", "manufactured")
_BOUNDARY_KINDS = ("zero", "explicit", "from-exact-case", "random")
_SCAN_DEFAULTS = {"start": 1e-6, "stop": 1e6, "points": 121}
_CONVERGENCE_DEFAULTS = {"method": "representation", "levels": (65, 129, 257)}


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
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    return int(value)


def _as_vector(value, m: int, context: str) -> np.ndarray:
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context} must be a list of numbers") from exc
    if vec.shape != (m,):
        raise ConfigError(f"{context} must have length {m}, got shape {vec.shape}")
    return vec


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
        _as_float(_require(section, "length", "section"), "section.length")
    else:
        _require(section, "path", "section")

    geo = _as_map(_require(raw, "geometry", "config"), "geometry")
    try:
        geometry = CylinderGeometry(
            _as_float(_require(geo, "a", "geometry"), "geometry.a"),
            _as_float(_require(geo, "gamma", "geometry"), "geometry.gamma"),
            _as_float(_require(geo, "b", "geometry"), "geometry.b"),
        )
    except SolverError as exc:
        raise ConfigError(f"bad geometry: {exc}") from exc

    diff = _as_map(_require(raw, "diffusivities", "config"), "diffusivities")
    k_minus = _as_float(_require(diff, "k_minus", "diffusivities"), "diffusivities.k_minus")
    k_plus = _as_float(_require(diff, "k_plus", "diffusivities"), "diffusivities.k_plus")
    if not (0.0 < k_minus < np.inf and 0.0 < k_plus < np.inf):
        raise ConfigError(f"diffusivities must be positive and finite, got {k_minus}, {k_plus}")

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
    route = solver.get("route", ROUTE_CALCULUS)
    if route not in (ROUTE_BLOCK, ROUTE_CALCULUS, ROUTE_BOTH):
        raise ConfigError(f"solver.route must be block|calculus|both, got {route!r}")
    n_x = _as_int(solver.get("n_x", 129), "solver.n_x")
    probe = _as_int(solver.get("probe_points", 33), "solver.probe_points")
    if n_x < 17 or probe < 5:
        raise ConfigError("solver.n_x must be >= 17 and solver.probe_points >= 5")

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
    if method not in ("representation", "direct"):
        raise ConfigError(f"convergence.method must be representation|direct, got {method!r}")
    levels = convergence["levels"]
    if not isinstance(levels, (list, tuple)) or len(levels) < 3:
        raise ConfigError("convergence.levels must list at least 3 grid sizes")
    levels = [_as_int(n, f"convergence.levels[{i}]") for i, n in enumerate(levels)]
    if min(levels) < 17:
        raise ConfigError("convergence.levels must all be >= 17")
    convergence = {"method": method, "levels": levels}
    output = _as_map(raw.get("output", {}), "output")
    seed = _as_int(raw.get("seed", 0), "seed")
    return RunConfig(section=section, geometry=geometry, k_minus=k_minus,
                     k_plus=k_plus, forcing=forcing, boundary=boundary,
                     solver=SolveOptions(route=route, n_x=n_x, probe_points=probe),
                     scan=scan, convergence=convergence, output=output, seed=seed)


def build_section(config: RunConfig) -> SectionOperator:
    """Construct the section operator named by the configuration."""
    section = config.section
    if section["kind"] == "laplacian-1d":
        return build_dirichlet_laplacian_1d(int(section["m"]), float(section["length"]))
    return from_matrix_file(section["path"])


def _read_forcing_csv(path, geometry: CylinderGeometry, m: int) -> ModalForcing:
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for record in reader:
                rows.append((float(record["x"]), int(record["mode_index"]),
                             float(record["value"]), record["side"].strip()))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad forcing csv {path!r}: {exc}") from exc
    try:
        return ModalForcing.from_csv_rows(geometry, m, rows)
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
    if fkind == "zero":
        forcing = ModalForcing.zero(m, geometry)
    elif fkind == "sine":
        forcing = ModalForcing.sine(
            operator, geometry,
            str(_require(fspec, "side", "forcing")),
            _as_int(_require(fspec, "mode", "forcing"), "forcing.mode"),
            k_multiple=_as_int(fspec.get("k_multiple", 1), "forcing.k_multiple"),
            amplitude=_as_float(fspec.get("amplitude", 1.0), "forcing.amplitude"),
        )
    elif fkind == "csv":
        forcing = _read_forcing_csv(_require(fspec, "path", "forcing"), geometry, m)
    else:
        ckind = fspec.get("case", "forced")
        if ckind == "forced":
            profile = _require(fspec, "profile", "forcing (manufactured)")
            case = manufactured_forced(
                operator, geometry, config.k_minus, config.k_plus,
                _as_int(_require(fspec, "mode", "forcing"), "forcing.mode"),
                [float(v) for v in profile],
                psi1=_as_float(fspec.get("psi1", 0.0), "forcing.psi1"),
                psi2=_as_float(fspec.get("psi2", 0.0), "forcing.psi2"),
            )
        elif ckind == "homogeneous":
            case = manufactured_homogeneous(
                operator, geometry,
                [int(v) for v in _require(fspec, "modes", "forcing (manufactured)")],
                [float(v) for v in _require(fspec, "a1", "forcing (manufactured)")],
                [float(v) for v in _require(fspec, "a2", "forcing (manufactured)")],
            )
        else:
            raise ConfigError(f"forcing.case must be 'forced' or 'homogeneous', got {ckind!r}")
        forcing = case.forcing()

    bspec = config.boundary
    bkind = bspec.get("kind", "zero")
    if bkind == "zero":
        boundary = BoundaryData.zeros(m)
    elif bkind == "explicit":
        boundary = BoundaryData(
            _as_vector(_require(bspec, "phi1_minus", "boundary"), m, "boundary.phi1_minus"),
            _as_vector(_require(bspec, "phi2_minus", "boundary"), m, "boundary.phi2_minus"),
            _as_vector(_require(bspec, "phi1_plus", "boundary"), m, "boundary.phi1_plus"),
            _as_vector(_require(bspec, "phi2_plus", "boundary"), m, "boundary.phi2_plus"),
        )
    elif bkind == "random":
        rng = np.random.default_rng(config.seed)
        scale = _as_float(bspec.get("scale", 1.0), "boundary.scale")
        boundary = BoundaryData(*(scale * rng.standard_normal(m) for _ in range(4)))
    else:
        if case is None:
            raise ConfigError("boundary 'from-exact-case' needs a manufactured forcing")
        boundary = case.boundary_data()
    return forcing, boundary, case
