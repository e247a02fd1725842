"""Structural rules of the package source."""

import ast
from pathlib import Path

import bitrans

BASIS_OWNERS = {"section_operator.py"}
INTERVAL_EVALUATORS = {"u_delta", "v_delta", "f_components"}


def _trees():
    """(module file name, parsed module) for every module of the package source."""
    for path in sorted(Path(bitrans.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _nodes():
    """(module file name, AST node) for every node of the package source."""
    for name, tree in _trees():
        for node in ast.walk(tree):
            yield name, node


def _name(node):
    """The name a Name, Attribute or import alias node refers to, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_only_the_section_operator_and_verification_touch_the_eigenvectors():
    # Every other module changes basis through SectionOperator.to_modal and
    # from_modal, so the choice of eigenbasis is made in one place.
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes()
                 if name not in BASIS_OWNERS
                 and isinstance(node, ast.Attribute) and node.attr == "eigenvectors"]
    assert not offenders, f"eigenvectors named outside {sorted(BASIS_OWNERS)}: {offenders}"


def test_only_symbols_evaluates_an_interval():
    # An interval's symbols come from symbols.interval_symbols in one pass,
    # and the assembly forms the determinant from the two sides it holds,
    # so a solve evaluates each interval once.
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes()
                 if name != "symbols.py" and isinstance(node, ast.Call)
                 and _name(node.func) in INTERVAL_EVALUATORS]
    offenders += [f"{name}:{getattr(node, 'lineno', '?')}" for name, node in _nodes()
                  if name == "transmission.py" and _name(node) in {"SymbolContext", "f_total"}]
    assert not offenders, f"interval symbols evaluated outside symbols.py: {offenders}"


def test_interval_symbols_forms_u_and_v_itself():
    # interval_symbols takes sqrt(z), e^{-eps} and the expm1 terms once and
    # forms u and v from them, so it calls neither public evaluator.
    tree = dict(_trees())["symbols.py"]
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "interval_symbols")
    offenders = [f"symbols.py:{node.lineno}" for node in ast.walk(body)
                 if isinstance(node, ast.Call) and _name(node.func) in {"u_delta", "v_delta"}]
    assert not offenders, f"interval_symbols re-evaluates u or v: {offenders}"


def test_the_particular_path_reads_only_the_declared_rows():
    # The particular solve takes the forcing's declared rows from
    # ModalForcing.sample_modes, never the scattered (m, n) table of
    # sample, and only problem.py reaches a resampler, so every resampler
    # call is shape-checked against the declared modes.
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes()
                 if name == "subproblem.py" and isinstance(node, ast.Call)
                 and _name(node.func) == "sample"]
    offenders += [f"{name}:{node.lineno}" for name, node in _nodes()
                  if name != "problem.py" and isinstance(node, ast.Attribute)
                  and node.attr in {"func_minus", "func_plus"}]
    assert not offenders, f"forcing rows read around the declared modes: {offenders}"


def test_only_the_solver_assembles_the_interface_blocks():
    # The interface blocks depend on the operator, geometry and k alone, so
    # TransmissionSolver builds them once and every solve reuses them; an
    # assembly anywhere else would bring the per-call rebuild back.
    offenders = []
    for name, tree in _trees():
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "TransmissionSolver"
                  for node in ast.walk(cls)}
        offenders += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and id(node) not in inside
                      and _name(node.func) == "assemble_transmission_operators"]
    assert not offenders, f"interface blocks assembled outside TransmissionSolver: {offenders}"


def test_only_subproblem_reads_how_an_interval_stores_its_solution():
    # subproblem.py alone knows each interval's stored weights and the
    # particular part's series tables: the report reads its end terms from
    # end_terms and its series terms from ParticularSolution.series_terms,
    # so neither the stored order nor the tables are named elsewhere.
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes()
                 if name != "subproblem.py"
                 and isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                 and _name(node) in {"grid_table", "by_end", "end_values"}]
    offenders += [f"{name}:{node.lineno}" for name, node in _nodes()
                  if name == "transmission.py" and isinstance(node, ast.Attribute)
                  and node.attr in {"f_modal", "w_modal", "layers", "fprime_interface",
                                    "f3_interface"}]
    assert not offenders, f"an interval's storage read outside subproblem.py: {offenders}"


def test_config_leaves_the_solver_settings_and_the_csv_format_to_their_types():
    # SolveOptions alone decides the route, n_x and probe_points, and
    # problem.py alone reads the forcing-CSV format; config.py maps their
    # errors, so it needs neither the csv module nor a route constant.
    tree = dict(_trees())["config.py"]
    offenders = [f"config.py:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names
                 if alias.name == "csv" or alias.name.startswith("ROUTE_")]
    assert not offenders, f"config.py re-decides a setting its type carries: {offenders}"


def test_the_oracle_checks_its_inputs_through_the_problem_type():
    # direct_solve forms a TransmissionProblem, so it rejects the data and
    # diffusivities that the representation route rejects, with the same errors.
    tree = dict(_trees())["oracle.py"]
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "direct_solve")
    assert any(isinstance(node, ast.Call) and _name(node.func) == "TransmissionProblem"
               for node in ast.walk(body)), "direct_solve does not construct a TransmissionProblem"


def test_only_the_mode_gate_orders_an_index_against_m():
    # problem.check_modes is the one range check of a mode index: every
    # entry point that takes a mode calls it, so none compares an index
    # with a section dimension `.m` itself.
    orderings = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes()
                 if name != "problem.py" and isinstance(node, ast.Compare)
                 for op, left, right in zip(node.ops, [node.left, *node.comparators],
                                            node.comparators)
                 if isinstance(op, orderings)
                 and any(isinstance(side, ast.Attribute) and side.attr == "m"
                         for side in (left, right))]
    assert not offenders, f"a mode index ordered against .m outside check_modes: {offenders}"


def test_config_leaves_the_convergence_settings_to_their_gate():
    # oracle.check_levels alone decides the convergence method and each
    # method's least level; config.py maps its errors, so it compares no
    # value with a method name or a grid minimum.
    settled = {"representation", "direct", 17, 33}
    minimums = {"PARTICULAR_MIN_N_X", "ORACLE_MIN_N_X", "CONVERGENCE_MIN_N_X"}
    tree = dict(_trees())["config.py"]
    offenders = [f"config.py:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Compare)
                 and any((isinstance(sub, ast.Constant) and sub.value in settled)
                         or _name(sub) in minimums for sub in ast.walk(node))]
    assert not offenders, f"config.py re-decides a convergence setting: {offenders}"


def test_one_integer_test_for_every_gate():
    # _checks.is_integer is the one bool-excluding integer test; the gates of
    # section_operator, problem and config call it and raise their own errors.
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes()
                 if name != "_checks.py" and isinstance(node, ast.Call)
                 and _name(node.func) == "isinstance"
                 and any(_name(sub) == "integer" for sub in ast.walk(node))]
    assert not offenders, f"an integer test outside _checks.is_integer: {offenders}"


def test_the_particular_part_uses_no_spline_and_no_dense_solve():
    # The particular part is a banded Chebyshev solve per mode: it neither
    # interpolates nor factors a dense matrix.
    tree = dict(_trees())["subproblem.py"]
    offenders = [f"subproblem.py:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module
                 and node.module.lstrip(".") == "_spline"]
    offenders += [f"subproblem.py:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in {"solve", "inv"}
                  and _name(node.func.value) == "linalg"]
    assert not offenders, f"spline or dense solve in subproblem: {offenders}"


def test_the_oracle_does_not_call_the_particular_solve():
    # The finite-difference oracle is an independent truth: it shares no
    # code with the representation's particular part.
    tree = dict(_trees())["oracle.py"]
    offenders = [f"oracle.py:{node.lineno}" for node in ast.walk(tree)
                 if _name(node) in {"solve_particular", "ParticularSolution"}]
    assert not offenders, f"the oracle reaches the particular solve: {offenders}"



def _imported_modules(node) -> set:
    """Dotted module names an import node names, relative ones without their dots."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return {base} | {f"{base}.{alias.name}".lstrip(".") for alias in node.names}
    return set()


def test_no_module_imports_scipy():
    # The package runs on numpy and pyyaml alone; scipy is a test-only
    # reference.
    offenders = sorted({name for name, node in _nodes()
                        if any(module.split(".")[0] == "scipy"
                               for module in _imported_modules(node))})
    assert not offenders, f"scipy imported by {offenders}"


def test_every_tridiagonal_solve_takes_the_one_elimination():
    # The stages, the spline and the oracle import their elimination from
    # _tridiagonal, and no other module defines a tridiagonal, banded or
    # LU routine, or a band-storage helper, of its own.
    users = sorted({name for name, node in _nodes()
                    if isinstance(node, ast.ImportFrom) and node.module == "_tridiagonal"
                    and {alias.name for alias in node.names} == {"factor_banded", "solve_banded"}})
    assert users == ["_spline.py", "oracle.py", "subproblem.py"]
    offenders = [f"{name}:{node.name}" for name, node in _nodes()
                 if name != "_tridiagonal.py" and isinstance(node, ast.FunctionDef)
                 and set(node.name.strip("_").split("_"))
                 & {"tridiagonal", "banded", "band", "bands", "lu"}]
    assert not offenders, f"eliminations outside _tridiagonal.py: {offenders}"


def test_every_approx_in_the_tests_states_its_abs():
    # pytest.approx adds abs=1e-12 unless told otherwise, which makes a
    # relative check of a value near or below 1e-12 pass whatever it
    # compares; every call states its abs (abs=0.0 for a relative check).
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and _name(node.func) == "approx"
                 and not any(keyword.arg == "abs" for keyword in node.keywords)]
    assert not offenders, f"pytest.approx without abs=: {offenders}"
