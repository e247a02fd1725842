"""The mutant enumerator of ``tools/mutation_audit.py`` on a synthetic module (no subprocess)."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutation_audit", ROOT / "tools" / "mutation_audit.py")
mutation_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutation_audit)

SOURCE = '''"""A module with every comparison operator."""


def gate(x, xs, y):
    if x < 1 or x >= 2:  # two comparisons on one line
        return x == y
    return (0 <= x != y,
            x > 3, x <= 4, x in xs, x not in xs, y is None, y is not None)
'''

# (line, original, mutant), in source order; a chained comparison gives one mutant per operator.
EXPECTED = [(5, "<", "<="), (5, ">=", ">"), (6, "==", "!="), (7, "<=", "<"), (7, "!=", "=="),
            (8, ">", ">="), (8, "<=", "<"), (8, "in", "not in"), (8, "not in", "in"),
            (8, "is", "is not"), (8, "is not", "is")]


def _ops(tree):
    return [type(op) for node in ast.walk(tree) if isinstance(node, ast.Compare) for op in node.ops]


def test_every_comparison_operator_is_one_mutant_in_source_order():
    found = mutation_audit.mutants(SOURCE)
    assert [(m.line, m.original, m.mutant) for m in found] == EXPECTED


def test_each_mutant_swaps_exactly_one_operator_of_the_unparsed_module():
    base = ast.parse(SOURCE)
    unparsed = ast.unparse(base)
    for mutant in mutation_audit.mutants(SOURCE):
        tree = ast.parse(mutant.source)
        changed = [(a, b) for a, b in zip(_ops(base), _ops(tree)) if a is not b]
        assert len(changed) == 1 and mutation_audit.SWAPS[changed[0][0]] is changed[0][1]
        swap_back = mutation_audit.mutants(mutant.source)
        assert unparsed in {m.source for m in swap_back}  # the swaps are an involution
    assert ast.unparse(ast.parse(SOURCE)) == unparsed  # enumeration leaves no trace


def test_every_comparison_operator_has_a_swap():
    cmpops = {cls for cls in vars(ast).values()
              if isinstance(cls, type) and issubclass(cls, ast.cmpop) and cls is not ast.cmpop}
    assert set(mutation_audit.SWAPS) == cmpops == set(mutation_audit.SYMBOLS)
