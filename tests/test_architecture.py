"""Structural rules of the package source."""

import ast
from pathlib import Path

import bitrans

BASIS_OWNERS = {"section_operator.py"}


def test_only_the_section_operator_and_verification_touch_the_eigenvectors():
    # Every other module changes basis through SectionOperator.to_modal and
    # from_modal, so the choice of eigenbasis is made in one place.
    offenders = []
    for path in sorted(Path(bitrans.__file__).parent.glob("*.py")):
        if path.name in BASIS_OWNERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "eigenvectors":
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"eigenvectors named outside {sorted(BASIS_OWNERS)}: {offenders}"
