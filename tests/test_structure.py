"""Structural checks on the package source.

The decode schedule is walked in one place, `network.decode_many`.  Callers
reach it through `decode`, `decode_many` or `decode_chunked`; a module that
imports the step functions themselves is on its way to a second hand-written
walk.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bilayer

STEP_FUNCTIONS = {"context_step", "context_out", "encode_input", "index_scores"}


def _names(module: str) -> set[str]:
    """Every name a module imports from elsewhere or reads as an attribute."""
    tree = ast.parse((Path(bilayer.__file__).parent / module).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("module", ["training.py", "evaluation.py", "cli.py"])
def test_no_second_decode_walk(module):
    used = _names(module)
    assert not used & STEP_FUNCTIONS, f"{module} uses {sorted(used & STEP_FUNCTIONS)}"


@pytest.mark.parametrize("module", ["training.py", "evaluation.py"])
def test_split_decodes_go_in_runs(module):
    """These modules decode whole splits, so they call `decode_chunked`: one
    `decode_many` call over a split would hold a score block per step for
    every box of it at once."""
    assert "decode_many" not in _names(module)
