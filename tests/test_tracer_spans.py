"""The benchmark tracer patches virtres functions by name; keep those names alive."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

import virtres

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_spans() -> list[tuple[str, str]]:
    """The SPANS tuple of the tracer, read without importing it (it needs numpy)."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py defines no SPANS")


@pytest.mark.parametrize("module,attr", traced_spans())
def test_traced_span_resolves(module, attr):
    mod = importlib.import_module(f"virtres.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), mod))


def _dotted(node) -> list[str] | None:
    """The names of an attribute chain a.b.c, or None if it is not one."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def test_every_virtres_attribute_the_tracer_reads_resolves():
    # besides SPANS the tracer patches names it reads directly, such as
    # virtres.cohomology.local_cohomology_dim_fast; a deleted or renamed one
    # would break a traced benchmark run with no other failing test
    chains = {
        tuple(names)
        for node in ast.walk(ast.parse(TRACER.read_text()))
        if (names := _dotted(node)) and names[0] == "virtres" and len(names) > 2
    }
    assert ("virtres", "cohomology", "local_cohomology_dim_fast") in chains
    for names in chains:
        assert functools.reduce(getattr, names[1:], virtres), ".".join(names)


def test_every_exported_name_exists():
    missing = [name for name in virtres.__all__ if not hasattr(virtres, name)]
    assert missing == []
