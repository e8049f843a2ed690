"""The benchmark tracer in perfbench/tracing.py wraps latperm functions by
name and its work counters read their arguments. It is parsed here, not
imported, so a trim of the library that drops or renames a traced function
or argument fails tier-1 instead of ``perfbench/run.py --trace 1``."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from latperm.fkdet import QuadratureConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TREE = ast.parse(TRACING.read_text())


def _assigned(name):
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"tracing.py assigns no {name}")


def _counter_keys():
    """For each work counter (a function whose first argument is ``args``),
    the argument names it reads as ``args["name"]``."""
    keys = {}
    for node in TREE.body:
        if isinstance(node, ast.FunctionDef) and node.args.args \
                and node.args.args[0].arg == "args":
            keys[node.name] = {
                sub.slice.value for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name) and sub.value.id == "args"
                and isinstance(sub.slice, ast.Constant)}
    return keys


def _traced():
    """(module, function name, counter name or None) for each TRACED entry."""
    out = []
    for entry in _assigned("TRACED").elts:
        module, name, counter = entry.elts
        out.append((module.id, name.value,
                    counter.id if isinstance(counter, ast.Name) else None))
    return out


def _module(alias):
    return importlib.import_module(f"latperm.{alias}")


TRACED = _traced()


def test_traced_list_parsed():
    assert len(TRACED) >= 10
    assert {m for m, _, _ in TRACED} >= {"cli", "entropy", "permanent", "fkdet",
                                         "groupring", "patterns"}


@pytest.mark.parametrize("module, name, counter", TRACED,
                         ids=[f"{m}.{n}" for m, n, _ in TRACED])
def test_traced_name_resolves(module, name, counter):
    fn = getattr(_module(module), name, None)
    assert callable(fn), f"latperm.{module}.{name} is gone"
    if counter is not None:
        params = inspect.signature(fn).parameters
        missing = _counter_keys()[counter] - set(params)
        assert not missing, f"{counter} reads {missing}, not arguments of {name}"


def test_mahler_counter_reads_quadrature_fields():
    from latperm.fkdet import mahler_measure

    counter = next(node for node in TREE.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_mahler_counts")
    read = {sub.attr for sub in ast.walk(counter)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name) and sub.value.id == "cfg"}
    assert read >= {"grid", "refinements"}
    assert "cfg" in inspect.signature(mahler_measure).parameters
    assert read <= {f.name for f in dataclasses.fields(QuadratureConfig)}
