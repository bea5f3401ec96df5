"""The package namespace is the union of its modules' ``__all__``, its
source has one SuperLU call site, and the solver's per-operator record holds
functions of the operator alone."""

import ast
import dataclasses
import pathlib

import epigraph_lab
from epigraph_lab import solver

SOURCE = pathlib.Path(epigraph_lab.__file__).parent


def test_no_name_is_exported_by_two_modules():
    # the package star-imports its modules in turn: a name in two modules'
    # __all__ would silently resolve to the later module's object
    names = epigraph_lab.__all__
    assert sorted({name for name in names if names.count(name) > 1}) == []


def references(name):
    """(module, innermost enclosing function) of every reference to
    ``name`` in the package's source: a bare name, an attribute or an
    imported name; a definition of ``name`` is not a reference."""
    sites = []

    def walk(node, module, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.alias) and child.name == name):
                sites.append((module, function))
            walk(child, module, inner)

    for path in sorted(SOURCE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return sites


def test_one_superlu_call_site():
    # every LU in the package comes from solver._lu, through factorize, the
    # one place that calls SciPy's SuperLU
    assert references("splu") == [("solver", "factorize")]
    assert set(references("factorize")) == {("solver", "_lu")}


def kept_writers():
    """The functions in the package's source that assign an attribute of the
    solver's per-operator record: ``_kept(op).x = ...``, or ``kept.x = ...``
    with ``kept`` bound to ``_kept(op)`` in the same function."""
    def is_kept(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_kept")

    def pairs(target, value):
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                yield from pairs(t, v)
        else:
            yield target, value

    writers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            assigned = [pair for node in ast.walk(fn)
                        if isinstance(node, (ast.Assign, ast.AugAssign,
                                             ast.AnnAssign))
                        for target in (node.targets if isinstance(node, ast.Assign)
                                       else [node.target])
                        for pair in pairs(target, node.value)]
            bound = {t.id for t, v in assigned
                     if isinstance(t, ast.Name) and is_kept(v)}
            if any(isinstance(t, ast.Attribute) and (
                    is_kept(t.value) or isinstance(t.value, ast.Name)
                    and t.value.id in bound) for t, _ in assigned):
                writers.add((path.stem, fn.name))
    return writers


def test_solver_keeps_only_what_the_operator_determines():
    # A's LU and A's diagonal positions are memos of the operator; a field
    # carried from one solve to the next (a Jacobian LU) would make a solve
    # depend on what ran before it on the same operator
    assert [f.name for f in dataclasses.fields(solver._Kept)] == ["lu", "diag_pos"]
    assert kept_writers() == {("solver", "_lu"), ("solver", "_jacobian")}
