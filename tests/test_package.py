"""The package namespace is the union of its modules' ``__all__``, and its
source has one SuperLU call site."""

import ast
import pathlib

import epigraph_lab

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
