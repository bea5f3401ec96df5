"""The package namespace is the union of its modules' ``__all__``."""

import epigraph_lab


def test_no_name_is_exported_by_two_modules():
    # the package star-imports its modules in turn: a name in two modules'
    # __all__ would silently resolve to the later module's object
    names = epigraph_lab.__all__
    assert sorted({name for name in names if names.count(name) > 1}) == []
