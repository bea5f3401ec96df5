"""Catalog parameters: every factory rejects a parameter its kind does not
take, a value that is not a number and a non-finite number, and the CLI schema declares the same kinds
with the same parameter names as the library's catalog tables."""

import inspect
import math

import pytest

from epigraph_lab import (ValidationError, geometry, make_epigraph,
                          make_nonlinearity, revolution_set)
from epigraph_lab.cli import _SECTIONS
from epigraph_lab.geometry import _OPEN_SETS, _PROFILES, _RADII
from epigraph_lab.nonlinearity import _KINDS

# each used to be accepted: the key was dropped or stored, or the
# non-finite number reached the formulas
REJECTED = {
    "constant_with_slope": (lambda: make_nonlinearity("constant", slope=2.0), "slope"),
    "linear_with_value": (lambda: make_nonlinearity("linear", value=3.0), "value"),
    "power_nan": (lambda: make_nonlinearity("power", exponent=math.nan), "exponent"),
    "constant_nan": (lambda: make_nonlinearity("constant", value=math.nan), "value"),
    "linear_inf": (lambda: make_nonlinearity("linear", slope=math.inf), "slope"),
    "coercive_quadratic_foo": (lambda: make_epigraph("coercive_quadratic", foo=1), "foo"),
    "weierstrass_alpah": (lambda: make_epigraph("weierstrass", alpah=0.3), "alpah"),
    "cosine_bsae": (lambda: revolution_set("cosine", bsae=2.0), "bsae"),
    "constant_radius": (lambda: revolution_set("constant", radius=2.0), "radius"),
    "cosine_nan": (lambda: revolution_set("cosine", base=math.nan), "base"),
}


@pytest.mark.parametrize("make,key", REJECTED.values(), ids=REJECTED)
def test_factories_name_the_rejected_parameter(make, key):
    with pytest.raises(ValidationError, match=f"'{key}'"):
        make()


# each used to escape float() as a bare ValueError or TypeError
NOT_NUMBERS = {
    "constant_string": (lambda: make_nonlinearity("constant", value="x"), "value"),
    "cosine_list": (lambda: revolution_set("cosine", base=[1.0]), "base"),
}


@pytest.mark.parametrize("make,key", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_factories_name_a_parameter_that_is_not_a_number(make, key):
    with pytest.raises(ValidationError, match=f"'{key}' must be a number"):
        make()


# the CLI reads the table kinds' arrays from a two-column CSV
CSV_PARAMS = {"custom_table": {"ts", "fs"}, "custom_sampled": {"axes", "values"},
              "samples": {"xs", "phis"}}


def _schema_params(kind: str, case: dict) -> set:
    """The library parameters that the schema of one kind supplies."""
    if "csv" in case:
        return CSV_PARAMS[kind]
    if "params" in case:            # domain kinds nest them under "params"
        return set(case["params"][0])
    return set(case)


@pytest.mark.parametrize("schema,table", [
    (_SECTIONS["nonlinearity"], _KINDS),
    (_SECTIONS["domain"].cases["epigraph"], _PROFILES),
    (_SECTIONS["domain"].cases["revolution"], _RADII),
], ids=["nonlinearity", "epigraph", "revolution"])
def test_schema_and_table_declare_the_same_parameters(schema, table):
    assert set(schema.cases) == set(table)
    for kind, case in schema.cases.items():
        assert _schema_params(kind, case) == set(table[kind].defaults), kind


def test_schema_and_table_declare_the_same_open_sets():
    cases = _SECTIONS["domain"].cases
    assert set(cases) == set(_OPEN_SETS)
    for kind in ("strip", "winged_strip", "under_parabola", "orthant"):
        factory = inspect.signature(getattr(geometry, f"{kind}_set"))
        assert set(cases[kind]) == set(factory.parameters), kind
