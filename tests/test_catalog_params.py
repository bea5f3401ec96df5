"""Catalog parameters: every factory rejects a parameter its kind does not
take, a value that is not a number and a non-finite number. The CLI schema
reads its catalog kinds and parameters off the library's tables, so only
its hand-declared open sets are checked against their factories."""

import inspect
import math

import pytest

from epigraph_lab import (ValidationError, geometry, make_epigraph,
                          make_nonlinearity, revolution_set)
from epigraph_lab.cli import _SECTIONS
from epigraph_lab.geometry import _OPEN_SETS

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


def test_schema_and_table_declare_the_same_open_sets():
    cases = _SECTIONS["domain"].cases
    assert set(cases) == set(_OPEN_SETS)
    for kind in ("strip", "winged_strip", "under_parabola", "orthant"):
        factory = inspect.signature(getattr(geometry, f"{kind}_set"))
        assert set(cases[kind]) == set(factory.parameters), kind
