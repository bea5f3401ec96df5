"""Exception hierarchy shared by all modules, and the catalog parameter check.

ValidationError means the caller handed us something malformed (CLI exit 2);
NumericalError means the computation itself failed or refused (CLI exit 3).
"""

import math

__all__ = [
    "LabError",
    "ValidationError",
    "NumericalError",
    "ConvergenceError",
    "JacobianSingularError",
]


class LabError(Exception):
    pass


class ValidationError(LabError):
    pass


class NumericalError(LabError):
    pass


class ConvergenceError(NumericalError):
    """Iteration cap exceeded; carries iteration count and last residual."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class JacobianSingularError(NumericalError):
    pass


def check_params(table: dict, kind, what: str, given: dict, *context):
    """The entry of ``kind`` in the catalog ``table`` (``what`` names its
    kinds) and its parameters: the entry's defaults (None: required)
    overridden by ``given``, as floats where the default is one, then put
    through ``entry.prepare(params, *context)``. ValidationError for an
    unknown kind and, naming the key, for a key the defaults lack, a
    missing one, a value ``float()`` cannot convert where the default is a
    float, and a float that is not finite after ``prepare``."""
    if kind not in tuple(table):
        raise ValidationError(f"unknown {what} {kind!r}")
    entry, label = table[kind], f"{what} {kind!r}"
    for key in given:
        if key not in entry.defaults:
            raise ValidationError(f"{label} has no parameter {key!r}")
    params = {**entry.defaults, **given}
    for key, default in entry.defaults.items():
        if params[key] is None:
            raise ValidationError(f"{label} needs {key!r}")
        if isinstance(default, float):
            try:
                params[key] = float(params[key])
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{label} parameter {key!r} must be a number") from None
    params = entry.prepare(params, *context)
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{label} parameter {key!r} must be finite")
    return entry, params
