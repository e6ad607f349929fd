"""Exception types shared across the package, and the field table of the rules
of dataclass fields and function arguments."""

from __future__ import annotations

import functools
import inspect
import numbers
import operator
import sys
from dataclasses import MISSING, field, fields


class ConfigurationError(ValueError):
    """Inconsistent problem, network, or experiment configuration."""


class GraphGenerationError(RuntimeError):
    """Random graph generation exceeded the redraw budget."""


class ConvergenceError(RuntimeError):
    """Iterative solver stopped before reaching its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ParseError(ValueError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DivergenceError(RuntimeError):
    """A run's state turned non-finite; carries the iteration ``t`` where it
    was seen and, when a step caught it, the first non-finite ``agent`` and
    the step ``phase`` that produced it."""

    def __init__(self, message: str, t: int, agent: int | None = None,
                 phase: str | None = None):
        super().__init__(message)
        self.t = t
        self.agent = agent
        self.phase = phase


class DiagnosticError(RuntimeError):
    """A diagnostic was requested without the state it needs."""


class InconsistentReferenceError(RuntimeError):
    """A supposed optimum failed its stationarity check."""


class InapplicableTheoremError(ValueError):
    """Rate constants requested outside their regime of validity."""


#: annotated type of a field (a string under ``from __future__ import
#: annotations``) -> (what its values are called, their type); a bool is of no other kind
KINDS = {"bool": ("true or false", bool), "int": ("an integer", numbers.Integral),
         "float": ("a finite number", numbers.Real), "str": ("a string without NUL bytes", str)}
#: bound of a field -> (its sign, the test of a value against it)
BOUNDS = {"at_least": (">=", operator.ge), "above": (">", operator.gt),
          "at_most": ("<=", operator.le)}


def rule(default=MISSING, *, choices=None, **bounds):
    """A dataclass field with its rule: the annotated type, the ``BOUNDS`` given and the
    ``choices``, read when checked.  A field whose default is None also admits None."""
    return field(default=default, metadata={"choices": choices, "bounds": bounds})


def rule_of(owner, name: str, default=MISSING):
    """A field whose rule is the very metadata of field ``name`` of dataclass ``owner``,
    or of argument ``name`` of ``ruled`` function ``owner``, so a value that feeds it is
    checked as it will be; its default is ``default`` if given, else ``owner``'s."""
    ruled = next(f for f in getattr(owner, "rules", None) or fields(owner) if f.name == name)
    mirror = field(default=ruled.default if default is MISSING else default)
    mirror.metadata = ruled.metadata   # field() would wrap it in a new proxy
    return mirror


def ruled(**rules):
    """Check the arguments named in ``rules``, each a ``rule`` that takes the argument's
    annotated type and default, before each call; they are the function's ``rules``."""
    def decorate(fn):
        signature = inspect.signature(fn)
        for name, f in rules.items():
            p = signature.parameters[name]
            f.name, f.type = name, p.annotation
            f.default = MISSING if p.default is p.empty else p.default

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            given = signature.bind(*args, **kwargs).arguments
            for f in checked.rules:
                check_value(f, given.get(f.name, f.default))
            return fn(*args, **kwargs)
        checked.rules = tuple(rules.values())
        return checked
    return decorate


def describe(f) -> str:
    """The rule of field ``f`` as its errors and ``druid run --help`` state it."""
    choices, bounds = f.metadata["choices"], f.metadata["bounds"].items()
    words = "one of " + ", ".join(choices) if choices else KINDS[f.type][0]
    return " ".join([words, " and ".join(f"{BOUNDS[name][0]} {b}" for name, b in bounds)]).rstrip()


def check_value(f, value, name: str | None = None) -> None:
    """Raise a ``ConfigurationError`` naming field ``f``, or ``name`` if given, if
    ``value`` breaks its rule."""
    admitted = (value is None and f.default is None) or (
        isinstance(value, KINDS[f.type][1]) and isinstance(value, bool) == (f.type == "bool")
        and (f.type != "float" or abs(value) <= sys.float_info.max)   # no NaN or inf
        and (f.type != "str" or "\0" not in value)   # open() takes no NUL byte
        and (f.metadata["choices"] is None or value in f.metadata["choices"])
        and all(BOUNDS[name][1](value, b) for name, b in f.metadata["bounds"].items()))
    if not admitted:
        raise ConfigurationError(f"{name or f.name} must be {describe(f)}, got {value!r}")


def check_rules(obj) -> None:
    """Raise a ``ConfigurationError`` naming the first field of dataclass
    ``obj`` whose value breaks its ``rule``; fields without one are not checked."""
    for f in (f for f in fields(obj) if "bounds" in f.metadata):
        check_value(f, getattr(obj, f.name))
