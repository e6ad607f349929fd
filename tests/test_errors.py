"""The field table of ``druid.errors``: every ``druid`` dataclass whose fields
carry a ``rule`` refuses, with a ``ConfigurationError`` naming the field,
each value its rule excludes.  The classes are found by walking the package,
so a class that declares rules is covered here without editing this file."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest

import druid
from druid.errors import BOUNDS, ConfigurationError

#: the arguments without a rule that a class needs to be built at all
UNRULED = {"ActivationSampler": {"probabilities": 0.5}}


def ruled_classes():
    """Every dataclass defined in a ``druid`` module with at least one ruled field."""
    found = []
    for info in pkgutil.iter_modules(druid.__path__):
        if info.name.startswith("_"):   # __main__ runs the command line on import
            continue
        module = importlib.import_module(f"druid.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and dataclasses.is_dataclass(cls) \
                    and cls.__module__ == module.__name__ \
                    and any("bounds" in f.metadata for f in dataclasses.fields(cls)):
                found.append(cls)
    return found


def ruled_fields():
    return [(cls, f) for cls in ruled_classes() for f in dataclasses.fields(cls)
            if "bounds" in f.metadata]


def admitted(f):
    """A value that field ``f``'s rule admits: its default, or else one built from the rule."""
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.metadata["choices"]:
        return next(iter(f.metadata["choices"]))
    bounds = f.metadata["bounds"]
    low = bounds.get("at_least", bounds.get("above"))
    return {"str": "x", "bool": False, "int": 1, "float": 1.0}[f.type] if low is None else low + 1


def build(cls, **changes):
    fields = dataclasses.fields(cls)
    kwargs = {f.name: admitted(f) for f in fields if f.init and "bounds" in f.metadata}
    return cls(**{**kwargs, **UNRULED.get(cls.__name__, {}), **changes})


def excluded(f):
    """Values that field ``f``'s rule refuses: a wrong type, a bool for a
    number, NaN and inf for a float, a value past each bound, an unknown choice."""
    bad = {"str": [None, 1, b"x", "x\0"], "bool": [None, "no", 1], "int": [None, 1.0, "1", True],
           "float": [None, "1.0", True, math.nan, math.inf, -math.inf]}[f.type]
    for name, b in f.metadata["bounds"].items():
        bad.append(b if name == "above" else b - 1 if name == "at_least" else b + 1)
    if f.metadata["choices"]:
        bad.append("no such choice")
    return bad


def test_the_finder_sees_every_ruled_class():
    names = {cls.__name__ for cls in ruled_classes()}
    assert {"ExperimentConfig", "Hyperparams", "Regularizer", "ActivationSampler"} <= names


@pytest.mark.parametrize("cls, f", ruled_fields(),
                         ids=lambda x: x.__name__ if inspect.isclass(x) else x.name)
def test_every_rule_refuses_what_it_excludes(cls, f):
    build(cls)   # the values the test starts from are admitted
    for value in excluded(f):
        if value is None and f.default is None:
            continue
        with pytest.raises(ConfigurationError, match=f"^{f.name} must be ") as err:
            build(cls, **{f.name: value})
        assert repr(value) in str(err.value)
    for name, b in f.metadata["bounds"].items():
        if BOUNDS[name][1](b, b):   # an inclusive bound admits the bound itself
            build(cls, **{f.name: {"int": int, "float": float}[f.type](b)})


@pytest.mark.parametrize("call, name", [
    # "no" is truthy: the hand-written check switched BFGS bounding on
    (lambda: druid.Hyperparams(1.0, 0.5, 1.0, bfgs_bounding="no"), "bfgs_bounding"),
    # a string reached numpy's isfinite, which raised a bare TypeError
    (lambda: druid.Hyperparams(mu_z="1", mu_theta=0.5, epsilon=1.0), "mu_z"),
    (lambda: druid.Regularizer("l1", "0.1"), "gamma"),
    (lambda: druid.Regularizer("l1", True), "gamma"),
    # a negative seed failed only at the first draw
    (lambda: druid.ActivationSampler("bernoulli", 4, -1, probabilities=0.5), "seed"),
], ids=["bool-as-string", "number-as-string", "gamma-as-string", "gamma-as-bool",
        "negative-seed"])
def test_inputs_the_hand_written_checks_missed_are_refused(call, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be "):
        call()
