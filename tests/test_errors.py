"""The field table of ``druid.errors``: every ``druid`` dataclass whose fields
carry a ``rule``, and every function whose arguments are ``ruled``, refuses,
with a ``ConfigurationError`` naming the field or argument, each value its
rule excludes.  The classes and functions are found by walking the package,
so one that declares rules is covered here without editing this file."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

from conftest import rules_of

import druid
from druid import ConsensusProblem, Graph, Regularizer, reference, topology
from druid.analysis import project_dual
from druid.datasets import Dataset, partition
from druid.errors import BOUNDS, ConfigurationError

#: two agents whose least-squares optimum is the solver's starting point 0,
#: so a reference solve of any budget converges at its first iteration
PROBLEM = ConsensusProblem("least_squares", np.eye(2), np.zeros(2), [1, 1], Regularizer())
PAIR = Graph(2, [(0, 1)])

#: the arguments without a rule that a class or function needs to be called at all
UNRULED = {"Graph": {"edges": [(0, 1)]},
           "ConsensusProblem": {"features": np.eye(2), "targets": np.zeros(2), "counts": [1, 1]},
           "LocalObjective": {"features": [[1.0]], "targets": [0.0]},
           "centralized_reference": {"problem": PROBLEM}, "constraint_gram": {"g": PAIR},
           "partition": {"ds": Dataset(labels=np.zeros(2), rows=np.zeros((2, 1)))},
           "subgradient_membership": {"g": Regularizer(), "theta": np.zeros(2),
                                      "lam": np.zeros(2)}}


def ruled_owners():
    """Every dataclass defined in a ``druid`` module with at least one ruled
    field, and every ``ruled`` function defined in one."""
    found = []
    for info in pkgutil.iter_modules(druid.__path__):
        if info.name.startswith("_"):   # __main__ runs the command line on import
            continue
        module = importlib.import_module(f"druid.{info.name}")
        for owner in vars(module).values():
            if getattr(owner, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(owner) and dataclasses.is_dataclass(owner) \
                    and any("bounds" in f.metadata for f in dataclasses.fields(owner)) \
                    or inspect.isfunction(owner) and hasattr(owner, "rules"):
                found.append(owner)
    return found


def ruled_fields():
    return [(owner, f) for owner in ruled_owners() for f in rules_of(owner)
            if "bounds" in f.metadata]


def admitted(f):
    """A value that field ``f``'s rule admits: its default, or else one built
    from the rule (an inclusive lower bound admits itself)."""
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.metadata["choices"]:
        return next(iter(f.metadata["choices"]))
    bounds = f.metadata["bounds"]
    if "at_least" in bounds:
        return bounds["at_least"]
    if "above" in bounds:
        return bounds["above"] + 1
    return {"str": "x", "bool": False, "int": 1, "float": 1.0}[f.type]


def build(owner, **changes):
    kwargs = {f.name: admitted(f) for f in rules_of(owner) if f.init and "bounds" in f.metadata}
    return owner(**{**kwargs, **UNRULED.get(owner.__name__, {}), **changes})


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


def test_the_finder_sees_every_ruled_class_and_function():
    names = {owner.__name__ for owner in ruled_owners()}
    assert {"ExperimentConfig", "Hyperparams", "Regularizer", "ActivationSampler", "Graph",
            "ConsensusProblem", "LocalObjective", "random_connected_graph", "constraint_gram",
            "centralized_reference", "partition", "subgradient_membership"} <= names


@pytest.mark.parametrize("cls, f", ruled_fields(),
                         ids=lambda x: x.name if isinstance(x, dataclasses.Field) else x.__name__)
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
    (lambda: druid.ActivationSampler("bernoulli", 4, -1), "seed"),
], ids=["bool-as-string", "number-as-string", "gamma-as-string", "gamma-as-bool",
        "negative-seed"])
def test_inputs_the_hand_written_checks_missed_are_refused(call, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be "):
        call()


@pytest.fixture
def no_work(monkeypatch):
    """Make drawing a graph or a permutation, taking a gradient and any
    eigenvalue or linear solve fail the test."""
    def work(*args, **kwargs):
        raise AssertionError("work was done before the arguments were checked")
    monkeypatch.setattr(np.random, "default_rng", work)
    monkeypatch.setattr(topology, "_connected", work)
    monkeypatch.setattr(reference, "_total_gradient", work)
    monkeypatch.setattr(ConsensusProblem, "gradients", work)
    monkeypatch.setattr(np.linalg, "eigvalsh", work)
    monkeypatch.setattr(np.linalg, "solve", work)


@pytest.mark.parametrize("call, name", [
    # a bool probability drew a graph with p = 1
    (lambda: druid.random_connected_graph(5, True, 0), "p"),
    # a string probability raised a bare TypeError at the first draw
    (lambda: druid.random_connected_graph(5, "0.5", 0), "p"),
    # a bool tolerance ran the solve at tolerance 1.0
    (lambda: druid.centralized_reference(PROBLEM, tol=True), "tol"),
    # a bool agent count split the rows for one agent
    (lambda: partition(UNRULED["partition"]["ds"], True, 1), "m"),
    # a missing tolerance raised a bare TypeError
    (lambda: druid.subgradient_membership(Regularizer(), np.zeros(2), np.zeros(2), None), "tol"),
    # project_dual took -1 for the last agent, raised a bare IndexError at m and
    # blamed the reference point for True
    (lambda: project_dual(np.zeros(2), PROBLEM, PAIR, leader=-1), "leader"),
    (lambda: project_dual(np.zeros(2), PROBLEM, PAIR, leader=2), "leader"),
    (lambda: project_dual(np.zeros(2), PROBLEM, PAIR, leader=True), "leader"),
    # spectral_constants took True for agent 1 and raised a bare IndexError for 1.0
    (lambda: druid.spectral_constants(PAIR, True), "leader"),
    (lambda: druid.spectral_constants(PAIR, 1.0), "leader"),
], ids=["probability-as-bool", "probability-as-string", "tol-as-bool", "agents-as-bool",
        "tol-as-none", "leader-negative", "leader-past-the-agents", "leader-as-bool",
        "spectral-leader-as-bool", "spectral-leader-as-float"])
def test_arguments_the_hand_written_checks_missed_are_refused_before_any_work(
        no_work, call, name):
    with pytest.raises(ConfigurationError, match=f"^{name} "):
        call()
