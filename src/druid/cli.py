"""Command-line entry points: experiment runs and graph generation."""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

from .activation import BERNOULLI
from .errors import ConfigurationError, check_value, describe
from .experiment import ExperimentConfig, config_from_dict, load_config, output_path, run_experiment
from .topology import random_connected_graph, write_edge_list

#: annotated type of a config field -> argparse type of its flag (bool: --x/--no-x)
FLAG_TYPES = {"int": int, "float": float, "str": str}
ALIASES = {"iterations": ["--iters"]}   # config field -> its other flags
#: argument of ``random_connected_graph`` -> the ``druid graph`` option that sets it
GRAPH_OPTIONS = {"m": "agents", "p": "edge_prob", "seed": "seed"}


def _run_parser(sub):
    p = sub.add_parser("run", help="run a configured experiment and write its trace CSV")
    p.add_argument("--config", help="JSON config file; the flags override its keys")
    for f in fields(ExperimentConfig):
        default = "required" if f.default is MISSING else f"default {f.default!r}"
        names = ["--" + f.name.replace("_", "-"), *ALIASES.get(f.name, [])]
        kind = dict(action=argparse.BooleanOptionalAction) if f.type == "bool" else \
            dict(type=FLAG_TYPES[f.type], choices=f.metadata["choices"])
        p.add_argument(*names, help=f"{describe(f)}; {default}", **kind)
    p.add_argument("--seed", type=int, help="sets --graph-seed, --partition-seed and "
                   "--activation-seed to seed, seed+1, seed+2")
    p.add_argument("--async-p", type=float, help="sets --mode async, --activation bernoulli "
                   "and --activation-p")


def _expand(overrides: dict, shorthand: str, **keys) -> None:
    """Set the config keys a shorthand flag stands for; none may also be given by its own flag."""
    clash = ["--" + key.replace("_", "-") for key in keys if key in overrides]
    if clash:
        raise ConfigurationError(f"{shorthand} sets {', '.join(clash)}; give one or the other")
    overrides.update(keys)


def _graph_parser(sub):
    p = sub.add_parser("graph", help="generate a connected random graph as an edge list")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--edge-prob", dest="edge_prob", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="edge-list path (stdout if omitted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="druid")
    sub = parser.add_subparsers(dest="command", required=True)
    _run_parser(sub)
    _graph_parser(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "graph":
            out = output_path(args.output) if args.output else None
            for f in random_connected_graph.rules:   # named by the flag, not the argument
                option = GRAPH_OPTIONS[f.name]
                check_value(f, getattr(args, option), "--" + option.replace("_", "-"))
            g = random_connected_graph(args.agents, args.edge_prob, args.seed)
            if out:
                with open(out, "w") as fh:
                    write_edge_list(g, fh)
            else:
                write_edge_list(g, sys.stdout)
            return 0
        overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                     if getattr(args, f.name) is not None}
        if args.seed is not None:
            _expand(overrides, "--seed", graph_seed=args.seed, partition_seed=args.seed + 1,
                    activation_seed=args.seed + 2)
        if args.async_p is not None:
            _expand(overrides, "--async-p", mode="async", activation=BERNOULLI,
                    activation_p=args.async_p)
        cfg = load_config(args.config, overrides) if args.config else config_from_dict(overrides)
        print(run_experiment(cfg))
        return 0
    except Exception as exc:  # noqa: BLE001 - boundary: report and set exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
