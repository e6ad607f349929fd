"""Command-line entry points: experiment runs and graph generation."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import MISSING, fields

from .errors import check_value, describe
from .experiment import (ExperimentConfig, config_from_dict, load_config, logger, output_path,
                         run_experiment)
from .topology import random_connected_graph, write_edge_list

#: annotated type of a config field -> argparse type of its flag (bool: --x/--no-x)
FLAG_TYPES = {"int": int, "float": float, "str": str}
#: argument of ``random_connected_graph`` -> the ``druid graph`` option that sets it
GRAPH_OPTIONS = {"m": "agents", "p": "edge_prob", "seed": "seed"}


def _run_parser(sub):
    # no abbreviations: a field's flag, spelt out, is the one way to set it
    p = sub.add_parser("run", help="run a configured experiment and write its trace CSV",
                       allow_abbrev=False)
    p.add_argument("--config", help="JSON config file; the flags override its keys")
    for f in fields(ExperimentConfig):
        default = "required" if f.default is MISSING else f"default {f.default!r}"
        kind = dict(action=argparse.BooleanOptionalAction) if f.type == "bool" else \
            dict(type=FLAG_TYPES[f.type], choices=f.metadata["choices"])
        p.add_argument("--" + f.name.replace("_", "-"), help=f"{describe(f)}; {default}", **kind)


def _graph_parser(sub):
    p = sub.add_parser("graph", help="generate a connected random graph as an edge list",
                       allow_abbrev=False)
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
    # the library's warnings, labelled, on this call's stderr and only during it
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    try:
        if args.command == "graph":
            out = None if args.output is None else output_path(args.output)
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
        cfg = config_from_dict(overrides) if args.config is None else \
            load_config(args.config, overrides)
        print(run_experiment(cfg))
        return 0
    except Exception as exc:  # noqa: BLE001 - boundary: report and set exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    raise SystemExit(main())
