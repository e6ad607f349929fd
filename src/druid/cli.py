"""Command-line entry points: experiment runs and graph generation."""

from __future__ import annotations

import argparse
import sys

from .curvature import SCHEMES
from .experiment import PROBLEM_KINDS, config_from_dict, load_config, run_experiment
from .topology import random_connected_graph, write_edge_list


def _run_parser(sub):
    p = sub.add_parser("run", help="run a configured experiment and write its trace CSV")
    p.add_argument("--config", help="JSON config file; flags below override its keys")
    p.add_argument("--problem", choices=PROBLEM_KINDS)
    p.add_argument("--dataset", help="sparse text dataset path")
    p.add_argument("--gamma", type=float)
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--mu-z", dest="mu_z", type=float)
    p.add_argument("--mu-theta", dest="mu_theta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--agents", type=int)
    p.add_argument("--edge-prob", dest="edge_prob", type=float)
    p.add_argument("--iters", dest="iterations", type=int)
    p.add_argument("--seed", type=int,
                   help="master seed: graph, partition, and activation seeds are seed, seed+1, seed+2")
    p.add_argument("--async-p", dest="activation_p", type=float,
                   help="Bernoulli activation probability; selects asynchronous mode")
    p.add_argument("--cadence", type=int)
    p.add_argument("--output")


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
            g = random_connected_graph(args.agents, args.edge_prob, args.seed)
            if args.output:
                with open(args.output, "w") as fh:
                    write_edge_list(g, fh)
            else:
                write_edge_list(g, sys.stdout)
            return 0
        overrides = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "config", "seed") and v is not None
        }
        if args.seed is not None:
            overrides["graph_seed"] = args.seed
            overrides["partition_seed"] = args.seed + 1
            overrides["activation_seed"] = args.seed + 2
        if args.activation_p is not None:
            overrides["mode"] = "async"
            overrides["activation"] = "bernoulli"
        cfg = load_config(args.config, overrides) if args.config else config_from_dict(overrides)
        path = run_experiment(cfg)
        print(path)
        return 0
    except Exception as exc:  # noqa: BLE001 - boundary: report and set exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
