import errno
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_lasso_instance, objectives_of
from druid import cli, experiment
from druid.activation import ActivationSampler
from druid.cli import main
from druid.curvature import Hyperparams
from druid.errors import ConfigurationError, DivergenceError
from druid.datasets import parse_libsvm, partition
from druid.experiment import ExperimentConfig, build_problem, load_config, run_experiment
from druid.network import init_network
from druid.problems import LocalObjective
from druid.topology import read_edge_list

HEADER = "t,cost_err,dist_err,r_opt,r_cons,r_reg,comm_scalars"


def write_dataset(path, n=40, d=3, seed=0, classification=False):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=d)
    lines = []
    for _ in range(n):
        x = rng.normal(size=d)
        if classification:
            label = 1.0 if x @ truth + 0.2 * rng.normal() > 0 else -1.0
        else:
            label = float(x @ truth + 0.1 * rng.normal())
        feats = " ".join(f"{k + 1}:{float(x[k])!r}" for k in range(d))
        lines.append(f"{label!r} {feats}")
    path.write_text("\n".join(lines) + "\n")


def base_config(tmp_path, **kw):
    data = tmp_path / "data.txt"
    if not data.exists():
        write_dataset(data)
    args = dict(
        problem="ridge", dataset=str(data), gamma=0.05, agents=5, edge_prob=0.7,
        graph_seed=1, partition_seed=2, scheme="newton", mu_z=1.0, mu_theta=0.5,
        epsilon=2.0, iterations=40, cadence=10, output=str(tmp_path / "trace.csv"),
        ref_tol=1e-12,
    )
    args.update(kw)
    return ExperimentConfig(**args)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


def test_run_writes_expected_rows(tmp_path):
    cfg = base_config(tmp_path, iterations=1, cadence=1)
    path = run_experiment(cfg)
    rows = read_rows(path)
    assert [r[0] for r in rows] == ["0", "1"]
    assert float(rows[0][1]) == 1.0  # cost error normalized at the start
    assert float(rows[0][2]) == 1.0


def test_trace_rows_follow_cadence_and_final_tick(tmp_path):
    cfg = base_config(tmp_path, iterations=25, cadence=10)
    rows = read_rows(run_experiment(cfg))
    assert [r[0] for r in rows] == ["0", "10", "20", "25"]


def test_identical_config_gives_byte_identical_trace(tmp_path):
    cfg = base_config(tmp_path, iterations=30, cadence=3)
    first = run_experiment(cfg).read_bytes()
    second = run_experiment(cfg).read_bytes()
    assert first == second


def test_comm_column_matches_closed_form(tmp_path):
    cfg = base_config(tmp_path, iterations=20, cadence=5)
    rows = read_rows(run_experiment(cfg))
    from druid.topology import random_connected_graph
    g = random_connected_graph(cfg.agents, cfg.edge_prob, cfg.graph_seed)
    for r in rows:
        assert int(r[6]) == int(r[0]) * 2 * g.n * 3


def test_costs_decay_on_ridge(tmp_path):
    cfg = base_config(tmp_path, iterations=300, cadence=300)
    rows = read_rows(run_experiment(cfg))
    assert float(rows[-1][1]) < 1e-6
    assert float(rows[-1][2]) < 1e-3


def test_async_mode_and_logistic_problem(tmp_path):
    data = tmp_path / "cls.txt"
    write_dataset(data, classification=True, seed=3)
    cfg = base_config(
        tmp_path, problem="logistic_l1", dataset=str(data), gamma=0.01,
        mode="async", activation="bernoulli", activation_p=0.5, activation_seed=9,
        iterations=30, cadence=10, scheme="bfgs", epsilon=3.0, psi=5.0,
        output=str(tmp_path / "async.csv"),
    )
    rows = read_rows(run_experiment(cfg))
    assert rows[-1][0] == "30"
    # async communication is bounded by the synchronous closed form
    from druid.topology import random_connected_graph
    g = random_connected_graph(cfg.agents, cfg.edge_prob, cfg.graph_seed)
    assert int(rows[-1][6]) <= 30 * 2 * g.n * 3


def test_a_scheme_added_to_the_kernel_table_runs_from_the_config(tmp_path, monkeypatch):
    # the config's scheme choices were a tuple frozen at import, which refused it
    from druid import curvature as cv
    name = "gradient_copy"
    monkeypatch.setitem(cv.KERNELS, name, replace(cv.KERNELS[cv.GRADIENT]))
    cfg = base_config(tmp_path, scheme=name, iterations=5, cadence=5)
    rows = read_rows(run_experiment(cfg))
    same = read_rows(run_experiment(replace(cfg, scheme=cv.GRADIENT)))
    assert rows[-1][0] == "5" and rows == same


def test_config_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        base_config(tmp_path, problem="svm")
    with pytest.raises(ConfigurationError):
        base_config(tmp_path, iterations=0)
    with pytest.raises(ConfigurationError):
        base_config(tmp_path, mode="duplex")
    with pytest.raises(ConfigurationError):
        base_config(tmp_path, activation="poisson")


AGENTS = 5


def network_led_by(leader):
    graph, problem = make_lasso_instance(m=AGENTS)
    return init_network(problem, graph, Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.0, leader=leader))


#: how the library takes each config field the config checks against ``agents`` by hand
LIBRARY = {
    "leader": network_led_by,
    "activation_count": lambda v: ActivationSampler.fixed_count(v, AGENTS, 0),
    "activation_p": lambda v: ActivationSampler.bernoulli(v, AGENTS, 0),
}


@pytest.mark.parametrize("name, value, accepted", [
    ("leader", AGENTS - 1, True), ("leader", AGENTS, False),
    ("activation_count", AGENTS, True), ("activation_count", AGENTS + 1, False),
    ("activation_p", 1.0, True), ("activation_p", 0.0, False),
    ("activation_p", 1.0000001, False), ("activation_p", float("nan"), False),
])
def test_config_and_library_agree_at_the_cross_field_boundaries(name, value, accepted):
    # the config restates these library refusals by hand: both sides must draw the same line
    def accepts(build):
        try:
            build()
        except ConfigurationError:
            return False
        return True

    activation = "fixed_count" if name == "activation_count" else "bernoulli"
    config = accepts(lambda: ExperimentConfig(problem="lasso", dataset="unread.txt", agents=AGENTS,
                                              activation=activation, **{name: value}))
    assert config == accepts(lambda: LIBRARY[name](value)) == accepted


def test_fixed_count_activation_mode(tmp_path):
    cfg = base_config(
        tmp_path, mode="async", activation="fixed_count", activation_count=2,
        activation_seed=4, iterations=20, cadence=10,
        output=str(tmp_path / "fixed.csv"),
    )
    rows = read_rows(run_experiment(cfg))
    assert rows[-1][0] == "20"
    # exactly two agents broadcast per iteration
    from druid.topology import random_connected_graph
    g = random_connected_graph(cfg.agents, cfg.edge_prob, cfg.graph_seed)
    assert int(rows[-1][6]) < 20 * 2 * g.n * 3


def test_load_config_with_overrides(tmp_path):
    data = tmp_path / "data.txt"
    write_dataset(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": "ridge", "dataset": str(data), "gamma": 0.05,
        "agents": 5, "edge_prob": 0.7, "iterations": 10,
        "output": str(tmp_path / "t.csv"),
    }))
    cfg = load_config(cfg_path, {"scheme": "gradient", "epsilon": 4.0, "iterations": None})
    assert cfg.scheme == "gradient" and cfg.epsilon == 4.0 and cfg.iterations == 10
    with pytest.raises(ConfigurationError):
        load_config(cfg_path, {"volume": 11})


@pytest.mark.parametrize("content, message", [
    ('{"problem": "ridge"}', r"missing required config keys: \['dataset'\]"),
    ('{"dataset": "data.txt", "agents": 3}', r"missing required config keys: \['problem'\]"),
    ("{}", r"missing required config keys: \['problem', 'dataset'\]"),
    ("[1, 2]", r"must hold a JSON object, got list"),
    ('"ridge"', r"must hold a JSON object, got str"),
    ('{\n  "agents": 2,\n}', r"cfg\.json' does not parse: .* at line 3, column 1$"),
    ('{"agents": 2, "agents": 3}', r"cfg\.json' repeats the key 'agents'"),
    (b'{"problem": "ridge", "dataset": "\xff"}',
     r"cfg\.json' is not UTF-8 text: byte 0xff \(invalid start byte\)$"),
])
def test_load_config_names_what_is_wrong_with_the_file(tmp_path, content, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(ConfigurationError, match=message):
        load_config(cfg_path)
    with pytest.raises(ConfigurationError, match=message):
        load_config(cfg_path, {"scheme": "newton"})


def test_cli_without_config_names_the_missing_keys(tmp_path, capsys):
    assert main(["run", "--problem", "ridge"]) == 1
    assert capsys.readouterr().err == "error: missing required config keys: ['dataset']\n"
    assert main(["run", "--dataset", str(tmp_path / "data.txt")]) == 1
    assert capsys.readouterr().err == "error: missing required config keys: ['problem']\n"


def test_cli_run_and_graph(tmp_path, capsys):
    data = tmp_path / "data.txt"
    write_dataset(data)
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "cli.csv"
    cfg_path.write_text(json.dumps({
        "problem": "ridge", "dataset": str(data), "gamma": 0.05,
        "agents": 5, "edge_prob": 0.7, "epsilon": 2.0,
        "output": str(out_path),
    }))
    code = main(["run", "--config", str(cfg_path), "--scheme", "newton",
                 "--iters", "5", "--cadence", "1", "--seed", "3"])
    assert code == 0
    assert out_path.exists()
    rows = read_rows(out_path)
    assert rows[-1][0] == "5"

    edge_path = tmp_path / "graph.txt"
    assert main(["graph", "--agents", "6", "--edge-prob", "0.6",
                 "--seed", "2", "--output", str(edge_path)]) == 0
    with open(edge_path) as fh:
        g = read_edge_list(fh)
    assert g.m == 6


def test_default_epsilon_resolved_from_measured_smoothness(tmp_path):
    cfg = base_config(tmp_path, epsilon=None, iterations=5, cadence=5,
                      output=str(tmp_path / "default_eps.csv"))
    rows = read_rows(run_experiment(cfg))
    assert rows[-1][0] == "5"
    assert cfg.hyperparams(2.0).epsilon == 0.55 * 2.0
    assert replace(cfg, epsilon=0.3).hyperparams(2.0).epsilon == 0.3


def test_leader_cost_iterate_variant(tmp_path):
    cfg_avg = base_config(tmp_path, iterations=10, cadence=10)
    cfg_lead = base_config(tmp_path, iterations=10, cadence=10,
                           cost_iterate="leader", output=str(tmp_path / "lead.csv"))
    avg_rows = read_rows(run_experiment(cfg_avg))
    lead_rows = read_rows(run_experiment(cfg_lead))
    # same trajectory, different reported iterate
    assert avg_rows[-1][2] == lead_rows[-1][2]
    assert avg_rows[-1][1] != lead_rows[-1][1]


def test_cli_async_flag_switches_mode(tmp_path):
    data = tmp_path / "data.txt"
    write_dataset(data)
    out = tmp_path / "async_cli.csv"
    code = main(["run", "--problem", "ridge", "--dataset", str(data),
                 "--gamma", "0.05", "--agents", "5", "--edge-prob", "0.7",
                 "--epsilon", "2.0", "--iters", "8", "--cadence", "4",
                 "--seed", "1", "--async-p", "0.5", "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    from druid.topology import random_connected_graph
    g = random_connected_graph(5, 0.7, 1)
    assert int(rows[-1][6]) < 8 * 2 * g.n * 3  # fewer broadcasts than sync


def test_cli_flags_reach_every_field(tmp_path):
    # a fixed-count asynchronous run from flags alone traces what its config file does
    data = tmp_path / "data.txt"
    write_dataset(data)
    settings = {"problem": "ridge", "dataset": str(data), "gamma": 0.05, "agents": 5,
                "edge_prob": 0.7, "epsilon": 2.0, "iterations": 12, "cadence": 3,
                "mode": "async", "activation": "fixed_count", "activation_count": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**settings, "output": str(tmp_path / "file.csv")}))
    assert main(["run", "--config", str(cfg_path)]) == 0
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
    assert main(["run", *flags, "--output", str(tmp_path / "flags.csv")]) == 0
    assert (tmp_path / "flags.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


def test_run_help_lists_a_flag_for_every_field():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "druid", "run", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    flags = set(re.findall(r"--[a-z-]+", done.stdout))
    missing = [f.name for f in fields(ExperimentConfig)
               if "--" + f.name.replace("_", "-") not in flags]
    assert not missing, f"no flag for {missing}"


@pytest.mark.parametrize("flags, clash", [
    (["--seed", "1", "--graph-seed", "4"], "--graph-seed"),
    (["--seed", "1", "--activation-seed", "4"], "--activation-seed"),
    (["--async-p", "0.5", "--mode", "sync"], "--mode"),
    (["--async-p", "0.5", "--activation", "fixed_count"], "--activation"),
    (["--async-p", "0.5", "--activation-p", "0.3"], "--activation-p"),
])
def test_cli_shorthand_with_a_flag_it_sets_is_an_error(tmp_path, capsys, flags, clash):
    assert main(["run", "--problem", "ridge", "--dataset", str(tmp_path / "missing.txt"),
                 *flags]) == 1
    # named before the config is built or any data is read
    assert capsys.readouterr().err.startswith(f"error: {flags[0]} sets {clash}")


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("mu_z", np.nan), ("agents", 1), ("edge_prob", 2.0), ("activation_p", np.nan),
    ("leader", 50), ("epsilon", -1.0), ("gamma", np.inf), ("ref_tol", -1.0),
    ("activation_count", 0), ("activation_count", 11), ("ref_max_iter", 0),
    ("iterations", 5.5), ("agents", 10.0), ("cadence", 2.5), ("leader", True),
    ("activation_count", True), ("ref_max_iter", 1e6), ("graph_seed", -1),
    ("partition_seed", 1.0), ("activation_seed", -2), ("mu_z", "1"), ("gamma", True),
    ("epsilon", "2"), ("bfgs_bounding", 1), ("dataset", 0), ("output", 3),
    ("dataset", "data\0.txt"), ("output", "trace\0.csv"),
])
def test_config_rejects_bad_values_before_reading_data(tmp_path, field, value):
    # activation_count only applies to fixed-count activation (agents=10 by default)
    extra = {"activation": "fixed_count"} if field == "activation_count" else {}
    args = {"problem": "ridge", "dataset": str(tmp_path / "missing.txt"), **extra, field: value}
    with pytest.raises(ConfigurationError, match=field):
        ExperimentConfig(**args)


def test_missing_output_directory_fails_before_reading_data(tmp_path):
    cfg = ExperimentConfig(problem="ridge", dataset=str(tmp_path / "missing.txt"),
                           output=str(tmp_path / "absent" / "trace.csv"))
    with pytest.raises(ConfigurationError, match="output"):
        run_experiment(cfg)


def test_output_that_is_a_directory_fails_before_reading_data(tmp_path):
    cfg = ExperimentConfig(problem="ridge", dataset=str(tmp_path / "missing.txt"),
                           output=str(tmp_path))
    with pytest.raises(ConfigurationError, match="output .* is a directory"):
        run_experiment(cfg)


@pytest.mark.parametrize("case", ["nul", "missing-directory", "directory"])
def test_graph_output_is_checked_before_the_graph_is_drawn(tmp_path, monkeypatch, capsys, case):
    def draw(*args):
        raise AssertionError("the graph was drawn before --output was checked")

    monkeypatch.setattr(cli, "random_connected_graph", draw)
    output = {"nul": str(tmp_path / "g\0.txt"), "missing-directory": str(tmp_path / "absent" / "g.txt"),
              "directory": str(tmp_path)}[case]
    assert main(["graph", "--agents", "4", "--edge-prob", "0.9", "--output", output]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --output {output!r}") and "drawn" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags, message", [
    (["--agents", "1", "--edge-prob", "0.5"], "--agents must be an integer >= 2, got 1"),
    (["--agents", "4", "--edge-prob", "1.5"],
     "--edge-prob must be a finite number > 0 and <= 1, got 1.5"),
    (["--agents", "4", "--edge-prob", "0.5", "--seed", "-1"],
     "--seed must be an integer >= 0, got -1"),
], ids=["agents", "edge-prob", "seed"])
def test_graph_names_the_flag_of_a_bad_value(tmp_path, capsys, flags, message):
    # the generator's own messages name its arguments m, p and seed
    assert main(["graph", *flags, "--output", str(tmp_path / "g.txt")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert os.listdir(tmp_path) == []


def test_graph_writes_to_stdout_without_an_output(capsys):
    assert main(["graph", "--agents", "3", "--edge-prob", "1.0"]) == 0
    assert capsys.readouterr() == ("3 3\n1 2\n1 3\n2 3\n", "")


def test_more_agents_than_rows_fails_before_the_graph_is_drawn(tmp_path, monkeypatch):
    def draw(*args):
        raise AssertionError("the graph was drawn before the rows were checked")

    # drawing a graph over 10**7 agents would ask for a (10**7, 10**7) adjacency
    monkeypatch.setattr(experiment, "random_connected_graph", draw)
    write_dataset(tmp_path / "data.txt", n=20)
    for agents in (25, 10**7):
        cfg = base_config(tmp_path, agents=agents)
        with pytest.raises(ConfigurationError, match=f"20 rows cannot cover {agents} agents"):
            run_experiment(cfg)


@pytest.mark.parametrize("directory, code", [(False, errno.ENOENT), (True, errno.EISDIR)])
def test_dataset_or_config_that_is_missing_or_a_directory_is_named(tmp_path, capsys,
                                                                     directory, code):
    path = tmp_path / "input"
    if directory:
        path.mkdir()
    message = f"file '{path}' cannot be read: {os.strerror(code)}"
    cfg = base_config(tmp_path, dataset=str(path))
    with pytest.raises(ConfigurationError, match=re.escape("dataset " + message)):
        run_experiment(cfg)
    assert not Path(cfg.output).exists()
    with pytest.raises(ConfigurationError, match=re.escape("config " + message)):
        load_config(path)
    assert main(["run", "--problem", "ridge", "--dataset", str(path),
                 "--output", cfg.output]) == 1
    assert capsys.readouterr().err == f"error: dataset {message}\n"
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: config {message}\n"


def test_config_path_with_a_nul_byte_is_named(tmp_path, capsys):
    path = str(tmp_path / "config\0.json")
    message = f"config file {path!r} cannot be read: its path holds a NUL byte"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(path)
    assert main(["run", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("valid_lines", [0, 40, 1000])   # 1000 lines fill the first read block
def test_dataset_that_is_not_utf8_is_named(tmp_path, valid_lines):
    data = tmp_path / "data.txt"
    write_dataset(data, n=max(valid_lines, 1))
    lines = data.read_bytes().splitlines(keepends=True)[:valid_lines]
    data.write_bytes(b"".join(lines) + b"1 1:0.5 2:\xff\n2 1:1.0\n")
    cfg = base_config(tmp_path)
    with pytest.raises(ConfigurationError,
                       match=r"dataset file '.*data\.txt' is not UTF-8 text: byte 0xff"):
        run_experiment(cfg)
    assert not Path(cfg.output).exists()


def test_build_problem_rejects_a_dataset_without_features(tmp_path):
    cfg = base_config(tmp_path, agents=2)
    with pytest.raises(ConfigurationError, match="no features"):
        build_problem(cfg, parse_libsvm("1\n2\n3\n"))


def diverging_config(tmp_path, cadence):
    # epsilon far below M_f / 2: the gradient step overshoots and blows up
    return base_config(tmp_path, scheme="gradient", epsilon=1e-3, iterations=2000, cadence=cadence)


# These run under the "error" warning filter of the test configuration: an
# overflow warning must not stand in for the typed error.
def test_diverging_run_raises_divergence_error(tmp_path):
    cfg = diverging_config(tmp_path, cadence=1)
    with pytest.raises(DivergenceError) as err:
        run_experiment(cfg)
    assert 0 < err.value.t < cfg.iterations
    assert f"t={err.value.t}" in str(err.value)


def test_divergence_is_caught_on_the_step_that_causes_it(tmp_path):
    # with no metric step before the end, the step that first writes a
    # non-finite value raises, naming the agent and the phase
    with pytest.raises(DivergenceError) as err:
        run_experiment(diverging_config(tmp_path, cadence=2000))
    assert (err.value.t, err.value.agent, err.value.phase) == (434, 2, "gradient")
    assert "t=434" in str(err.value) and "agent 2" in str(err.value)
    # at cadence 1 the trace metrics overflow first, long before the state
    # does; the error names the first non-finite column
    with pytest.raises(DivergenceError, match="^non-finite trace metric r_opt at t=217$") as err:
        run_experiment(diverging_config(tmp_path, cadence=1))
    assert (err.value.t, err.value.agent, err.value.phase) == (217, None, None)


def test_cli_reports_a_diverging_run_as_an_error(tmp_path, capsys):
    cfg = diverging_config(tmp_path, cadence=1)
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps({f.name: getattr(cfg, f.name) for f in fields(cfg)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite trace metric r_opt at t=217")
    assert "RuntimeWarning" not in err and not Path(cfg.output).exists()


def test_a_dataset_whose_optimum_is_zero_is_refused(tmp_path):
    # every label is 0, so x = 0 is optimal and there is no suboptimality to normalize by
    data = tmp_path / "zeros.txt"
    data.write_text("".join(f"0 1:{k}.0 2:1.0\n" for k in range(1, 11)))
    with pytest.raises(ConfigurationError, match="^zero initial suboptimality"):
        run_experiment(base_config(tmp_path, dataset=str(data)))
    assert not (tmp_path / "trace.csv").exists()


def test_a_failure_that_is_not_a_divergence_aborts_the_run_naming_the_iteration(
        tmp_path, monkeypatch):
    kkt_residuals = experiment.kkt_residuals

    def failing(ns):
        if ns.t == 2:
            raise ArithmeticError("no residuals")
        return kkt_residuals(ns)

    monkeypatch.setattr(experiment, "kkt_residuals", failing)
    with pytest.raises(RuntimeError, match="^ridge run aborted at iteration 2: no residuals$") \
            as err:
        run_experiment(base_config(tmp_path, cadence=1))
    assert isinstance(err.value.__cause__, ArithmeticError)
    assert not (tmp_path / "trace.csv").exists()


def test_epsilon_at_or_below_half_M_f_logs_a_warning(tmp_path, caplog):
    cfg = base_config(tmp_path, iterations=3, cadence=1)
    with open(cfg.dataset) as fh:
        problem = build_problem(cfg, parse_libsvm(fh))
    half = problem.smoothness.M_f / 2

    def run(epsilon, level, name):
        caplog.clear()
        cfg = base_config(tmp_path, iterations=3, cadence=1, epsilon=epsilon,
                          output=str(tmp_path / name))
        with caplog.at_level(level, logger="druid"):
            trace = run_experiment(cfg).read_bytes()
        return trace, [r for r in caplog.records if r.name == "druid"]

    for epsilon in (half, 0.5 * half):
        warned, records = run(epsilon, logging.WARNING, "warned.csv")
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        assert "epsilon > M_f/2" in records[0].getMessage()
        quiet, records = run(epsilon, logging.ERROR, "quiet.csv")
        assert not records
        assert warned == quiet  # the warning changes no trace byte
    _, records = run(np.nextafter(half, np.inf), logging.WARNING, "safe.csv")
    assert not records
    _, records = run(None, logging.WARNING, "derived.csv")  # 0.55 M_f
    assert not records


def test_build_problem_binarizes_labels_over_the_whole_dataset(tmp_path):
    ds = parse_libsvm("3 1:1.0\n7 1:2.0\n7 1:3.0\n7 1:4.0\n")
    cfg = base_config(tmp_path, problem="logistic_l1", agents=2)
    problem = build_problem(cfg, ds)
    parts = partition(ds, 2, cfg.partition_seed)
    objectives = objectives_of(problem)
    for obj, rows in zip(objectives, parts):
        assert obj.features[:, 0].tolist() == [r + 1.0 for r in rows]
        assert obj.targets.tolist() == [float(r > 0) for r in rows]
    # one agent holds only the label 7, which still maps to 1
    assert [1.0, 1.0] in [obj.targets.tolist() for obj in objectives]


RUN_PATH_CONFIGS = {
    "lasso-newton-sync": dict(problem="lasso", scheme="newton"),
    "ridge-gradient-async": dict(scheme="gradient", mode="async", activation_p=0.5,
                                 activation_seed=4, cadence=1),
    "logistic-bfgs-async": dict(problem="logistic_l1", gamma=0.01, scheme="bfgs", epsilon=3.0,
                                psi=5.0, mode="async", activation="fixed_count",
                                activation_count=2, activation_seed=9),
}


@pytest.mark.parametrize("name", RUN_PATH_CONFIGS)
def test_run_path_evaluates_the_objectives_only_in_batches(tmp_path, name, monkeypatch):
    """Setup, reference solve, steps and metrics read the stacks of the
    ConsensusProblem: no per-objective method or cache is read, and no
    per-agent objective is even built."""
    kw = dict(RUN_PATH_CONFIGS[name])
    if kw.get("problem") == "logistic_l1":
        write_dataset(tmp_path / "cls.txt", classification=True, seed=3)
        kw["dataset"] = str(tmp_path / "cls.txt")
    cfg = base_config(tmp_path, **kw)

    def forbidden(obj):
        raise AssertionError("the run path built or read a per-agent objective")

    for member in ("value", "gradient", "hessian", "hessian_bound", "_gram", "_atb"):
        monkeypatch.setattr(LocalObjective, member, property(forbidden))
    monkeypatch.setattr(LocalObjective, "__post_init__", forbidden)
    assert len(read_rows(run_experiment(cfg))) >= 2
