"""The four workloads: request lists built from the seed, with their checks.

A request is one ``ovbkit`` command line.  Every workload's request list is
a cycle that the closed loop repeats until its time is up, ordered so that
any prefix of the cycle holds each kind of request in about its share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import checks
import inputs

REGULAR_DEADLINE_S = 60.0
# Long enough for the import plus about a second of enumeration; beyond
# that a request is past the adjustment cliff.
CLIFF_DEADLINE_S = 2.5
SIMULATE_DEADLINE_S = 100.0
# Regular-class augment stays at or below this many nodes.  Above it the
# per-edge enumeration takes seconds to minutes today, so only the largest
# regular DAG is augmented, as a beyond-cliff request.
REGULAR_AUGMENT_MAX_NODES = 13


@dataclass
class Request:
    label: str
    argv: list[str]
    check: Callable[[int, bytes], str | None]
    deadline_s: float = REGULAR_DEADLINE_S
    cliff: bool = False            # an overrun is recorded, not failed
    fits: int = 0                  # repetition fits done by a simulate request
    identical_group: str | None = None  # members must print identical bytes


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    requests: list[Request]


def _interleave(groups: list[list[Request]]) -> list[Request]:
    """Spread each group evenly over one cycle (stride scheduling)."""
    keyed = [
        ((i + 0.5) / len(group), g, req)
        for g, group in enumerate(groups)
        for i, req in enumerate(group)
    ]
    return [req for *_, req in sorted(keyed, key=lambda k: (k[0], k[1]))]


def _dag_request(tag: str, dag: inputs.RandomDag, augment: bool, cliff: bool) -> Request:
    command = "augment" if augment else "adjust"
    if augment:
        check = functools.partial(checks.check_augment, dag)
    else:
        oracle = checks.DagOracle(dag.edges, dag.latent, dag.treatment, dag.outcome, dag.nodes)
        check = functools.partial(checks.check_adjust, oracle)
    return Request(command + ("-cliff" if cliff else ""), [command, tag, "--json"], check,
                   CLIFF_DEADLINE_S if cliff else REGULAR_DEADLINE_S, cliff)


def dag_adjust(seed: int) -> Workload:
    files = {"productivity.dag": inputs.PRODUCTIVITY_DAG}
    adjust, augment, cliff = [], [], []
    for k, dag in enumerate(inputs.regular_dags(seed)):
        tag = f"regular{k:02d}.dag"
        files[tag] = dag.text
        adjust.append(_dag_request(tag, dag, augment=False, cliff=False))
        if len(dag.nodes) <= REGULAR_AUGMENT_MAX_NODES:
            augment.append(_dag_request(tag, dag, augment=True, cliff=False))
    cliff.append(_dag_request(tag, dag, augment=True, cliff=True))  # the largest regular DAG
    for k, dag in enumerate(inputs.cliff_dags(seed)):
        tag = f"cliff{k:02d}.dag"
        files[tag] = dag.text
        cliff.append(_dag_request(tag, dag, augment=False, cliff=True))
    prod = inputs.productivity_dag()
    adjust.append(_dag_request("productivity.dag", prod, augment=False, cliff=False))
    augment.append(_dag_request("productivity.dag", prod, augment=True, cliff=False))
    return Workload("dag-adjust", files, _interleave([adjust, augment, cliff]))


def _sweep(name: str, configs: list[str], cells: int, reps: int, min_oracle_n: int) -> Workload:
    """One simulate request per config; ``cells`` is the cell count of each."""
    check = functools.partial(_check_simulate, cells, min_oracle_n)
    files, requests = {}, []
    for k, config in enumerate(configs):
        tag = f"sweep{k}.conf"
        files[tag] = config
        requests.append(Request("simulate", ["simulate", tag], check, SIMULATE_DEADLINE_S,
                                fits=cells * reps, identical_group=tag))
    return Workload(name, files, requests)


def _check_simulate(cells: int, min_oracle_n: int, exit_code: int, stdout: bytes) -> str | None:
    if exit_code != 0:
        return f"simulate exited {exit_code}"
    return checks.check_sweep(stdout, cells, min_oracle_n)


def sweep_table5(seed: int) -> Workload:
    # One request per z_t slice: a whole table5 run takes about 15 s, so a
    # run would hold only one or two of them; six slices of 54 cells give
    # several requests a run.
    cells = 3 * len(inputs.CONFOUNDER_WEIGHTS) * len(inputs.TABLE5_N)
    return _sweep("sweep-table5", inputs.table5_slices(seed), cells, 200, min_oracle_n=50)


def sweep_large_n(seed: int) -> Workload:
    cells = inputs.LARGE_N_POINTS * len(inputs.LARGE_N)
    return _sweep("sweep-large-n", [inputs.large_n_config(seed)], cells, inputs.LARGE_N_REPS,
                  min_oracle_n=min(inputs.LARGE_N))


def cli_session(seed: int) -> Workload:
    s = inputs.session_scalars(seed)
    files = {"session.csv": inputs.session_csv(seed), "productivity.dag": inputs.PRODUCTIVITY_DAG}
    oracle = functools.partial(_lazy_session_oracle, files["session.csv"], tuple(s.items()))

    def session(kind: str, argv: list[str]) -> Request:
        return Request(kind, [*argv, "--json"], functools.partial(_check_session, kind, oracle))

    def g(key: str) -> str:
        return repr(s[key])

    short = [
        session("tip-smd", ["tip", "--observed", g("observed"), "--solve", "smd", "--effect", g("effect")]),
        session("tip-effect", ["tip", "--observed", g("observed"), "--solve", "effect", "--smd", g("smd")]),
        session("tip-n", ["tip", "--observed", g("observed"), "--solve", "n", "--smd", g("smd"), "--effect", g("effect")]),
        session("evalue-point", ["evalue", "--estimate", g("estimate"), "--sigma", g("sigma"), "--delta", g("delta")]),
        session("evalue-se", ["evalue", "--estimate", g("estimate"), "--sigma", g("sigma"), "--se", g("se"), "--delta", g("delta")]),
        session("evalue-range", ["evalue", "--estimate", g("estimate"), "--sigma", g("sigma"), "--delta-range", "0.1:1.0:0.1"]),
    ]
    prod = inputs.productivity_dag()
    dags = [_dag_request("productivity.dag", prod, augment=augment, cliff=False)
            for augment in (False, True)]
    data = [
        session("fit", ["fit", "session.csv", "--outcome", "y", "--predictors", "t,x1,x2,x3"]),
        session("smd", ["smd", "session.csv", "--value", "x1", "--group", "g", "--treat", "1", "--ref", "0"]),
        session("evalue-fit", ["evalue", "--fit", "session.csv", "--outcome", "y", "--treatment", "t",
                               "--covariates", "x1,x2,x3", "--delta", "1"]),
    ]
    return Workload("cli-session", files, _interleave([short, dags, data]))


@functools.lru_cache(maxsize=4)
def _lazy_session_oracle(csv_text: str, scalars: tuple) -> checks.SessionOracle:
    return checks.SessionOracle(csv_text, dict(scalars))


def _check_session(kind: str, oracle, exit_code: int, stdout: bytes) -> str | None:
    return checks.check_session(kind, oracle(), exit_code, stdout)


WORKLOADS = {
    "sweep-table5": sweep_table5,
    "sweep-large-n": sweep_large_n,
    "dag-adjust": dag_adjust,
    "cli-session": cli_session,
}
