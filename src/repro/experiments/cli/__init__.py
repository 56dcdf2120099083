"""``dhetpnoc-repro``: regenerate thesis exhibits from the command line.

Examples::

    dhetpnoc-repro list
    dhetpnoc-repro run figure-3-3 --fidelity quick --seed 1 --workers 4
    dhetpnoc-repro run table-3-5
    dhetpnoc-repro run --spec spec.json --workers 4 --store results/store.jsonl
    dhetpnoc-repro all --fidelity quick --workers 4 --store results/store.jsonl
    dhetpnoc-repro sweep --arch firefly dhetpnoc --pattern uniform skewed3 \\
        --bw-set 1 --seeds 1 2 3 --workers 4 --store results/store.jsonl
    dhetpnoc-repro sweep --adaptive --resolution 0.05 --pattern skewed3
    dhetpnoc-repro serve --port 7123 --store results/shards/ --workers 4
    dhetpnoc-repro fabric worker --connect localhost:7123
    dhetpnoc-repro jobs submit spec.json --connect localhost:7123
    dhetpnoc-repro jobs status job-abc123def456 --connect localhost:7123
    dhetpnoc-repro run --spec spec.json --fabric localhost:7123
    dhetpnoc-repro store info --store results/shards/ --store-backend sharded
    dhetpnoc-repro store compact --store results/store.jsonl
    dhetpnoc-repro scenarios list
    dhetpnoc-repro scenarios describe hotspot_drift
    dhetpnoc-repro scenarios run hotspot_drift --arch firefly dhetpnoc
    dhetpnoc-repro scenarios sweep --scenario steady fault_storm --workers 4
    dhetpnoc-repro scenarios load my_workload.json
    dhetpnoc-repro scenarios run my_workload.json --arch dhetpnoc
    dhetpnoc-repro trace record --out burst.jsonl --scenario burst_storm
    dhetpnoc-repro trace info burst.jsonl
    dhetpnoc-repro trace replay burst.jsonl --arch firefly dhetpnoc
    dhetpnoc-repro ml export --store results/store.jsonl --out dataset.json
    dhetpnoc-repro ml fit dataset.json --out model.json
    dhetpnoc-repro sweep --adaptive --model model.json --pattern skewed3

The package is a table of verbs: :mod:`.options` declares every shared
flag once (and holds what each handler does around its work -- open
the session, validate names and files, fail through one
:class:`~repro.experiments.cli.options.CliError`); one module per verb
group, in ``--help`` order, declares its parsers in ``register(sub)``
and binds every leaf to its handler; :func:`main` parses, calls
``args.handler(args)`` and owns the one error exit.

Every command is a thin wrapper over :mod:`repro.api`: flags build an
:class:`~repro.api.ExperimentSpec` (one shared builder serves ``sweep``,
``scenarios sweep`` and ``run --spec``), and a
:class:`~repro.api.Session` owns the worker pool and the result store.
``run --spec spec.json`` executes a fully declarative experiment — the
JSON form of a spec (``ExperimentSpec.save``/``load``) — and produces
bitwise-identical results and store keys to the equivalent flag-based
invocation. Architecture, bandwidth-set, fidelity and store-backend
choices all derive from the :mod:`repro.api.registry` tables, so a
``register()``-ed plugin appears here automatically.

``--workers`` fans the sweep grid out over a process pool; ``--store``
persists every simulated point as JSONL so re-runs (and other exhibits
sharing the same points) are instant cache hits. ``--store-backend
sharded`` (or a directory path) splits the store into one shard per
(architecture, bandwidth set); ``store compact`` dedupes and rewrites a
store offline. ``sweep --adaptive`` replaces the fixed load grid with
the knee-bisection search (see docs/sweeps.md). The ``scenarios``
subcommands script time-varying workloads (see docs/scenarios.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.cli import fabric, ml, run, scenarios, store, trace
from repro.experiments.cli.options import CliError

__all__ = ["build_parser", "main"]

#: The verb groups, in the order ``--help`` lists their verbs.
VERB_GROUPS = (run, fabric, store, scenarios, trace, ml)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhetpnoc-repro",
        description="Reproduce tables/figures of the d-HetPNoC thesis (SOCC 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in VERB_GROUPS:
        group.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A handler returns an exit status only when it is not 0.
        return args.handler(args) or 0
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
