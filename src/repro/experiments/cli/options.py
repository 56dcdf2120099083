"""The flags several verbs share, and what every handler does around its work.

Each shared flag is declared by exactly one ``add_argument`` call here
-- its type, its choices (read off the :mod:`repro.api.registry`
tables, so a ``register()``-ed plugin appears on every verb at once)
and its help -- and the verb modules pass only what genuinely differs:
the default, or a verb-specific help line. Below the flags are the
three things a handler does besides its own work: open the
:class:`~repro.api.Session` its parallel options describe, validate
what argparse cannot (pattern names, a scenario given by name or by
script path, a model file), and fail through :class:`CliError`.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

from repro.api.registry import architectures, bandwidth_sets, fidelities
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.experiments.runner import QUICK_FIDELITY
from repro.experiments.store import backend_names


class CliError(Exception):
    """A handler's error exit: ``main`` prints *message* to stderr (the
    whole line, program name included) and returns *code*."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Flags
# ---------------------------------------------------------------------------

def _fidelity(name: str):
    """argparse type: resolve ``--fidelity`` via the fidelity registry."""
    try:
        return fidelities.get(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown fidelity {name!r} ({'|'.join(fidelities.names())})"
        )


def _workers(value: str, minimum: int = 1) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if n < minimum:
        raise argparse.ArgumentTypeError(f"need at least {minimum} worker(s)")
    return n


def _nargs(default) -> Optional[str]:
    """A list default makes the flag an axis (one or more values)."""
    return "+" if isinstance(default, list) else None


def add_arch(parser: argparse.ArgumentParser, default) -> None:
    parser.add_argument(
        "--arch", nargs=_nargs(default), default=default,
        choices=list(architectures.names()),
    )


def add_bw_set(parser: argparse.ArgumentParser, default=1) -> None:
    parser.add_argument(
        "--bw-set", nargs=_nargs(default), type=int, default=default,
        choices=sorted(bandwidth_sets.names()),
    )


def add_fidelity(parser: argparse.ArgumentParser, default=QUICK_FIDELITY) -> None:
    parser.add_argument("--fidelity", type=_fidelity, default=default)


def add_seed(
    parser: argparse.ArgumentParser, default: Optional[int] = 1,
    help: Optional[str] = None,
) -> None:
    parser.add_argument("--seed", type=int, default=default, help=help)


def add_load_fraction(
    parser: argparse.ArgumentParser, help: Optional[str] = None
) -> None:
    parser.add_argument("--load-fraction", type=float, default=0.6, help=help)


def add_pattern(parser: argparse.ArgumentParser, help: str) -> None:
    """The one-pattern form (a run's pattern, or a scenario's base)."""
    parser.add_argument("--pattern", default="uniform", help=help)


def add_grid_axes(parser: argparse.ArgumentParser) -> None:
    """The shared (arch, bw set, pattern, seeds, fidelity) axis flags.

    The default grid is pinned to the thesis pair; registered plugin
    architectures appear in the *choices* but never silently join a
    default sweep.
    """
    add_arch(parser, ["firefly", "dhetpnoc"])
    add_bw_set(parser, [1])
    parser.add_argument("--pattern", nargs="+", default=["uniform"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    add_fidelity(parser)


def add_parallel_options(parser: argparse.ArgumentParser) -> None:
    """How a verb that simulates fans out and persists (see
    :func:`open_session`)."""
    parser.add_argument(
        "--workers", type=_workers, default=1,
        help="simulation worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSONL result store; makes runs resumable across invocations",
    )
    parser.add_argument(
        "--store-backend", default="auto",
        # "memory" is excluded: pairing it with --store would silently
        # drop persistence, and without --store "auto" is memory anyway.
        choices=[n for n in backend_names() if n != "memory"],
        help="store layout: one monolithic JSONL file, one shard per "
        "(arch, bandwidth set) under a directory, or 'remote' (--store "
        "is then a fabric coordinator host:port) (default: auto — a "
        "directory path selects sharded)",
    )
    parser.add_argument(
        "--fabric", default=None, metavar="HOST:PORT",
        help="submit cache misses to a distributed fabric coordinator "
        "('fabric serve') instead of a local worker pool; results are "
        "bitwise-identical (see docs/fabric.md)",
    )


def add_daemon_options(
    parser: argparse.ArgumentParser, port: int, owner: str, no_backends
) -> None:
    """Where a daemon (``fabric serve`` / ``serve``) binds and stores."""
    parser.add_argument("--host", default="0.0.0.0",
                        help="bind address (default: all interfaces)")
    parser.add_argument("--port", type=int, default=port,
                        help=f"bind port (default: {port}; 0 picks a free one)")
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="persistent store every peer shares (directory = sharded); "
        f"omitting it keeps results in {owner} memory only",
    )
    parser.add_argument(
        "--store-backend", default="auto",
        choices=[n for n in backend_names() if n not in no_backends],
    )


def add_store_options(parser: argparse.ArgumentParser) -> None:
    """The existing store a maintenance or export verb works on."""
    parser.add_argument("--store", required=True, metavar="PATH")
    parser.add_argument(
        "--store-backend", default="auto", choices=list(backend_names()),
    )


# ---------------------------------------------------------------------------
# Around a handler's work
# ---------------------------------------------------------------------------

def open_session(args) -> Session:
    """The :class:`Session` a verb's parallel options describe.

    Without ``--store`` the session's store is in-memory and lives for
    this command only. ``--fabric`` swaps the local worker pool for a
    distributed-fabric connection.
    """
    return Session(
        args.store, backend=args.store_backend, workers=args.workers,
        fabric=args.fabric,
    )


def check_patterns(names, prog: str) -> None:
    """Reject the first bad pattern name (``PatternError`` or a
    malformed skew level) as *prog*'s error."""
    from repro.traffic.patterns import pattern_by_name

    for name in names:
        try:
            pattern_by_name(name)
        except ValueError as exc:
            raise CliError(
                f"dhetpnoc-repro {prog}: error: invalid pattern {name!r} ({exc})"
            )


def resolve_scenario(value: str) -> str:
    """A scenario axis entry: a registry name, or a JSON script path.

    Path-looking entries (a ``.json`` suffix or a path separator) are
    loaded and registered, so downstream code only ever sees names.
    """
    from repro.scenarios.library import load_scenario_file
    from repro.scenarios.schedule import ScenarioError

    if not (value.endswith(".json") or os.sep in value):
        return value
    try:
        return load_scenario_file(value).name
    except (OSError, ScenarioError) as exc:
        raise CliError(
            f"dhetpnoc-repro scenarios: error: bad scenario file "
            f"{value!r}: {exc}"
        )


def load_model(path: str, prog: str):
    """Load a fitted QoS model (``ml fit``'s output) for *prog*."""
    from repro.ml.model import load_model

    try:
        return load_model(path)
    except (OSError, KeyError, ValueError) as exc:
        raise CliError(
            f"dhetpnoc-repro {prog}: error: bad model {path!r}: {exc}"
        )
    except RuntimeError as exc:  # numpy unavailable
        raise CliError(f"dhetpnoc-repro {prog}: error: {exc}")


def load_spec(path: str, prog: str) -> ExperimentSpec:
    """Load a declarative spec JSON file for *prog*."""
    try:
        return ExperimentSpec.load(path)
    # KeyError: registry lookups keyed by non-string names (an unknown
    # bandwidth-set index) raise it rather than ValueError.
    except (OSError, KeyError, ValueError) as exc:
        raise CliError(
            f"dhetpnoc-repro {prog}: error: bad spec {path!r}: {exc}"
        )


def spec_from_args(args, scenarios=(None,), mode: str = "grid") -> ExperimentSpec:
    """The one spec builder behind ``sweep`` and ``scenarios sweep``:
    the :func:`add_grid_axes` flags as an :class:`ExperimentSpec`."""
    return ExperimentSpec(
        archs=tuple(args.arch),
        bw_sets=tuple(args.bw_set),
        patterns=tuple(args.pattern),
        scenarios=tuple(scenarios),
        seeds=tuple(args.seeds),
        fidelity=args.fidelity,
        derive_seeds=not getattr(args, "fixed_seeds", False),
        mode=mode,
        resolution=getattr(args, "resolution", 0.05),
    )
