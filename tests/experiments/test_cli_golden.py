"""Golden pins for the ``dhetpnoc-repro`` command line.

The CLI has no reference implementation to compare against, so its
surface is pinned by value, the way ``tests/arch/gateway_golden.json``
pins the photonic gateway:

``parsers``
    for every parser reachable from ``build_parser()`` a *structural*
    dump of its actions (option strings, dest, nargs, default, type
    name, choices, required, metavar, help) -- independent of terminal
    width and of the Python minor version -- plus ``format_help()`` at
    ``COLUMNS=80``, which is compared only on the Python minor version
    that recorded it (argparse's usage wrapping moves between minors);
``transcript``
    exit code, stdout and stderr of a fixed, ordered list of in-process
    ``main(argv)`` calls in a scratch working directory, and the sha256
    of every file each call wrote: every non-blocking leaf on its happy
    path and every ``error:`` exit that needs no live daemon. ``all``,
    the daemons and the live-daemon ``jobs`` verbs stay with the CI
    smoke lanes and ``tests/service``; ``fabric worker``'s unreachable
    exit is left out because its eight-dial backoff sleeps 9 s
    (``tests/experiments/test_fabric.py`` starts workers through the
    same entry point).

Both are collected in **one subprocess** (``--emit``) so that nothing
another test registered (scenarios, plugin architectures, a logging
handler) can leak into what is compared.

The numbers in ``cli_golden.json`` were produced by the commit before
``experiments/cli.py`` became a package. Regenerate them only for a
change that is *meant* to alter the command line::

    PYTHONPATH=src python tests/experiments/test_cli_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import pytest

GOLDEN_PATH = pathlib.Path(__file__).with_name("cli_golden.json")

#: Nothing listens on TCP port 1: every dial is refused, and after the
#: client's bounded backoff (~3 s) the verb takes its unreachable exit.
DEAD = "127.0.0.1:1"

#: The calls that do dial :data:`DEAD`. Their transcript is the exit
#: after the last refused attempt, not the waiting between attempts, so
#: the collector runs them with the backoff's sleep stubbed out.
DIALS_DEAD = frozenset({
    "sweep-fabric-unreachable", "jobs-unreachable",
})

#: Priced by ``run --spec --dry-run`` in place of the newest committed
#: ledger record, so a new ``BENCH_<n>.json`` does not move the
#: transcript: 10 000 cycles/s is 0.07 s per 700-cycle point.
BASELINE = {"workloads": {"photonic_busy": {"metrics": {
    "sim_cycles_per_s": {"value": 10000.0}}}}}

#: Scratch files written before the first call, by name.
TEXT_FIXTURES = {
    "record.json": json.dumps(BASELINE),
    "broken.json": "{not json",
    "bad_script.json": '{"name": "bad", "phases": "nope"}\n',
    "bad_trace.csv": "not,a,trace\n1,2\n",
    "bad_dataset.json": '{"rows": 3}\n',
    "bad_model.json": '{"kind": "nope"}\n',
}

#: Scratch files copied byte for byte before the first call: a
#: ten-phase scenario script fitted to the ``record-scenario`` trace,
#: which ``scenarios load``, ``run`` and ``sweep`` read.
FILE_FIXTURES = {
    "script.json": GOLDEN_PATH.with_name("data") / "recorded_script.json",
}

#: The ordered transcript. Later calls read what earlier ones wrote.
CALLS = (
    ("list", ["list"]),
    # -- run: the four flag-conflict exits ----------------------------------
    ("run-neither", ["run"]),
    ("run-model-without-spec", ["run", "table-3-5", "--model", "model.json"]),
    ("run-seed-with-spec", ["run", "--spec", "grid.json", "--seed", "2"]),
    ("run-dry-run-without-spec", ["run", "table-3-5", "--dry-run"]),
    # -- run: exhibits ------------------------------------------------------
    ("run-static-table", ["run", "table-3-5"]),
    ("run-exhibit-cold",
     ["run", "figure-3-8", "--seed", "2", "--store", "fig.jsonl"]),
    ("run-exhibit-warm",
     ["run", "figure-3-8", "--seed", "2", "--store", "fig.jsonl"]),
    ("run-scenario-exhibit",
     ["run", "closed-loop-shedding", "--fidelity", "quick"]),
    # -- run --spec ---------------------------------------------------------
    ("spec-missing", ["run", "--spec", "missing.json"]),
    ("spec-malformed", ["run", "--spec", "broken.json"]),
    ("spec-unknown-bw-set", ["run", "--spec", "bw_set_9.json"]),
    ("spec-model-needs-adaptive",
     ["run", "--spec", "grid.json", "--model", "model.json"]),
    ("spec-model-missing",
     ["run", "--spec", "adaptive.json", "--model", "missing-model.json"]),
    ("spec-model-malformed",
     ["run", "--spec", "adaptive.json", "--model", "bad_model.json"]),
    ("spec-grid-dry-run-cold",
     ["run", "--spec", "grid.json", "--store", "spec.jsonl", "--dry-run"]),
    ("spec-grid-cold", ["run", "--spec", "grid.json", "--store", "spec.jsonl"]),
    ("spec-grid-warm", ["run", "--spec", "grid.json", "--store", "spec.jsonl"]),
    ("spec-grid-dry-run-warm",
     ["run", "--spec", "grid.json", "--store", "spec.jsonl", "--dry-run",
      "--workers", "2"]),
    ("spec-grid-sharded",
     ["run", "--spec", "grid.json", "--store", "shards/",
      "--store-backend", "sharded"]),
    ("spec-adaptive-dry-run", ["run", "--spec", "adaptive.json", "--dry-run"]),
    ("spec-adaptive",
     ["run", "--spec", "adaptive.json", "--store", "spec.jsonl"]),
    # -- sweep --------------------------------------------------------------
    ("sweep-bad-pattern", ["sweep", "--pattern", "uniform", "bogus"]),
    ("sweep-model-needs-adaptive", ["sweep", "--model", "model.json"]),
    ("sweep-model-missing",
     ["sweep", "--adaptive", "--model", "missing-model.json"]),
    ("sweep-duplicate-axis", ["sweep", "--seeds", "1", "1"]),
    ("sweep-grid",
     ["sweep", "--arch", "firefly", "dhetpnoc", "--pattern", "uniform",
      "skewed3", "--bw-set", "1", "--seeds", "1", "2", "--store",
      "train.jsonl"]),
    ("sweep-fixed-seeds",
     ["sweep", "--arch", "electrical", "--fixed-seeds", "--store",
      "train.jsonl"]),
    ("sweep-adaptive",
     ["sweep", "--adaptive", "--arch", "dhetpnoc", "--resolution", "0.1",
      "--store", "knee-analytic.jsonl"]),
    ("sweep-fabric-unreachable",
     ["sweep", "--arch", "firefly", "--fabric", DEAD]),
    ("jobs-unreachable", ["jobs", "list", "--connect", DEAD]),
    # -- store --------------------------------------------------------------
    ("store-info", ["store", "info", "--store", "spec.jsonl"]),
    ("store-info-sharded", ["store", "info", "--store", "shards/"]),
    ("store-compact", ["store", "compact", "--store", "train.jsonl"]),
    ("store-compact-sharded",
     ["store", "compact", "--store", "shards/", "--store-backend", "sharded"]),
    # -- trace --------------------------------------------------------------
    ("record-bad-pattern",
     ["trace", "record", "--out", "no.jsonl", "--pattern", "bogus"]),
    ("record-unknown-scenario",
     ["trace", "record", "--out", "no.jsonl", "--scenario", "nope"]),
    ("record-bad-scenario-file",
     ["trace", "record", "--out", "no.jsonl", "--scenario",
      "bad_script.json"]),
    ("record-pattern",
     ["trace", "record", "--out", "pattern.jsonl", "--arch", "firefly",
      "--pattern", "skewed2", "--load-fraction", "0.4"]),
    ("record-scenario",
     ["trace", "record", "--out", "trace.jsonl", "--scenario",
      "bursty_uniform", "--seed", "3"]),
    ("record-closed-loop",
     ["trace", "record", "--out", "shed.jsonl", "--scenario",
      "closed_loop_shedding", "--pattern", "skewed3", "--load-fraction",
      "0.9", "--bw-set", "2"]),
    ("trace-info", ["trace", "info", "trace.jsonl", "--top", "3"]),
    ("trace-info-missing", ["trace", "info", "missing.jsonl"]),
    ("trace-replay",
     ["trace", "replay", "trace.jsonl", "--arch", "firefly", "dhetpnoc"]),
    ("trace-replay-malformed", ["trace", "replay", "bad_trace.csv"]),
    # -- scenarios ----------------------------------------------------------
    ("scenarios-list", ["scenarios", "list"]),
    ("describe", ["scenarios", "describe", "hotspot_drift"]),
    ("describe-unknown", ["scenarios", "describe", "nope"]),
    ("load", ["scenarios", "load", "script.json"]),
    ("load-malformed", ["scenarios", "load", "bad_script.json"]),
    ("scenario-run",
     ["scenarios", "run", "load_spike", "--pattern", "skewed3"]),
    ("scenario-run-script",
     ["scenarios", "run", "script.json", "--arch", "firefly", "dhetpnoc",
      "--load-fraction", "0.5"]),
    ("scenario-run-unknown", ["scenarios", "run", "nope"]),
    ("scenario-run-bad-pattern",
     ["scenarios", "run", "steady", "--pattern", "bogus"]),
    ("scenario-run-bad-file", ["scenarios", "run", "bad_script.json"]),
    ("scenario-sweep",
     ["scenarios", "sweep", "--scenario", "steady", "script.json", "--arch",
      "dhetpnoc", "--store", "scen.jsonl"]),
    ("scenario-sweep-unknown", ["scenarios", "sweep", "--scenario", "nope"]),
    ("scenario-sweep-bad-pattern",
     ["scenarios", "sweep", "--pattern", "bogus"]),
    ("scenario-sweep-bad-file",
     ["scenarios", "sweep", "--scenario", "missing.json"]),
    ("scenario-sweep-duplicate-axis",
     ["scenarios", "sweep", "--arch", "firefly", "firefly"]),
    ("fuzz",
     ["scenarios", "fuzz", "--count", "2", "--seed", "7", "--total-cycles",
      "500", "--out", "findings.json"]),
    ("fuzz-bad-pattern", ["scenarios", "fuzz", "--pattern", "bogus"]),
    # -- ml -----------------------------------------------------------------
    ("export-empty-store",
     ["ml", "export", "--store", "empty.jsonl", "--out", "no.json"]),
    ("export", ["ml", "export", "--store", "train.jsonl", "--out",
                "dataset.json"]),
    ("fit-malformed", ["ml", "fit", "bad_dataset.json", "--out", "no.json"]),
    ("fit", ["ml", "fit", "dataset.json", "--out", "model.json", "--seed",
             "4"]),
    ("sweep-adaptive-model",
     ["sweep", "--adaptive", "--model", "model.json", "--arch", "dhetpnoc",
      "--resolution", "0.1", "--store", "knee-model.jsonl"]),
    ("spec-adaptive-model-dry-run",
     ["run", "--spec", "adaptive.json", "--model", "model.json",
      "--dry-run"]),
    # -- validate -----------------------------------------------------------
    ("validate", ["validate"]),
)

#: Files whose bytes come out of numpy's linear algebra: hashed only on
#: the numpy version that recorded them.
NUMPY_FILES = ("model.json",)


# ---------------------------------------------------------------------------
# Collection (runs in the --emit subprocess)
# ---------------------------------------------------------------------------

def _plain(value):
    """A JSON-able, name-stable rendering of an argparse default."""
    if hasattr(value, "load_fractions"):  # a Fidelity, by name
        return f"Fidelity:{value.name}"
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _describe_action(action) -> dict:
    row = {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "nargs": action.nargs,
        "default": _plain(action.default),
        "type": getattr(action.type, "__name__", None),
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }
    if isinstance(action, argparse._SubParsersAction):
        # The one-line verb summaries of the parent's help listing.
        row["verbs"] = [[a.dest, a.help] for a in action._choices_actions]
    return row


def _walk(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _walk(child)


def collect_parsers() -> dict:
    from repro.experiments.cli import build_parser

    return {
        parser.prog: {
            "actions": [_describe_action(a) for a in parser._actions],
            "help": parser.format_help(),
        }
        for parser in _walk(build_parser())
    }


def _write_fixtures() -> None:
    from repro.api import ExperimentSpec
    from repro.experiments.runner import Fidelity

    for name, text in TEXT_FIXTURES.items():
        pathlib.Path(name).write_text(text, encoding="utf-8")
    for name, path in FILE_FIXTURES.items():
        pathlib.Path(name).write_bytes(path.read_bytes())
    golden = Fidelity("golden", 600, 100, (0.25, 0.60, 1.00))
    axes = dict(archs=("firefly", "dhetpnoc"), bw_sets=(1,),
                patterns=("uniform",), seeds=(1,), fidelity=golden)
    ExperimentSpec(**axes).save("grid.json")
    unknown = dict(ExperimentSpec(**axes).to_dict(), bw_sets=[9])
    pathlib.Path("bw_set_9.json").write_text(json.dumps(unknown))
    ExperimentSpec(mode="adaptive", resolution=0.1, **axes).save(
        "adaptive.json")


def _snapshot() -> dict:
    return {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(pathlib.Path(".").rglob("*"))
        if path.is_file()
    }


def collect_transcript() -> list:
    """Run :data:`CALLS` in order in the current (scratch) directory."""
    from repro.experiments.cli import main

    _write_fixtures()
    rows = []
    before = _snapshot()
    for name, argv in CALLS:
        out, err = io.StringIO(), io.StringIO()
        backoff = (
            mock.patch("repro.fabric.server.time.sleep")
            if name in DIALS_DEAD else contextlib.nullcontext()
        )
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), backoff:
            code = main(argv)
        after = _snapshot()
        written = {
            path: after.get(path)  # None: the call deleted it
            for path in sorted(set(before) | set(after))
            if before.get(path) != after.get(path)
        }
        before = after
        rows.append({
            "name": name, "argv": argv, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": written,
        })
    return rows


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def collect(parsers_only: bool = False) -> dict:
    record = {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": _numpy_version(),
        "parsers": collect_parsers(),
    }
    if not parsers_only:
        record["transcript"] = collect_transcript()
    return record


def _emit(*flags) -> dict:
    """Collect in a fresh interpreter, in a scratch working directory."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env.pop("REPRO_FIDELITY", None)
    env.update(
        PYTHONPATH=src + os.pathsep + env.get("PYTHONPATH", ""),
        COLUMNS="80",
        REPRO_BENCH_BASELINE="record.json",
    )
    with tempfile.TemporaryDirectory(prefix="cli-golden-") as scratch:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--emit", *flags],
            cwd=scratch, env=env, stdout=subprocess.PIPE, text=True,
            timeout=600,
        )
    assert proc.returncode == 0, "CLI golden collection crashed (see stderr)"
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.fixture(scope="module")
def observed():
    """Parsers and transcript from one collector process (the parsers
    alone where numpy, which ``ml fit`` needs, is missing)."""
    return _emit() if _numpy_version() else _emit("--parsers-only")


@pytest.fixture(scope="module")
def observed_parsers(observed):
    return observed["parsers"]


@pytest.fixture(scope="module")
def observed_transcript(observed):
    if "transcript" not in observed:
        pytest.skip("numpy is not installed (`ml fit`, the model-seeded sweeps)")
    return {row["name"]: row for row in observed["transcript"]}


def test_golden_lists_every_call_in_order():
    assert [row["name"] for row in GOLDEN["transcript"]] == [
        name for name, _argv in CALLS
    ]
    assert [row["argv"] for row in GOLDEN["transcript"]] == [
        argv for _name, argv in CALLS
    ]


def test_every_parser_is_pinned(observed_parsers):
    assert sorted(observed_parsers) == sorted(GOLDEN["parsers"])


@pytest.mark.parametrize("prog", sorted(GOLDEN.get("parsers", ())))
def test_parser_structure(observed_parsers, prog):
    assert observed_parsers[prog]["actions"] == GOLDEN["parsers"][prog]["actions"]


@pytest.mark.parametrize("prog", sorted(GOLDEN.get("parsers", ())))
def test_help_text(observed_parsers, prog):
    if "%d.%d" % sys.version_info[:2] != GOLDEN["python"]:
        pytest.skip(f"help text recorded on Python {GOLDEN['python']}")
    assert observed_parsers[prog]["help"] == GOLDEN["parsers"][prog]["help"]


@pytest.mark.parametrize(
    "expected", GOLDEN.get("transcript", ()), ids=lambda row: row["name"]
)
def test_transcript(observed_transcript, expected):
    observed = dict(observed_transcript[expected["name"]])
    expected = dict(expected)
    if _numpy_version() != GOLDEN["numpy"]:
        for row in (observed, expected):
            row["files"] = {
                path: digest for path, digest in row["files"].items()
                if path not in NUMPY_FILES
            }
    assert observed == expected


if __name__ == "__main__":
    if "--emit" in sys.argv:
        json.dump(collect("--parsers-only" in sys.argv), sys.stdout)
    else:
        GOLDEN_PATH.write_text(
            json.dumps(_emit(), indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_PATH}")
