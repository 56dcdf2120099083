#!/usr/bin/env python3
"""Door census: which functions of ``src/repro`` a door reaches.

A *door* is what a user runs. This tool runs a fixed set of them under
``test_census``'s line tracer (subprocesses included) and records, for
every function in every module under ``src/repro``, which doors reach
it:

* each verb of the CLI transcript (``tests/experiments/test_cli_golden.py``):
  its calls run in order, one traced subprocess each, in one scratch
  directory, and each is charged to its leaf verb (``trace record``,
  ``scenarios run``, ...); the parser dump that pins every help page is
  the door ``--help``;
* each example (``tests/test_examples.py``), one door per test;
* the perf ledger's own test (``benchmarks/ledger/test_ledger.py``);
* ``all --fidelity quick --workers 1``, every exhibit and claim, as a
  traced subprocess;
* the daemon: ``tools/daemon_smoke.sh`` (the CI smokes of ``serve``,
  ``fabric worker`` and ``jobs``), in a scratch directory. It stops
  the daemon and its workers with SIGTERM, on which they exit cleanly,
  so each writes out what it ran.

Lines run while pytest collects the example and ledger tests are
charged to ``(collection)``.

A function counts as reached only when a line of its body runs: its
``def`` line runs at import. A nested function is classified on its
own, and its body is not its parent's. A function whose body is only a
docstring is skipped.

Functions no door reaches must be on ``tools/door_allowlist.txt``, one
line each with the roadmap item that will give it a door and why it is
kept (``docs/index.md``, "Keeping tier-1 lean"). The report goes to
``door-census.json``: per function, how many doors reach it, and per
door, the functions and the ``src/`` lines only it reaches -- what
removing that door would leave unreached. The exit status is 1 when a
function no door reaches is not on the list, or a listed name is no
function.

Usage::

    python tools/door_census.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import test_census

ROOT = test_census.ROOT
SRC = test_census.SRC
ALLOWLIST = test_census.TOOLS / "door_allowlist.txt"
REPORT = ROOT / "door-census.json"

#: The test files that drive doors (each runs an example or the ledger
#: as a user would).
DOOR_TESTS = (
    "tests/test_examples.py",
    "benchmarks/ledger/test_ledger.py",
)

#: The CLI transcript: its calls, its fixtures and its parser dump.
GOLDEN = ROOT / "tests" / "experiments" / "test_cli_golden.py"

#: Every exhibit and claim, serially so the one traced process runs all.
ALL_VERB = ("all", "--fidelity", "quick", "--workers", "1")

#: The daemons, their workers and the ``jobs`` verbs, as CI runs them.
DAEMON_SMOKE = test_census.TOOLS / "daemon_smoke.sh"


def functions(source: str):
    """Yield ``(qualname, body lines)`` for each function in *source*
    whose body is more than a docstring.

    The body lines run from the first statement after the docstring to
    the end of the function, less the bodies of functions nested in it.
    """

    def body_start(node):
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        return body[0].lineno if body else None

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                start = body_start(child)
                if start is not None:
                    lines = set(range(start, child.end_lineno + 1))
                    for inner in ast.walk(child):
                        if inner is not child and isinstance(
                            inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            lines -= set(range(inner.body[0].lineno,
                                               inner.end_lineno + 1))
                    yield name, lines
                yield from visit(child, f"{name}.<locals>.")
            else:
                yield from visit(child, prefix)

    yield from visit(ast.parse(source), "")


def classify(path: Path, doors: dict) -> dict:
    """``{qualname: {door}}`` for the functions in *path*: the doors
    that ran a line of its body, given the doors ``{line: {door}}`` that
    ran each line in it."""
    return {
        name: set().union(*(doors.get(line, ()) for line in lines))
        for name, lines in functions(path.read_text(encoding="utf-8"))
    }


def read_allowlist(path: Path = ALLOWLIST) -> set:
    """The ``module:qualname`` that starts each line; ``#`` starts a
    comment."""
    return {
        line.split()[0]
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.split("#", 1)[0].strip()
    }


def door_of(nodeid: str) -> str:
    """The door a test, or a process it started, is charged to: each
    example test is a door, the ledger's tests are one."""
    if nodeid.startswith(DOOR_TESTS[0] + "::"):
        return "example " + nodeid.rsplit("::", 1)[1].removeprefix("test_")
    if nodeid.startswith(DOOR_TESTS[1]):
        return "ledger test"
    return nodeid


class DoorCensus(test_census.Census):
    """Charges each ``src/`` line the set of doors that ran it."""

    def __init__(self, spool: Path) -> None:
        self.doors: dict = defaultdict(set)
        super().__init__(spool)

    def _record(self, nodeid: str, lines: set) -> None:
        door = door_of(nodeid)
        for line in lines:
            self.doors[line].add(door)


def leaf_verb(parser, argv) -> str:
    """The subcommand path *argv* names: ``trace record``, ``run``."""
    words = []
    for word in argv:
        choices = next((action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)),
                        {})
        if word not in choices:
            break
        parser = choices[word]
        words.append(word)
    return " ".join(words)


def run_transcript(census: DoorCensus, scratch: Path) -> None:
    """Run the CLI transcript's calls in order in *scratch*, one traced
    subprocess each, charged to ``cli <leaf verb>``; a call whose exit
    status is not the golden's counts as a failed report."""
    sys.path.insert(0, str(GOLDEN.parent))
    import test_cli_golden as golden
    from repro.experiments.cli import build_parser

    with contextlib.chdir(scratch):
        golden._write_fixtures()
    census.seen.clear()  # writing the fixtures is no door
    env = dict(os.environ, COLUMNS="80", REPRO_BENCH_BASELINE="record.json")
    parser = build_parser()
    calls = [("cli --help", [str(GOLDEN), "--emit", "--parsers-only"], 0)]
    calls += [
        (f"cli {leaf_verb(parser, argv)}",
         ["-m", "repro.experiments.cli", *argv], row["code"])
        for (_name, argv), row in zip(golden.CALLS,
                                      golden.GOLDEN["transcript"])
    ]
    for door, command, expected in calls:
        env[test_census.TEST_VAR] = door
        status = subprocess.run(
            [sys.executable, *command], cwd=scratch, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            check=False,
        ).returncode
        census.charge(door)
        if status != expected:
            print(f"`{' '.join(command)}` exited {status}, not {expected}")
            census.failed += 1


def run_doors():
    """Run every door under the tracer; returns ``({path: {line:
    {door}}}, number of failed reports)``, paths relative to the
    repository root."""
    import pytest

    with test_census.traced_children() as spool, \
            tempfile.TemporaryDirectory(prefix="door-census-") as scratch:
        census = DoorCensus(spool)
        pytest.main(["-q", "-p", "no:cacheprovider", *DOOR_TESTS],
                    plugins=[census])
        census.charge(census.current)
        transcript = Path(scratch, "transcript")
        transcript.mkdir()
        run_transcript(census, transcript)
        doors = (
            (" ".join(ALL_VERB),
             [sys.executable, "-m", "repro.experiments.cli", *ALL_VERB,
              "--store", str(Path(scratch, "all.jsonl"))]),
            (DAEMON_SMOKE.name, ["bash", str(DAEMON_SMOKE)]),
        )
        for name, command in doors:
            census.current = os.environ[test_census.TEST_VAR] = name
            status = subprocess.run(
                command, cwd=scratch, stdout=subprocess.DEVNULL, check=False,
            ).returncode
            census.charge(name)
            if status:
                print(f"`{name}` exited {status}")
                census.failed += 1
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    covered: dict = defaultdict(dict)
    for (filename, line), doors in census.doors.items():
        covered[os.path.relpath(filename, ROOT)][line] = doors
    return covered, census.failed


def attribute(covered: dict, doors_of: dict) -> dict:
    """Per door, what only it reaches: ``{door: {"only_lines": n,
    "only": [function]}}``, given the doors ``{file: {line: {door}}}``
    that ran each line and the doors ``{function: {door}}`` that reach
    each function. Every door that ran a line has a row."""
    every_door: set = set()
    only: dict = defaultdict(list)
    only_lines: dict = defaultdict(int)
    for lines in covered.values():
        for doors in lines.values():
            every_door |= doors
            if len(doors) == 1:
                only_lines[next(iter(doors))] += 1
    for key, doors in doors_of.items():
        if len(doors) == 1:
            only[next(iter(doors))].append(key)
    return {
        door: {"only_lines": only_lines[door], "only": only[door]}
        for door in sorted(every_door)
    }


def main() -> int:
    started = time.perf_counter()
    covered, failed = run_doors()
    doors_of = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for name, doors in classify(path, covered.get(rel, {})).items():
            doors_of[f"{module}:{name}"] = doors
    reached = {key: len(doors) for key, doors in doors_of.items()}
    unreached = [key for key, doors in doors_of.items() if not doors]
    per_door = attribute(covered, doors_of)
    listed = read_allowlist()
    unlisted = [key for key in unreached if key not in listed]
    no_function = sorted(listed - reached.keys())
    now_reached = sorted(key for key in listed if reached.get(key))
    REPORT.write_text(json.dumps({
        "seconds": round(time.perf_counter() - started, 1),
        "failed": failed,
        "functions": len(reached),
        "unreached": unreached,
        "unlisted": unlisted,
        "listed_but_no_function": no_function,
        "listed_but_reached": now_reached,
        "doors": per_door,
        "reached": reached,
    }, indent=1) + "\n", encoding="utf-8")

    print(f"\ndoor census: {len(reached)} functions under src/repro, "
          f"{len(unreached)} no door reaches, {len(listed)} allow-listed; "
          f"{failed} failed report(s)")
    print(f"{'door':<40}  only  only-lines")
    for door, row in sorted(per_door.items(),
                            key=lambda kv: (-kv[1]["only_lines"], kv[0])):
        print(f"{door:<40}  {len(row['only']):4d}  {row['only_lines']:10d}")
    for title, keys in (("no door reaches, not allow-listed", unlisted),
                        ("allow-listed, but no such function", no_function),
                        ("allow-listed, but a door reaches it", now_reached)):
        if keys:
            print(f"{title}:")
            for key in keys:
                print(f"  {key}")
    print(f"report written to {REPORT}")
    return 1 if unlisted or no_function else 0


if __name__ == "__main__":
    sys.exit(main())
