#!/usr/bin/env python3
"""Door census: which functions of ``src/repro`` a door reaches.

A *door* is what a user runs. This tool runs a fixed set of them under
``test_census``'s line tracer (subprocesses included) and lists, for
every function in every module under ``src/repro``, whether a door
reached it:

* the CLI transcript (``tests/experiments/test_cli_golden.py``);
* every example (``tests/test_examples.py``);
* the perf ledger's own test (``benchmarks/ledger/test_ledger.py``);
* ``all --fidelity quick --workers 1``, every exhibit and claim, as a
  traced subprocess;
* the daemons: ``tools/daemon_smoke.sh`` (the CI smokes of ``fabric
  serve``, ``serve``, ``fabric worker`` and ``jobs``), in a scratch
  directory. It stops the daemons with SIGTERM, on which they exit
  cleanly, so each writes out what it ran.

A function counts as reached only when a line of its body runs: its
``def`` line runs at import. A nested function is classified on its
own, and its body is not its parent's. A function whose body is only a
docstring is skipped.

Functions no door reaches must be on ``tools/door_allowlist.txt``, one
line each with the roadmap item that will give it a door and why it is
kept (``docs/index.md``, "Keeping tier-1 lean"). The report goes to
``door-census.json``; the exit status is 1 when a function no door
reaches is not on the list, or a listed name is no function.

Usage::

    python tools/door_census.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import test_census

ROOT = test_census.ROOT
SRC = test_census.SRC
ALLOWLIST = test_census.TOOLS / "door_allowlist.txt"
REPORT = ROOT / "door-census.json"

#: The test files that drive doors (each runs the CLI, an example or the
#: ledger as a user would).
DOOR_TESTS = (
    "tests/experiments/test_cli_golden.py",
    "tests/test_examples.py",
    "benchmarks/ledger/test_ledger.py",
)

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


def classify(path: Path, ran: set) -> dict:
    """``{qualname: reached}`` for the functions in *path*, given the
    line numbers *ran* that ran in it."""
    return {
        name: bool(lines & ran)
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


def run_doors():
    """Run every door under the tracer; returns ``({path: {line}}, number
    of failed reports)``, paths relative to the repository root."""
    import pytest

    with test_census.traced_children() as spool, \
            tempfile.TemporaryDirectory(prefix="door-census-") as scratch:
        census = test_census.Census(spool)
        pytest.main(["-q", "-p", "no:cacheprovider", *DOOR_TESTS],
                    plugins=[census])
        census.charge(census.current)
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
        report = census.report()
    return {
        name: {int(line) for line in lines}
        for name, lines in report["covered"].items()
    }, census.failed


def main() -> int:
    started = time.perf_counter()
    covered, failed = run_doors()
    reached, unreached = {}, []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for name, hit in classify(path, covered.get(rel, set())).items():
            key = f"{module}:{name}"
            reached[key] = hit
            if not hit:
                unreached.append(key)
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
        "reached": reached,
    }, indent=1) + "\n", encoding="utf-8")

    print(f"\ndoor census: {len(reached)} functions under src/repro, "
          f"{len(unreached)} no door reaches, {len(listed)} allow-listed; "
          f"{failed} failed report(s)")
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
