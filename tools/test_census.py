#!/usr/bin/env python3
"""Line-coverage census of the test suite, per test and per test file.

Runs pytest in-process under a ``sys.settrace`` line tracer (standard
library only: Python 3.11 has no ``sys.monitoring``, and ``coverage`` is
not a dependency) and records, for every test, the ``src/`` lines it
runs. The Python subprocesses a test starts -- example scripts, the CLI
golden's collector, fabric workers -- are traced too: a generated
``sitecustomize`` module, first on their ``PYTHONPATH``, imports this
file and calls :func:`trace_child`, which spools what the process ran
when it exits. A spool file is charged to the test that was running
when its process started; a process that is killed instead of exiting
(a terminated pool's workers, a killed fabric worker) spools nothing.

The JSON report carries:

* ``covered``: every covered ``src/`` line, ``{file: {line: text}}``;
* ``files``: per test file, its tests, the lines it covers, how many of
  them no other test file covers, and its seconds under tracing;
* ``tests``: per test, the lines no other test covers (tests with none
  are left out).

Lines run while collecting (module bodies, on import) count as covered,
charged to ``(collection)``. The exit status is 0 once the report is
written; tests that fail (tracing slows everything down, so a
timing-bound test may fail only here) are counted in it.

A test may be deleted when it has no line of its own here *and* a
golden, a property or a remaining test pins the values it asserts; the
census answers the first half only (``docs/index.md``, "Keeping tier-1
lean").

Usage::

    python tools/test_census.py                        # the tier-1 suite
    python tools/test_census.py tests/noc --out noc.json
    python tools/test_census.py --compare old.json new.json

Arguments the census does not know go to pytest. ``--compare`` prints
the lines the first report covers and the second does not, matched by
file and source text, so an edit that only moves lines does not show
up; a deleted line does.
"""

from __future__ import annotations

import argparse
import atexit
import json
import linecache
import os
import shutil
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
SRC = ROOT / "src"
PREFIX = str(SRC / "repro") + os.sep

#: Read by :func:`trace_child`: where to spool, and which test started
#: the process.
SPOOL_VAR, TEST_VAR = "TEST_CENSUS_SPOOL", "TEST_CENSUS_TEST"

#: The ``sitecustomize`` module put first on every child's path.
HOOK = """\
import os, sys
if os.environ.get({spool!r}):
    sys.path.insert(0, {tools!r})
    import test_census
    sys.path.remove({tools!r})
    test_census.trace_child()
"""

COLLECTION = "(collection)"


def start_tracing(seen: set):
    """Add every ``src/repro`` line this thread -- and every thread
    started from now on -- runs to *seen*; returns the trace function."""
    add = seen.add

    def local(frame, event, _arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(PREFIX) else None

    threading.settrace(call)
    sys.settrace(call)
    return call


def trace_child() -> None:
    """Trace this subprocess and spool what it ran when it exits."""
    seen: set = set()
    test = os.environ.get(TEST_VAR, "")

    def spool() -> None:
        sys.settrace(None)
        lines = defaultdict(list)
        for filename, line in seen:
            lines[filename].append(line)
        path = Path(os.environ[SPOOL_VAR], f"{os.getpid()}-{time.time_ns()}")
        path.with_suffix(".tmp").write_text(
            json.dumps({"test": test, "lines": lines}), encoding="utf-8"
        )
        path.with_suffix(".tmp").replace(path.with_suffix(".json"))

    atexit.register(spool)
    start_tracing(seen)


class Census:
    """pytest plugin: charges each test the ``src/`` lines it ran."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.seen: set = set()
        #: line -> [up to two distinct tests that ran it, test files].
        self.lines: dict = {}
        self.file_tests: Counter = Counter()
        self.file_seconds: Counter = Counter()
        self.failed = 0
        self.current = COLLECTION
        self.tracer = start_tracing(self.seen)

    def charge(self, nodeid: str) -> None:
        """Charge *nodeid* what this process ran since the last charge,
        and each spooled child the test that started it."""
        self._record(nodeid, set(self.seen))
        self.seen.clear()
        for path in self.spool.glob("*.json"):
            child = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            self._record(child["test"] or nodeid, {
                (filename, line)
                for filename, numbers in child["lines"].items()
                for line in numbers
            })

    def _record(self, nodeid: str, lines: set) -> None:
        test_file = nodeid.split("::")[0]
        for line in lines:
            entry = self.lines.get(line)
            if entry is None:
                self.lines[line] = [[nodeid], {test_file}]
                continue
            tests, files = entry
            if len(tests) < 2 and nodeid not in tests:
                tests.append(nodeid)
            files.add(test_file)

    # -- pytest hooks ---------------------------------------------------------
    def pytest_collection_finish(self, session) -> None:
        self.charge(COLLECTION)

    def pytest_runtest_logstart(self, nodeid, location) -> None:
        os.environ[TEST_VAR] = self.current = nodeid
        if sys.gettrace() is not self.tracer:  # a test replaced it
            sys.settrace(self.tracer)

    def pytest_runtest_logreport(self, report) -> None:
        test_file = report.nodeid.split("::")[0]
        self.failed += report.failed
        self.file_tests[test_file] += report.when == "teardown"
        self.file_seconds[test_file] += report.duration

    def pytest_runtest_logfinish(self, nodeid, location) -> None:
        self.charge(nodeid)

    # -- the report -----------------------------------------------------------
    def report(self) -> dict:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
        covered: dict = defaultdict(dict)
        file_lines: Counter = Counter()
        own_file: Counter = Counter()
        own_test: dict = defaultdict(list)
        for (filename, line), (tests, files) in sorted(self.lines.items()):
            rel = os.path.relpath(filename, ROOT)
            covered[rel][line] = linecache.getline(filename, line).strip()
            file_lines.update(files)
            if len(files) == 1:
                own_file.update(files)
            if len(tests) == 1 and tests[0] != COLLECTION:
                own_test[tests[0]].append(f"{rel}:{line}")
        return {
            "failed": self.failed,
            "lines_covered": sum(len(lines) for lines in covered.values()),
            "files": {
                name: {
                    "tests": self.file_tests[name],
                    "lines": file_lines[name],
                    "only_here": own_file[name],
                    "seconds": round(self.file_seconds[name], 2),
                }
                for name in sorted(set(self.file_tests) | set(file_lines))
                if name != COLLECTION
            },
            "tests": dict(sorted(own_test.items())),
            "covered": dict(sorted(covered.items())),
        }


@contextmanager
def traced_children():
    """Make every Python subprocess started inside the block trace itself
    and spool what it ran; yields the spool directory."""
    spool = Path(tempfile.mkdtemp(prefix="census-spool-"))
    hook = Path(tempfile.mkdtemp(prefix="census-hook-"))
    (hook / "sitecustomize.py").write_text(
        HOOK.format(spool=SPOOL_VAR, tools=str(TOOLS)), encoding="utf-8"
    )
    os.environ[SPOOL_VAR] = str(spool)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(hook), str(SRC), os.environ.get("PYTHONPATH")])
    )
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)
    try:
        yield spool
    finally:
        shutil.rmtree(spool, ignore_errors=True)
        shutil.rmtree(hook, ignore_errors=True)


def run_census(pytest_args, out: Path) -> int:
    import pytest

    started = time.perf_counter()
    with traced_children() as spool:
        census = Census(spool)
        pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args],
                    plugins=[census])
        census.charge(census.current)  # children that outlived the last test
        report = census.report()
    report["seconds"] = round(time.perf_counter() - started, 1)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_summary(report)
    print(f"report written to {out}")
    return 0


def print_summary(report: dict) -> None:
    files = report["files"]
    print(f"\ntest census: {sum(f['tests'] for f in files.values())} tests, "
          f"{report['failed']} failed report(s), {report['seconds']} s; "
          f"{report['lines_covered']} src/ lines covered")
    width = max(len(name) for name in files)
    print(f"{'test file':<{width}}  tests  lines  only-here  seconds")
    for name, row in sorted(files.items(), key=lambda kv: -kv[1]["seconds"]):
        print(f"{name:<{width}}  {row['tests']:5d}  {row['lines']:5d}  "
              f"{row['only_here']:9d}  {row['seconds']:7.2f}")


def compare(old_path: str, new_path: str) -> int:
    """Print the lines *old* covers and *new* does not (by source text)."""
    def keys(path):
        covered = json.loads(Path(path).read_text(encoding="utf-8"))["covered"]
        return Counter(
            (name, text) for name, lines in covered.items()
            for text in lines.values()
        )

    old, new = keys(old_path), keys(new_path)
    lost = old - new
    print(f"{old_path}: {sum(old.values())} lines covered; "
          f"{new_path}: {sum(new.values())}; "
          f"covered only by {old_path}: {sum(lost.values())}")
    for (name, text), count in sorted(lost.items()):
        print(f"  {name}: {text}" + (f"  (x{count})" if count > 1 else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="test-census.json",
                        help="report path (default: %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="list the lines OLD covers and NEW does not")
    args, pytest_args = parser.parse_known_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run_census(pytest_args, Path(args.out).resolve())


if __name__ == "__main__":
    sys.exit(main())
