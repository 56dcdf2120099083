"""The door census's classifier (``tools/door_census.py``).

A synthetic module is run under a line tracer, the way the census runs
a door, and each function is classified from the lines that ran: a
function is reached only when a line of its body runs, a nested
function is classified on its own, and a function that is only a
docstring is not classified at all.
"""

import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import door_census  # noqa: E402

SOURCE = '''\
def called():
    """Runs."""
    return 1


def defined_only():
    return 2


def outer():
    def inner():
        return 3
    return 4


def docstring_only():
    """Nothing but this."""


class Box:
    def method(self):
        return 5
'''


def traced(path: Path, call) -> set:
    """The line numbers of *path* that ran while importing it and then
    calling ``call(namespace)``."""
    ran = set()

    def local(frame, event, _arg):
        if event == "line" and frame.f_code.co_filename == str(path):
            ran.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        call(runpy.run_path(str(path)))
    finally:
        sys.settrace(previous)
    return ran


def test_each_function_is_classified_by_its_body(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")

    def door(namespace):
        namespace["called"]()
        namespace["outer"]()

    assert door_census.classify(path, traced(path, door)) == {
        "called": True,
        # Its def line ran at import; its body never did.
        "defined_only": False,
        # Calling outer runs inner's def line, not inner's body.
        "outer": True,
        "outer.<locals>.inner": False,
        "Box.method": False,
    }


def test_a_nested_body_is_not_its_parents(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    inner_body = SOURCE.splitlines().index("        return 3") + 1
    reached = door_census.classify(path, {inner_body})
    assert reached["outer.<locals>.inner"] is True
    assert reached["outer"] is False


def test_a_docstring_only_function_is_skipped(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert "docstring_only" not in door_census.classify(path, set())
