"""The door census's classifier (``tools/door_census.py``).

A synthetic module is run under a line tracer, the way the census runs
a door, and each function is classified from the lines that ran: a
function is reached by the doors that run a line of its body, a nested
function is classified on its own, and a function that is only a
docstring is not classified at all. A door's own functions and lines
are those no other door reaches.
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

    ran = dict.fromkeys(traced(path, door), {"door"})
    assert door_census.classify(path, ran) == {
        "called": {"door"},
        # Its def line ran at import; its body never did.
        "defined_only": set(),
        # Calling outer runs inner's def line, not inner's body.
        "outer": {"door"},
        "outer.<locals>.inner": set(),
        "Box.method": set(),
    }


def test_a_nested_body_is_not_its_parents(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    inner_body = SOURCE.splitlines().index("        return 3") + 1
    reached = door_census.classify(path, {inner_body: {"door"}})
    assert reached["outer.<locals>.inner"] == {"door"}
    assert reached["outer"] == set()


def test_a_function_is_reached_by_every_door_that_runs_its_body(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    lines = SOURCE.splitlines()
    first, last = lines.index("    return 4"), lines.index("        return 5")
    reached = door_census.classify(path, {
        first + 1: {"a", "b"}, last + 1: {"b"}, first: {"c"},
    })
    # Line ``first`` is inner's body, not outer's.
    assert reached["outer"] == {"a", "b"}
    assert reached["outer.<locals>.inner"] == {"c"}
    assert reached["Box.method"] == {"b"}


def test_a_function_is_a_doors_own_only_when_no_other_door_reaches_it():
    doors_of = {
        "m:mine": {"a"}, "m:shared": {"a", "b"}, "m:theirs": {"b"},
        "m:nobodys": set(),
    }
    covered = {"src/repro/m.py": {1: {"a"}, 2: {"a", "b"}, 3: {"b"}}}
    per_door = door_census.attribute(covered, doors_of)
    assert per_door["a"]["only"] == ["m:mine"]
    assert per_door["b"]["only"] == ["m:theirs"]
    assert "m:shared" not in per_door["a"]["only"] + per_door["b"]["only"]


def test_only_lines_count_the_lines_one_door_runs_across_files():
    covered = {
        "src/repro/m.py": {1: {"a"}, 2: {"a", "b"}, 3: {"a"}},
        "src/repro/n.py": {1: {"a"}, 7: {"c", "a"}},
    }
    # ``c`` shares its one line, so it has a row with nothing its own.
    assert door_census.attribute(covered, {}) == {
        "a": {"only_lines": 3, "only": []},
        "b": {"only_lines": 0, "only": []},
        "c": {"only_lines": 0, "only": []},
    }


def test_a_docstring_only_function_is_skipped(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert "docstring_only" not in door_census.classify(path, {})
