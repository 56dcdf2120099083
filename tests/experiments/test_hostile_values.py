"""Hostile numbers at every door: each is refused by name, or acted on.

The command-line half is generated from ``cli_golden.json``'s parser
table: every option with a ``type`` gets each of :data:`HOSTILE`. A
value the option refuses exits 2 through argparse, naming the option,
before the verb acts; a value it accepts (:data:`ACCEPTS`) may go on.
No call ends in a traceback. ``main(argv)`` runs in-process with the
first action stubbed: the first simulation (``Simulator.run``) and the
first socket call (a transport's ``listen`` or ``connect``) raise
:class:`Acted` instead, so no run, listener, thread or process starts.

The API half draws values inside each numeric field's type for
``ExperimentSpec``, ``Fidelity`` and ``SystemConfig``, and for
``Session.knee``'s ``resolution`` and ``max_fraction``: each draw ends
in an object, a ``ValueError`` that names a drawn field, or (for the
knee) the first probe, which is stubbed too.
"""

import json
import math
import pathlib
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.arch.config import SystemConfig
from repro.experiments.cli import build_parser, main
from repro.experiments.runner import Fidelity

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("cli_golden.json").read_text()
)

HOSTILE = ("nan", "inf", "-inf", "-1", "0", "1e308", "", "x")

#: The hostile values an option accepts, by option (or by ``"<verb>
#: <option>"`` where verbs differ); it refuses every other one.
ACCEPTS = {
    "--seed": {"-1", "0"},
    "--seeds": {"-1", "0"},
    "--load-fraction": {"0"},
    "--top": {"0"},
    "--fail-after": {"0"},
    "--port": {"0"},
    "--worker-timeout": {"1e308"},
    "serve --workers": {"0"},
}

#: What each parser with a typed option needs besides that option.
BASE = {
    "all": ["all"],
    "fabric worker": ["fabric", "worker", "--connect", "127.0.0.1:1"],
    "ml fit": ["ml", "fit", "dataset.json", "--out", "model.json"],
    "run": ["run", "figure-3-3"],
    "scenarios describe": ["scenarios", "describe", "steady"],
    "scenarios fuzz": ["scenarios", "fuzz"],
    "scenarios run": ["scenarios", "run", "steady"],
    "scenarios sweep": ["scenarios", "sweep"],
    "serve": ["serve", "--host", "127.0.0.1"],
    "sweep": ["sweep"],
    "trace info": ["trace", "info", "trace.jsonl"],
    "trace record": ["trace", "record", "--out", "out.jsonl"],
    "trace replay": ["trace", "replay", "trace.jsonl"],
    "validate": ["validate"],
}

TYPED = [
    (prog.partition(" ")[2], action["option_strings"][0])
    for prog, parser in sorted(GOLDEN["parsers"].items())
    for action in parser["actions"]
    if action["type"] is not None
]


class Acted(Exception):
    """A verb reached its first simulation or socket call."""


def _act(*args, **kwargs):
    raise Acted


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    """``main`` in a scratch directory holding a two-record trace, with
    the first action stubbed and one parser built for every call."""
    workdir = tmp_path_factory.mktemp("hostile")
    (workdir / "trace.jsonl").write_text(
        '{"cycle": 0, "src": 0, "dst": 5}\n{"cycle": 3, "src": 7, "dst": 2}\n'
    )
    parser = build_parser()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        patch.setattr("repro.experiments.cli.build_parser", lambda: parser)
        patch.setattr("repro.sim.engine.Simulator.run", _act)
        patch.setattr("repro.fabric.transport.TcpTransport.listen", _act)
        patch.setattr("repro.fabric.transport.TcpTransport.connect", _act)
        # A daemon verb would install a SIGTERM handler in this process.
        patch.setattr("repro.experiments.cli.fabric._as_daemon", lambda: None)
        yield main


def test_every_parser_with_a_typed_option_has_a_base_argv():
    assert sorted({verb for verb, _option in TYPED}) == sorted(BASE)


def test_no_hostile_value_is_a_count_that_starts_anything():
    # An accepted int above 1 could become a worker or thread count.
    counts = [int(value) for value in HOSTILE
              if value.lstrip("-").isdigit()]
    assert max(counts) <= 1


@pytest.mark.parametrize("verb,option", TYPED,
                         ids=[" ".join(pair) for pair in TYPED])
def test_a_hostile_value_is_refused_by_name_or_acted_on(
        cli, capsys, verb, option):
    accepted = ACCEPTS.get(f"{verb} {option}", ACCEPTS.get(option, set()))
    wrong = []
    for value in HOSTILE:
        try:
            outcome = cli(BASE[verb] + [option, value])
        except SystemExit as exc:
            outcome = exc.code
        except Acted:
            outcome = "acted"
        except Exception as exc:  # a traceback at the command line
            outcome = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if value in accepted:
            ok = outcome in (0, 2, "acted")
        else:
            ok = outcome == 2 and f"error: argument {option}: " in err
        if not ok:
            wrong.append((value, outcome, err.strip().splitlines()[-1:]))
    assert not wrong, f"{verb} {option}: {wrong}"


# ---------------------------------------------------------------------------
# The API half
# ---------------------------------------------------------------------------

INTS, FLOATS = st.integers(), st.floats()
TUPLES = st.lists(FLOATS, max_size=3).map(tuple)
TINY_FIELDS = dict(name="hostile", total_cycles=700, reset_cycles=100,
            load_fractions=(0.5,))

#: Each constructor, what it needs besides the drawn fields, and a
#: strategy for each of its numeric fields. A spec's ``bw_sets`` are
#: registry names, so they are not drawn, and its axes are never empty:
#: an empty axis is refused as one (``test_api.py``).
CONSTRUCTORS = {
    "SystemConfig": (SystemConfig, {}, {
        f.name: INTS if f.type == "int" else FLOATS
        for f in fields(SystemConfig) if f.type in ("int", "float")
    }),
    "Fidelity": (Fidelity, TINY_FIELDS, {
        "total_cycles": INTS, "reset_cycles": INTS, "load_fractions": TUPLES,
    }),
    "ExperimentSpec": (
        ExperimentSpec, dict(archs=("firefly",), fidelity=Fidelity(**TINY_FIELDS)),
        {"seeds": st.lists(INTS, min_size=1, max_size=3).map(tuple),
         "load_fractions": st.none() | TUPLES, "resolution": FLOATS},
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@given(data=st.data())
def test_a_constructor_builds_or_refuses_a_drawn_field_by_name(name, data):
    cls, needed, numeric = CONSTRUCTORS[name]
    drawn = data.draw(st.fixed_dictionaries({}, optional=numeric))
    try:
        cls(**dict(needed, **drawn))
    except ValueError as exc:
        assert any(field in str(exc) for field in drawn), (drawn, str(exc))


class Probed(Exception):
    """The knee search reached its first probe."""


@given(resolution=FLOATS, max_fraction=st.none() | FLOATS)
@example(resolution=math.nan, max_fraction=None)
@example(resolution=0.05, max_fraction=math.nan)
@example(resolution=5e-324, max_fraction=None)
def test_the_knee_refuses_a_drawn_load_by_name_or_probes(
        resolution, max_fraction):
    session = Session()
    with mock.patch.object(session.executor, "run_points", side_effect=Probed):
        try:
            session.knee("firefly", 1, "uniform", Fidelity(**TINY_FIELDS),
                         resolution=resolution, max_fraction=max_fraction)
        except Probed:
            pass
        except ValueError as exc:
            assert str(exc).startswith(("resolution ", "max_fraction ")), exc
