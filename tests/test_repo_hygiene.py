"""Repository hygiene checks.

Keeps bytecode caches and other build droppings out of version control
permanently: ``.gitignore`` must cover ``__pycache__/`` and ``*.pyc``
at every depth, and the git index must never contain them.
"""

import pathlib
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git not available")


def test_gitignore_covers_bytecode_everywhere():
    patterns = (REPO_ROOT / ".gitignore").read_text().splitlines()
    # A bare "__pycache__/" / "*.pyc" pattern applies at every depth.
    assert "__pycache__/" in patterns
    assert "*.pyc" in patterns


def test_bytecode_paths_are_ignored_at_any_depth():
    for probe in (
        "src/repro/experiments/__pycache__/store.cpython-311.pyc",
        "benchmarks/__pycache__/x.pyc",
        "deep/nested/new/pkg/__pycache__/y.pyc",
    ):
        result = subprocess.run(
            ["git", "check-ignore", "-q", probe],
            cwd=REPO_ROOT,
            capture_output=True,
        )
        assert result.returncode == 0, f"{probe} is not gitignored"


def test_no_bytecode_tracked_in_git_index():
    tracked = _git("ls-files").splitlines()
    offenders = [
        path
        for path in tracked
        if "__pycache__" in path or path.endswith(".pyc")
    ]
    assert not offenders, f"bytecode files tracked in git: {offenders}"


def _count_in_src(needle: str) -> dict:
    """``{relative path: occurrences}`` of *needle* under ``src/repro``."""
    hits = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        count = path.read_text(encoding="utf-8").count(needle)
        if count:
            hits[str(path.relative_to(REPO_ROOT))] = count
    return hits


@pytest.mark.parametrize(
    "needle",
    [
        "def _accept_loop",       # the accept loop
        "def _serve_connection",  # role dispatch
        '!= "hello"',             # server-side hello validation
        '"type": "hello"',        # client-side hello send
        '"type": "welcome"',      # the handshake's reply
    ],
)
def test_one_server_core_and_one_handshake(needle):
    # PRs 7 and 9 each grew a private server and hand-rolled handshakes;
    # a third must not quietly reappear beside fabric/server.py.
    assert _count_in_src(needle) == {"src/repro/fabric/server.py": 1}


@pytest.mark.parametrize(
    "needle",
    ["_DEFAULT_STORE", "set_default_store", "make_default", "DeprecationWarning"],
)
def test_no_process_wide_store_and_no_deprecated_shims(needle):
    # A Session owns its store; a second way to run an experiment (a
    # module-global store, free-function shims that warn) must not
    # grow back beside it.
    assert _count_in_src(needle) == {}


@pytest.mark.parametrize("needle", ["SingleWriterBackend", "ShardLeases"])
def test_no_write_lock_lives_outside_the_backend(needle):
    # The file backend owns its files' write locks; a second lock
    # wrapped around it by a caller must not come back.
    assert _count_in_src(needle) == {}
    assert not (REPO_ROOT / "src/repro/service/leases.py").exists()


@pytest.mark.parametrize(
    "needle",
    [
        # Per-flit work nothing read: a second deque per VC, counters.
        "_entry_cycles", "head_wait_cycles", "total_flits_in", "total_flits_out",
        "acquire_ops", "release_ops",
        # Written per flit or per packet on the channel, never read.
        "active.bits_sent", "started_cycle", "demodulator_on_cycles",
        # Queries and call layers the gateway's per-cycle path replaced
        # (first_free_vc is the one free-VC query; tick dispatches the TX
        # FSM itself; launched flits go straight onto _inbound).
        "free_vc_ids", "complete_vc_count", "_tx_step", "receive_flit",
        "_check_bits", "_rx_front_changed",
        # Defined, exported nowhere, called nowhere.
        "optional_name", "reset_packet_ids",
    ],
)
def test_names_the_gateway_hot_path_stopped_paying_for_stay_gone(needle):
    assert _count_in_src(needle) == {}


def test_one_gateway_one_channel_one_allocator():
    # The gateway's per-cycle path was rewritten in place: no flag, no
    # environment switch and no reference implementation beside it.
    for needle in ("fast_gateway", "legacy_gateway", "ReferenceGateway"):
        assert _count_in_src(needle) == {}
    simulator = ("sim", "noc", "arch", "dba", "photonic", "energy")
    env_reads = {
        path: count
        for path, count in _count_in_src("os.environ").items()
        if path.split("/")[2] in simulator
    }
    assert env_reads == {}


def test_one_architecture_shell_and_one_reset_protocol():
    # What a run drives is held once: the three NoCs share one clocked
    # shell (arch/base.py), and a second subclass of the kernel's base
    # or a second traffic-source seam must not grow back beside it.
    def in_arch(needle):
        return {
            path: count for path, count in _count_in_src(needle).items()
            if path.startswith("src/repro/arch/")
        }

    assert in_arch("(ClockedComponent)") == {"src/repro/arch/base.py": 1}
    assert in_arch("def attach_generator") == {"src/repro/arch/base.py": 1}
    assert sum(in_arch("measured_cycles +=").values()) == 2  # tick, skip_cycles
    # One reset method on the kernel's base, no forwarders to it.
    assert _count_in_src("def reset_stats_at") == {}


@pytest.mark.parametrize(
    "needle",
    [
        # The is_idle probe for sources without the protocol (every
        # source speaks it), the process-wide loop switch, statistics
        # classes nothing used, the boundary-less legacy reset.
        "_generator_is_idle", "NAIVE_ENGINE_ENV", "REPRO_ENGINE_NAIVE",
        "BandwidthMeter", "StatsRegistry", "at_cycle: Optional[int] = None",
    ],
)
def test_names_the_shell_retired_stay_gone(needle):
    assert _count_in_src(needle) == {}


@pytest.mark.parametrize(
    "needle",
    [
        # The per-link deques behind a due-heap, and what armed, polled
        # and emptied them: the network owns one queue of flits in
        # flight and one of credits, and lands what is due itself.
        "_link_due", "_make_link_armer", "on_send", "next_due",
        "_make_flit_sink", "def deliver(", "can_send",
        # The per-router credit poll and the all-routers sweep: only
        # routers holding a flit tick, and tick() says when one stops.
        "_credit_arrivals_wired", "_router_order", "is_active",
        "_stage_output_arbitration",
    ],
)
def test_one_owner_for_what_is_in_flight_on_the_mesh(needle):
    assert _count_in_src(needle) == {}


def test_mesh_due_order_needs_no_heap():
    # One link latency per network makes append order due order.
    assert not [
        path for path in _count_in_src("heapq") if path.startswith("src/repro/noc/")
    ]


def test_store_files_are_opened_for_append_in_one_place():
    import re

    append_open = re.compile(r"""open\([^()]*,\s*["']a[b+t]*["']""")
    hits = {
        str(path.relative_to(REPO_ROOT)): len(found)
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if (found := append_open.findall(path.read_text(encoding="utf-8")))
    }
    assert hits == {"src/repro/experiments/store.py": 1}


def test_no_store_backend_only_wraps_another():
    # A StoreBackend whose `put` hands the record to another backend's
    # `put` is a wrapper; the one PR 9 grew existed only to hold a lock.
    import ast

    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if not any(
                getattr(base, "id", getattr(base, "attr", None)) == "StoreBackend"
                for base in cls.bases
            ):
                continue
            for call in (n for n in ast.walk(cls) if isinstance(n, ast.Call)):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "put"
                    and isinstance(func.value, ast.Attribute)
                    and getattr(func.value.value, "id", None) == "self"
                ):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{cls.name}")
    assert not offenders


def test_single_run_core_has_exactly_two_importers():
    importers = set(_count_in_src("_run_once")) - {
        "src/repro/experiments/runner.py"  # where it is defined
    }
    assert importers == {
        "src/repro/api/session.py",
        "src/repro/experiments/sweep.py",
    }


def test_exhibits_and_claims_take_a_session_not_an_executor():
    import inspect

    from repro.experiments import figures, validation

    offenders = [
        f"{module.__name__}.{name}"
        for module in (figures, validation)
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__
        and "executor" in inspect.signature(fn).parameters
    ]
    assert not offenders


def test_session_is_the_one_door_to_the_executors():
    # Signature depth is not enough: an exhibit that takes a Session and
    # then reaches through `session.executor` has found a second way
    # in. Only the door itself (api/session.py) and the executors may.
    import ast

    inside = {
        "src/repro/api/session.py",
        "src/repro/experiments/sweep.py",
    }
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        name = str(path.relative_to(REPO_ROOT))
        if name in inside:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "executor":
                offenders.append(f"{name}:{node.lineno}: .executor")
    assert not offenders
    # The grid has one description: ExperimentSpec expands itself. The
    # executors' own spec class is gone, and the lowering step survives
    # as one definition (`return self`) that only the ledger calls.
    assert _count_in_src("SweepSpec") == {}
    assert _count_in_src("to_sweep_spec") == {"src/repro/api/spec.py": 1}
    # Nor do the scripts and pages a user copies from know either name.
    for directory in ("tools", "examples", "docs"):
        for path in sorted((REPO_ROOT / directory).rglob("*")):
            if path.suffix in (".py", ".md"):
                text = path.read_text(encoding="utf-8")
                for needle in (".executor", "SweepSpec", "to_sweep_spec"):
                    assert needle not in text, (path, needle)


def test_sweep_module_is_the_executors_and_nothing_else():
    import ast

    path = REPO_ROOT / "src" / "repro" / "experiments" / "sweep.py"
    names = [
        node.name
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert names == [
        "derive_seed", "RunPoint", "curve_points", "PointExecutor",
        "ensure_scenario", "execute_item", "SweepExecutor", "FabricExecutor",
    ]
    assert _count_in_src("_execute_point") == {}
    # The policy modules are handed an executor; none conjures its own.
    assert _count_in_src("or SweepExecutor()") == {}
    # One prefetch serves the exhibits and the claims.
    assert _count_in_src("def _prefetch") == {
        "src/repro/experiments/figures.py": 1
    }


def test_every_lane_executes_the_same_work_item():
    # A store miss has one form — the work_item() dict — and one entry,
    # execute_item: it is the only callable src/ hands to a process
    # pool, and the only module-level function that decodes a work item.
    import ast

    pool_methods = {
        "map", "imap", "imap_unordered", "starmap", "apply",
        "map_async", "starmap_async", "apply_async", "submit",
    }
    handed = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in pool_methods
                and "pool" in ast.unparse(node.func.value).lower()
            ):
                handed.add((
                    str(path.relative_to(REPO_ROOT)),
                    ast.unparse(node.args[0]),
                ))
    assert handed == {
        ("src/repro/experiments/sweep.py", "execute_item"),
        ("src/repro/service/daemon.py", "execute_item"),
    }
    # ... and those two modules are the only ones that can own a pool.
    assert set(_count_in_src("import multiprocessing")) == {
        path for path, _callable in handed
    }
    assert _count_in_src("def execute_item") == {
        "src/repro/experiments/sweep.py": 1
    }


def test_one_job_record_one_admission_path():
    # A fabric client batch is the degenerate service job: one record
    # class, on one work table, under one condition, admitted by one
    # method. None of the second model's pieces may grow back.
    import re

    assert _count_in_src("class JobRecord") == {
        "src/repro/fabric/coordinator.py": 1
    }
    for needle in ("class _Job", "record_point", "cancel_event"):
        assert _count_in_src(needle) == {}, needle
    # The daemon builds no executor it never executes with and owns no
    # lock: its job registry lives on the coordinator's condition.
    conditions = _count_in_src("threading.Condition(")
    assert conditions == {"src/repro/fabric/coordinator.py": 1}
    assert not [
        path for path in _count_in_src("FabricExecutor(")
        if path.startswith("src/repro/service/")
    ]
    # Keys, configs and scenario scripts are derived behind the
    # executor's public plan()/work_item(), never through its privates.
    for needle in ("._key(", "._config_for(", "._scenario(", "._scenario_script("):
        assert set(_count_in_src(needle)) <= {
            "src/repro/experiments/sweep.py"
        }, needle
    # Work items are built from RunPoints in one place (the client
    # role's frame-to-item merge is the only other constructor).
    for needle in ("config_to_dict(", "fidelity_to_dict("):
        callers = _count_in_src(needle)
        assert callers.pop("src/repro/fabric/protocol.py") == 1  # its def
        assert set(callers) == {"src/repro/experiments/sweep.py"}, needle
    private_import = re.compile(
        r"from repro\.fabric\.coordinator import[^\n]*\b_\w+"
        r"|from repro\.fabric\.coordinator import \([^)]*\b_\w+"
    )
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if private_import.search(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def test_import_repro_pulls_no_third_party_module():
    # README: "no third-party runtime dependencies". numpy stays
    # import-gated behind repro.ml's fit/predict calls.
    import os
    import sys

    probe = (
        "import sys; before = set(sys.modules); "
        "import repro, repro.experiments.cli; "
        "print(' '.join(sorted({name.partition('.')[0] "
        "for name in set(sys.modules) - before})))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout.split()
    assert "repro" in loaded
    ours = {"repro", "__mp_main__"}  # the alias multiprocessing installs
    foreign = [
        name for name in loaded
        if name not in ours and name not in sys.stdlib_module_names
    ]
    assert not foreign, f"import repro pulled in {foreign}"
    assert _count_in_src("networkx") == {}


def test_one_place_wires_a_simulation():
    # runner.wire_run + attach_traffic: _run_once, `trace record` and
    # `trace replay` are all written on them (the quickstart in the
    # package docstring and the engine's own doctest are the only other
    # texts that spell a step out).
    wiring = {"src/repro/experiments/runner.py", "src/repro/__init__.py",
              "src/repro/sim/engine.py"}
    for needle in ("build_arch(", ".attach_generator(", ".run_with_reset(",
                   " Simulator("):
        assert set(_count_in_src(needle)) <= wiring, needle
    # One replay loop, one knee-search policy, no flag-reading enum.
    assert _count_in_src("def replayer") == {}
    assert _count_in_src("def is_head") == _count_in_src("def is_tail") == {}
    assert _count_in_src("cand //= 2") == {"src/repro/experiments/knee.py": 1}
    # A transport is chosen from the address, not from a keyword.
    for needle in ("transport=", "transport: str"):
        assert _count_in_src(needle) == {}, needle


def test_cli_is_a_table_of_verbs():
    import re

    package = REPO_ROOT / "src" / "repro" / "experiments"
    assert not (package / "cli.py").exists()
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((package / "cli").glob("*.py"))
    }
    everything = "\n".join(sources.values())
    # One dispatch (args.handler), one error exit (main's).
    assert "_command ==" not in everything
    assert "args.command ==" not in everything
    assert [name for name, text in sources.items()
            if "file=sys.stderr" in text] == ["__init__.py"]
    assert sources["__init__.py"].count("file=sys.stderr") == 1
    # Nothing is simulated except through the runner's wiring.
    for needle in ("build_arch(", "attach_generator(", "run_with_reset(",
                   "Simulator("):
        assert needle not in everything, needle
    # Registry-derived choices are read in one module...
    for needle in ("architectures.names()", "bandwidth_sets.names()",
                   "fidelities", "backend_names()"):
        readers = [name for name, text in sources.items() if needle in text]
        assert readers == ["options.py"], needle
    # ...and each shared flag is declared by one add_argument call
    # (--pattern, --store and --store-backend once per variant).
    declared = re.findall(r'add_argument\(\s*"(--[a-z-]+)"', everything)
    for flag in ("--arch", "--bw-set", "--fidelity", "--seed",
                 "--load-fraction"):
        assert declared.count(flag) == 1, flag
    options = re.findall(r'add_argument\(\s*"(--[a-z-]+)"', sources["options.py"])
    for flag, variants in (("--pattern", 2), ("--store", 3),
                           ("--store-backend", 3)):
        assert declared.count(flag) == options.count(flag) == variants, flag


def test_the_ledger_is_the_only_bench_harness():
    import re

    def names(directory):
        return sorted(
            p.name for p in (REPO_ROOT / directory).iterdir()
            if p.name != "__pycache__"
        )

    # The pytest exhibit benches and their conftest, the best-of timing
    # tool and its hand-ratcheted baseline must not grow back beside
    # benchmarks/ledger.
    assert names("benchmarks") == ["__init__.py", "ledger"]
    assert not list((REPO_ROOT / "benchmarks").rglob("bench_*.py"))
    assert not list((REPO_ROOT / "benchmarks").rglob("conftest.py"))
    assert names("tools") == ["drift_log.py", "fuzz_triage.py"]
    # src/ reads one thing from benchmarks/: the committed records that
    # price `run --spec --dry-run`.
    named = {
        match
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        for match in re.findall(
            r"benchmarks/[\w./*-]+", path.read_text(encoding="utf-8")
        )
    }
    assert named and all(
        name.startswith("benchmarks/ledger/records") for name in named
    ), named
    assert _count_in_src('"benchmarks"') == {
        "src/repro/experiments/costing.py": 1
    }
    # ...and one environment variable: that record's path.
    assert _count_in_src("os.environ") == {
        "src/repro/experiments/costing.py": 1
    }


@pytest.mark.parametrize(
    "needle",
    ["bench_log", "baseline.json", "fidelity_from_env", "BASELINE_CYCLES",
     "run_steady", "pytest-benchmark"],
)
def test_names_of_the_retired_bench_harnesses_stay_gone(needle):
    texts = [REPO_ROOT / "README.md", REPO_ROOT / "requirements-dev.txt",
             REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    for directory in ("src", "docs", ".github"):
        texts += [p for p in (REPO_ROOT / directory).rglob("*") if p.is_file()
                  and p.suffix in (".py", ".md", ".yml", ".txt")]
    assert len(texts) > 100
    hits = [str(p.relative_to(REPO_ROOT)) for p in texts
            if p.exists() and needle in p.read_text(encoding="utf-8")]
    assert not hits
