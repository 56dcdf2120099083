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
    # Outside a git work tree (an exported copy) there is nothing to ask.
    _git("rev-parse", "--is-inside-work-tree")
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


def test_one_daemon_and_one_way_to_it():
    # The service daemon was a coordinator subclass with its own verb,
    # port and client flag; none of the four may grow back beside the
    # one coordinator, the one `serve` verb and `--fabric`.
    for needle in ("class ExperimentService", "def _fabric_serve",
                   "def _run_spec_service", '"--service"'):
        assert _count_in_src(needle) == {}, needle
    assert sum(_count_in_src("DEFAULT_PORT =").values()) == 1
    assert _count_in_src("def _lane_loop") == {
        "src/repro/fabric/coordinator.py": 1
    }


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
        # FSM itself; the fabric's stream pass plays a stream from its
        # ACK, not its source's ticks step it nor a destination's queue
        # delivers it launch by launch).
        "free_vc_ids", "complete_vc_count", "_tx_step", "receive_flit",
        "_check_bits", "_rx_front_changed", "_tx_stream",
        "_deliver_inbound", "_inbound", "next_active",
        # Defined, exported nowhere, called nowhere.
        "optional_name", "reset_packet_ids",
        # Model content no run, example or exhibit reaches: the
        # reservation-word codec, the ring nothing read, waveguide delay,
        # GPU and bandwidth-set views nothing printed.
        "encode_identifiers", "decode_identifiers", "MicroRingResonator",
        "propagation_delay", "SPEED_OF_LIGHT", "sensitive_benchmarks",
        "flit_size_curve", "wavelengths_per_class", "uniform_class_gbps",
        "app_of_cluster",
        # Second ways beside what the DBA, the faults and the config use.
        "def acquire(", "def is_free(", "def owner_of(", "def bitmap(",
        "allocation_for", "def destinations(", "def request(", "def demand(",
        "pool_shrinkage", "total_reserved_wavelengths", "def core_slot(",
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


def test_the_gateway_carries_counts_not_flits():
    # Inside the store-and-forward gateway a packet's flits differ only
    # by how many there are: no stage builds a Flit or splits a packet
    # into them, and the held-flit recount is part of the one audit.
    import re

    router = (REPO_ROOT / "src/repro/arch/photonic_router.py").read_text(
        encoding="utf-8"
    )
    assert not re.search(r"(?<![\w.])Flit\(", router)
    assert not re.search(r"import [^\n]*\bFlit\b", router)
    assert "packetize" not in router
    assert _count_in_src("audit_flits_held") == {}


def _tests_matching(pattern: str) -> dict:
    """``{relative path: matches}`` of regex *pattern* in tests but this."""
    import re

    hits = {}
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        if path.samefile(__file__):
            continue
        count = len(re.findall(pattern, path.read_text(encoding="utf-8")))
        if count:
            hits[str(path.relative_to(REPO_ROOT))] = count
    return hits


def test_each_law_is_stated_once_and_checked_through_simulate():
    # Flit conservation is the architecture shell's audit: no test sums
    # it by hand, no test steps a run to audit it (``simulate(audit=N)``
    # does), and the planted faults are one table.
    assert _count_in_src("flits carried across the ") == {
        "src/repro/arch/base.py": 1}
    assert _tests_matching(r"\bstep_auditing\b") == {}
    assert _tests_matching(r"packets_(accepted|abandoned)\s*\*") == {}
    assert _tests_matching(r"parametrize\(\s*[\"'][^\"']*\bmuta(te|nt)\b") == {
        "tests/experiments/test_engine_equivalence.py": 1}


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
        # The source's relative wait and its tick-count skip, the
        # fabric's idle test beside its wake (one question, next_wake,
        # answered in absolute cycles).
        "idle_ticks", "fabric_is_idle", "def skip(",
    ],
)
def test_one_wake_protocol(needle):
    assert _count_in_src(needle) == {}


@pytest.mark.parametrize(
    "needle",
    [
        # The gateway's channel subclass whose counts settled on read,
        # and the private counts behind the settle-on-read properties:
        # lazily kept counts are settled by the engine's one settle at
        # the end of each run.
        "PlannedChannel", "_busy_cycles", "_token_visits",
    ],
)
def test_one_settle(needle):
    assert _count_in_src(needle) == {}


def test_one_never_and_one_pass_counter():
    # ``NEVER =`` also matches ``_NEVER =``: the sentinel is defined
    # once, beside the protocol that answers with it.
    assert _count_in_src("NEVER =") == {"src/repro/sim/engine.py": 1}
    # A pass is a token visit: the allocator keeps no second count (nor
    # the ring handle that settled it).
    from repro.dba.allocator import WavelengthAllocator

    allocator = WavelengthAllocator(0, max_channel_wavelengths=8)
    for name in ("passes", "_passes", "ring"):
        assert not hasattr(allocator, name), name


@pytest.mark.parametrize(
    "needle",
    [
        # The is_idle probe for sources without the protocol (every
        # source speaks it), the process-wide loop switch, statistics
        # classes nothing used, the boundary-less legacy reset.
        "_generator_is_idle", "NAIVE_ENGINE_ENV", "REPRO_ENGINE_NAIVE",
        "BandwidthMeter", "StatsRegistry", "at_cycle: Optional[int] = None",
        # The per-cycle hook list (what checks state between cycles steps
        # the simulator), absolute-cycle scheduling, stream forking and
        # the variance nothing reported.
        "_tick_hooks", "add_tick_hook", "schedule_at", "def components(",
        "def fork(", "def variance(", "def stdev(", "_m2",
    ],
)
def test_names_the_shell_retired_stay_gone(needle):
    assert _count_in_src(needle) == {}


def test_a_stream_is_its_source_gateways():
    # A source streams one packet at a time, so its stream is the
    # gateway's state: no hand-off to the fabric, no fabric record of
    # the streams, no per-architecture plan table (each plan is built
    # once per process). A VC's drain ends with its stream, so neither
    # the ACK nor the abandon catches a port up, and the settle touches
    # only the streaming gateways' ports.
    import inspect

    from repro.arch.base import PhotonicCrossbarNoC
    from repro.arch.photonic_router import ClusterGateway

    for needle in ("hand_off", "class StreamPlans", "stream_plans"):
        assert _count_in_src(needle) == {}, needle
    fabric = (REPO_ROOT / "src/repro/arch/base.py").read_text(encoding="utf-8")
    assert "_streams" not in fabric
    for method in (ClusterGateway.on_reservation_response,
                   ClusterGateway._abandon_packet, PhotonicCrossbarNoC.settle):
        assert "catch_up" not in inspect.getsource(method), method.__name__
    assert "inputs" not in inspect.getsource(PhotonicCrossbarNoC.settle)


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


def test_the_mesh_hop_is_one_pass():
    # A flit-hop is written out in Router.tick: the crossbar check, the
    # link send and the credit return are not calls on other objects.
    router = (REPO_ROOT / "src/repro/noc/router.py").read_text(encoding="utf-8")
    for needle in ("Crossbar(", "_forward(", ".send(", ".send_credit("):
        assert needle not in router, needle
    assert not (REPO_ROOT / "src/repro/noc/crossbar.py").exists()
    assert _count_in_src("CreditChannel") == {}


def test_mesh_due_order_needs_no_heap():
    # Links have one latency, a cycle, so append order is due order.
    assert not [
        path for path in _count_in_src("heapq") if path.startswith("src/repro/noc/")
    ]


@pytest.mark.parametrize(
    "needle",
    [
        # The mesh the thesis runs has one arbiter, one routing, one
        # topology and one link latency: the second arbiter and its
        # factory, table routing and its base class, the topology zoo
        # and the settings that selected among them stay gone.
        "MatrixArbiter", "make_arbiter", "TableRouting", "RoutingAlgorithm",
        "shortest_path_tables", "def torus(", "def octagon(",
        "def butterfly_fat_tree(", "link_latency", "arbiter: str",
        # One way to ask a VC or a mesh anything: no hop-count average,
        # no peek beside pop.
        "average_hop_count", "mean_hop_count", "def peek(", "def is_empty(",
    ],
)
def test_the_mesh_keeps_one_of_each(needle):
    assert _count_in_src(needle) == {}


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
        ("src/repro/fabric/coordinator.py", "execute_item"),
    }
    # ... and those two modules are the only ones that can own a pool.
    assert set(_count_in_src("import multiprocessing")) == {
        path for path, _callable in handed
    }
    assert _count_in_src("def execute_item") == {
        "src/repro/experiments/sweep.py": 1
    }


def test_one_job_record_one_admission_path():
    # A fabric batch is a job like a spec: one record class, on one
    # work table, under one condition, admitted by one method, streamed
    # in one dialect. None of the second model's pieces may grow back.
    import re

    assert _count_in_src("class JobRecord") == {
        "src/repro/fabric/coordinator.py": 1
    }
    for needle in (
        "class _Job", "record_point", "cancel_event", "FabricClient",
        "log_view", '"point_done"', '"point_failed"', '"job_done"',
    ):
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
    # Work items are built from RunPoints in one place (a planned
    # batch's frame-to-item merge is the only other constructor).
    callers = _count_in_src("config_to_dict(")
    assert callers.pop("src/repro/fabric/protocol.py") == 1  # its def
    assert set(callers) == {"src/repro/experiments/sweep.py"}
    # A fidelity has one JSON form: Fidelity.to_dict / Fidelity.from_dict.
    assert _count_in_src("fidelity_to_dict") == {}
    assert _count_in_src("fidelity_from_dict") == {}
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


#: Layers a stationary photonic run never executes, so never imports.
_NOT_ON_THE_PHOTONIC_PATH = (
    "repro.scenarios",
    "repro.noc.network", "repro.noc.router", "repro.noc.routing",
    "repro.noc.topology", "repro.noc.buffer", "repro.noc.link",
    "repro.experiments.knee", "repro.experiments.replication",
    "repro.experiments.report", "repro.experiments.figures",
    "repro.experiments.validation",
    "repro.fabric", "repro.service", "repro.ml", "repro.analysis",
    "multiprocessing",
)


def test_a_photonic_run_loads_only_the_layers_it_runs():
    # Every CLI run, daemon lane and ledger worker is a fresh
    # interpreter that imports (and, without bytecode, compiles) each
    # module it loads: package __init__s export lazily and optional
    # layers import on first use.
    import os
    import sys

    probe = (
        "import sys, repro\n"
        "from repro.experiments.runner import Fidelity\n"
        "tiny = Fidelity('tiny', 300, 100, (0.5,))\n"
        "for arch in ('firefly', 'dhetpnoc'):\n"
        "    repro.Session().run_one(arch, 1, 'skewed3', 200.0,"
        " fidelity=tiny)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout.split()
    unneeded = [
        name for name in loaded
        if any(name == layer or name.startswith(layer + ".")
               for layer in _NOT_ON_THE_PHOTONIC_PATH)
    ]
    assert not unneeded, f"a photonic run loaded {unneeded}"
    ours = [name for name in loaded if name.partition(".")[0] == "repro"]
    assert len(ours) <= 42, f"{len(ours)} repro modules: {ours}"


#: Layers only some verbs run: their handlers (and the choices only
#: their parsers print) import them.
_LOADED_BY_A_VERB = (
    "repro.experiments.figures", "repro.experiments.validation",
    "repro.ml", "repro.scenarios", "repro.fabric", "repro.service",
    "repro.api.registry", "repro.gpu", "repro.area",
)


def test_the_cli_loads_what_every_verb_needs_and_no_more():
    # ``dhetpnoc-repro <verb>`` starts by importing the CLI package:
    # building the parser loads the session, the spec and the store,
    # not a layer one verb runs.
    import os
    import sys

    probe = (
        "import sys, repro.experiments.cli\n"
        "repro.experiments.cli.build_parser()\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout.split()
    unneeded = [
        name for name in loaded
        if any(name == layer or name.startswith(layer + ".")
               for layer in _LOADED_BY_A_VERB)
    ]
    assert not unneeded, f"the CLI loaded {unneeded}"
    ours = [name for name in loaded if name.partition(".")[0] == "repro"]
    assert len(ours) <= 49, f"{len(ours)} repro modules: {ours}"


def _packages():
    for init in sorted((REPO_ROOT / "src").glob("repro/**/__init__.py")):
        yield ".".join(init.parent.relative_to(REPO_ROOT / "src").parts)


@pytest.mark.parametrize("name", list(_packages()))
def test_every_package_export_resolves_and_is_listed(name):
    # A lazy map is a table of strings: a typo in it surfaces only when
    # the name is first read.
    import importlib

    package = importlib.import_module(name)
    for export in getattr(package, "__all__", ()):
        assert getattr(package, export) is not None, export
        assert export in dir(package), export


def test_one_place_wires_a_simulation():
    # runner.wire_run + attach_traffic: _run_once, `trace record` and
    # `trace replay` are all written on them (the engine's own doctest
    # is the only other text that spells a step out).
    wiring = {"src/repro/experiments/runner.py", "src/repro/sim/engine.py"}
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
    # tools/opcount.py counts bytecodes, it times nothing: a work
    # measure beside the ledger's seconds, not a second harness.
    assert names("tools") == [
        "daemon_smoke.sh", "door_allowlist.txt", "door_census.py",
        "fuzz_triage.py", "opcount.py", "test_census.py",
    ]
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


def test_every_page_the_source_cites_exists():
    import re

    cited = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in re.findall(r"[\w./-]+\.md\b", text):
            cited.setdefault(name, []).append(str(path.relative_to(REPO_ROOT)))
    assert "docs/model.md" in cited
    missing = {name: where for name, where in cited.items()
               if not (REPO_ROOT / name).is_file()}
    assert not missing


def test_the_traffic_stream_has_one_reader():
    """``streams.get("traffic")`` is read only as the stream a
    ``TrafficGenerator`` is built over: the generator reads it ahead, so
    a second reader would see it shifted by the words read ahead."""
    import ast

    def builds_generator(call):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name == "for_offered_gbps":
            name = getattr(func.value, "id", None)
        return name == "TrafficGenerator"

    reads = stray = 0
    for directory in ("src", "benchmarks", "examples", "tools"):
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            built_over = {
                id(arg) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and builds_generator(node)
                for arg in node.args
            }
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get"
                        and [getattr(a, "value", None) for a in node.args]
                        == ["traffic"]):
                    reads += 1
                    if id(node) not in built_over:
                        stray += 1
                        print(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert reads >= 4
    assert stray == 0


@pytest.mark.parametrize(
    "needle",
    [
        # The ingest door: its module, its trace fitter and the report it
        # printed, and the CSV reader that only its tests used. A trace
        # is JSONL, read by ``TrafficTrace.load``.
        "scenarios.ingest", "ingest_trace", "infer_phase_count",
        "IngestReport", "load_csv_trace", "load_any_trace",
        # The coverage door: its report, its histogram bins and the
        # library set it scored. The dimension scores stay, for ``ml``.
        "CoverageReport", "coverage_report", "library_schedules",
        "BIN_LABELS", "_bin_for", "_BIN_EDGES",
    ],
)
def test_a_removed_door_stays_gone(needle):
    assert _count_in_src(needle) == {}
