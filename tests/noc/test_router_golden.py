"""Golden pins for the wormhole router pipeline.

There is one router implementation and no naive reference to compare it
against, so its behaviour is pinned by value: a 4x4 mesh under seeded
traffic that hits the cases a pipeline rewrite gets wrong (several
packets queued behind each other in one VC, credit exhaustion on a
shallow VC, many inputs contending for one output, one VC per port),
plus two full ``RunResult`` records of the 64-core electrical mesh.
Beside each case, under ``"wires"``, sits what the links and credit
loops did: every link's ``[items_carried, bits_carried]`` (they feed
wire energy) and every router's end-state credit rows (all back at
``vc_depth`` once the last credits have landed). One more case covers
what a rewrite of the in-flight machinery can get wrong: a gapped
low-load schedule driven by ``sim.run``, where the engine jumps the idle
spans between packets and the tick count pins where it does.

The numbers in ``router_golden.json`` were produced by the commit
before the change they guard: the first three mesh cases and
``run_result`` before the activity-indexed router, ``"wires"`` and
``gapped_low_load`` before the network-owned due queues,
``single_vc-round_robin`` and ``run_result-set3-seed2`` before the
one-pass router hop. The matrix-arbiter and 3-cycle-link cases left
with the settings they pinned. Regenerate them only for a change that is
*meant* to alter simulated behaviour::

    PYTHONPATH=src python tests/noc/test_router_golden.py
"""

import dataclasses
import json
import pathlib
import random

import pytest

from repro.api import Session
from repro.experiments.runner import Fidelity
from repro.experiments.store import result_to_dict
from repro.noc.flit import Packet
from repro.noc.network import ElectricalNetwork
from repro.noc.router import RouterConfig
from repro.noc.routing import DimensionOrderRouting
from repro.noc.topology import mesh
from repro.sim.engine import Simulator

GOLDEN_PATH = pathlib.Path(__file__).with_name("router_golden.json")

#: name -> (n_vcs, vc_depth, n_flits, packets, hotspot share). Every
#: router arbitrates round-robin (the ``-round_robin`` in each name).
#: ``queued_in_one_vc``: 2 VCs deep enough for three 3-flit packets, so
#: a new head sits behind the previous packet's tail in the same VC.
#: ``credit_exhaustion``: 6-flit packets through 2-slot VCs, so senders
#: stall on credits every hop. ``output_contention``: 70 % of packets
#: target node 5, so four inputs fight for one output every cycle.
#: ``single_vc``: one VC per port, so every input port has at most one
#: ready VC to nominate and a packet blocks everything behind it in the
#: port.
MESH_CASES = {
    "queued_in_one_vc-round_robin": (2, 9, 3, 220, 0.0),
    "credit_exhaustion-round_robin": (3, 2, 6, 120, 0.0),
    "output_contention-round_robin": (4, 4, 4, 160, 0.7),
    "single_vc-round_robin": (1, 4, 4, 120, 0.3),
}

#: One or two packets, then a gap: 3 cycles leaves the previous packets
#: in flight, 40 and 300 let the mesh go quiet so ``sim.run`` jumps.
GAPPED_CASE = "gapped_low_load"
GAPPED_BURSTS, GAPPED_GAPS = 24, (3, 40, 300)

RUN_FIDELITY = Fidelity("router-golden", 700, 100, (0.5,))

#: golden key -> (bandwidth set, pattern, offered Gb/s, seed) of a full
#: 64-core electrical ``RunResult``. BW set 3 moves 8 x 256-bit phit
#: trains instead of set 1's 64 x 32-bit ones.
RUN_CASES = {
    "run_result": (1, "skewed3", 600.0, 1),
    "run_result-set3-seed2": (3, "skewed3", 600.0, 2),
}


def build_mesh(n_vcs, vc_depth, fast_path=None):
    topology = mesh(4, 4)
    net = ElectricalNetwork(
        topology,
        router_config=RouterConfig(n_vcs=n_vcs, vc_depth=vc_depth),
        routing=DimensionOrderRouting(topology),
    )
    sim = Simulator(fast_path=fast_path)
    sim.register(net)
    return net, sim


def drive_mesh(case: str):
    """Drive one saturating mesh case to quiescence."""
    n_vcs, vc_depth, n_flits, n_packets, hotspot = MESH_CASES[case]
    net, sim = build_mesh(n_vcs, vc_depth)
    rng = random.Random(sum(case.encode()))
    nodes = list(net.topology.nodes())
    # Two or three packets per cycle: well past what a 4x4 mesh with
    # this few VCs can carry, so queues build everywhere.
    remaining = n_packets
    while remaining:
        for _ in range(min(remaining, rng.choice((2, 3)))):
            src, dst = rng.sample(nodes, 2)
            if rng.random() < hotspot and src != 5:
                dst = 5
            net.submit(Packet(src=src, dst=dst, n_flits=n_flits, flit_bits=32,
                              created_cycle=sim.cycle))
            remaining -= 1
        sim.step()
    assert net.drain(sim, max_cycles=20_000)
    return net, sim


def drive_gapped():
    """Bursts of one or two packets with idle gaps, on the fast path.

    Returns the number of cycles the network was really ticked as well:
    the rest of ``sim.cycle`` was skipped or jumped.
    """
    net, sim = build_mesh(2, 4, fast_path=True)
    ticked = []
    tick = net.tick

    def counted_tick(cycle):
        ticked.append(cycle)
        tick(cycle)

    net.tick = counted_tick
    rng = random.Random(sum(GAPPED_CASE.encode()))
    nodes = list(net.topology.nodes())
    for _ in range(GAPPED_BURSTS):
        for _ in range(rng.choice((1, 2))):
            src, dst = rng.sample(nodes, 2)
            net.submit(Packet(src=src, dst=dst, n_flits=5, flit_bits=32,
                              created_cycle=sim.cycle))
        sim.run(rng.choice(GAPPED_GAPS))
    sim.run(300)
    assert net.is_idle() and not net.flits_in_network
    return net, sim, len(ticked)


def observe_mesh(net, sim) -> dict:
    """Everything pinned per case since the activity-indexed router."""
    for router in net.routers.values():
        router.settle(sim.cycle)
    return {
        "drain_cycle": sim.cycle,
        "metrics": dataclasses.asdict(net.metrics),
        "routers": {
            str(node): [
                router.flits_routed,
                router.flits_forwarded,
                router.bits_forwarded,
                router.buffer_flit_cycles,
            ]
            for node, router in net.routers.items()
        },
    }


def observe_wires(net, sim) -> dict:
    """What every link carried and where every credit counter ended.

    ``drain`` stops with the last hop's credits still on the wire; they
    land one cycle later (so call this after :func:`observe_mesh`).
    """
    sim.step()
    return {
        "links": {
            link.name: [link.items_carried, link.bits_carried]
            for link in net._links
        },
        "credits": {
            str(node): router._credits for node, router in net.routers.items()
        },
    }


def observe_run(key: str = "run_result") -> dict:
    bw_set, pattern, offered, seed = RUN_CASES[key]
    result = Session().run_one(
        "electrical", bw_set, pattern, offered, fidelity=RUN_FIDELITY, seed=seed
    )
    return result_to_dict(result)


def observe_all() -> dict:
    golden, wires = {}, {}
    for case in MESH_CASES:
        net, sim = drive_mesh(case)
        golden[case], wires[case] = observe_mesh(net, sim), observe_wires(net, sim)
    net, sim, ticked = drive_gapped()
    golden[GAPPED_CASE] = {**observe_mesh(net, sim), "cycles_ticked": ticked}
    wires[GAPPED_CASE] = observe_wires(net, sim)
    for key in RUN_CASES:
        golden[key] = observe_run(key)
    golden["wires"] = wires
    return golden


def as_json(value):
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(MESH_CASES))
def test_mesh_case_matches_golden(golden, case):
    net, sim = drive_mesh(case)
    assert as_json(observe_mesh(net, sim)) == golden[case]
    assert as_json(observe_wires(net, sim)) == golden["wires"][case]


def test_mesh_cases_hit_the_hard_paths(golden):
    """The pins are only worth something while the traffic stays hard:
    every case must keep routers busy well past injection."""
    for case, (_, _, n_flits, n_packets, _) in MESH_CASES.items():
        metrics = golden[case]["metrics"]
        assert metrics["packets_delivered"] == n_packets
        assert metrics["flits_delivered"] == n_packets * n_flits
        assert metrics["latency_max"] > 4 * n_flits, case


def test_gapped_low_load_matches_golden(golden):
    net, sim, ticked = drive_gapped()
    observed = {**observe_mesh(net, sim), "cycles_ticked": ticked}
    assert as_json(observed) == golden[GAPPED_CASE]
    # The case is only worth its pin while the engine really jumps: most
    # of the run is idle, and every idle cycle still counts as measured.
    assert ticked < sim.cycle // 4
    assert net.metrics.measured_cycles == sim.cycle
    assert as_json(observe_wires(net, sim)) == golden["wires"][GAPPED_CASE]


def test_every_credit_comes_home(golden):
    """Each wired row ends at ``vc_depth``; the local row is never drawn
    on (ejection consumes no credit)."""
    depth = {case: spec[1] for case, spec in MESH_CASES.items()}
    depth[GAPPED_CASE] = 4
    for case, wires in golden["wires"].items():
        for rows in wires["credits"].values():
            assert all(set(row) == {depth[case]} for row in rows[:-1]), case
            assert set(rows[-1]) == {1 << 30}, case
        assert sum(items for items, _ in wires["links"].values()) > 0, case


def test_electrical_run_result_matches_golden(golden):
    assert as_json(observe_run()) == golden["run_result"]


def test_electrical_run_result_on_bw_set_3_seed_2_matches_golden(golden):
    assert as_json(observe_run("run_result-set3-seed2")) == golden["run_result-set3-seed2"]


if __name__ == "__main__":
    # One number per line for the cases; one line per case for the wires
    # (some 4000 numbers, which sort last).
    seen = observe_all()
    wires = ",\n".join(
        f'  "{case}": {json.dumps(value, sort_keys=True)}'
        for case, value in sorted(seen.pop("wires").items())
    )
    cases = json.dumps(seen, indent=1, sort_keys=True)
    GOLDEN_PATH.write_text(f'{cases[:-2]},\n "wires": {{\n{wires}\n }}\n}}\n')
    print(f"wrote {GOLDEN_PATH}")
