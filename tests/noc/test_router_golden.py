"""Golden pins for the wormhole router pipeline.

There is one router implementation and no naive reference to compare it
against, so its behaviour is pinned by value: a 4x4 mesh under seeded
traffic that hits the cases a pipeline rewrite gets wrong (several
packets queued behind each other in one VC, credit exhaustion on a
shallow VC, many inputs contending for one output, both arbiter
kinds), plus one full ``RunResult`` of the 64-core electrical mesh.

The numbers in ``router_golden.json`` were produced by the commit
before the activity-indexed router landed. Regenerate them only for a
change that is *meant* to alter simulated behaviour::

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

#: name -> (n_vcs, vc_depth, arbiter, n_flits, packets, hotspot share).
#: ``queued_in_one_vc``: 2 VCs deep enough for three 3-flit packets, so
#: a new head sits behind the previous packet's tail in the same VC.
#: ``credit_exhaustion``: 6-flit packets through 2-slot VCs, so senders
#: stall on credits every hop. ``output_contention``: 70 % of packets
#: target node 5, so four inputs fight for one output every cycle.
MESH_CASES = {
    "queued_in_one_vc-round_robin": (2, 9, "round_robin", 3, 220, 0.0),
    "queued_in_one_vc-matrix": (2, 9, "matrix", 3, 220, 0.0),
    "credit_exhaustion-round_robin": (3, 2, "round_robin", 6, 120, 0.0),
    "credit_exhaustion-matrix": (3, 2, "matrix", 6, 120, 0.0),
    "output_contention-round_robin": (4, 4, "round_robin", 4, 160, 0.7),
    "output_contention-matrix": (4, 4, "matrix", 4, 160, 0.7),
}

RUN_FIDELITY = Fidelity("router-golden", 700, 100, (0.5,))


def observe_mesh(case: str) -> dict:
    """Drive one mesh case to quiescence and return everything pinned."""
    n_vcs, vc_depth, arbiter, n_flits, n_packets, hotspot = MESH_CASES[case]
    topology = mesh(4, 4)
    net = ElectricalNetwork(
        topology,
        router_config=RouterConfig(n_vcs=n_vcs, vc_depth=vc_depth, arbiter=arbiter),
        routing=DimensionOrderRouting(topology),
    )
    sim = Simulator()
    sim.register(net)
    rng = random.Random(sum(case.encode()))
    nodes = list(topology.nodes())
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


def observe_run() -> dict:
    result = Session().run_one(
        "electrical", 1, "skewed3", 600.0, fidelity=RUN_FIDELITY, seed=1
    )
    return result_to_dict(result)


def observe_all() -> dict:
    golden = {case: observe_mesh(case) for case in MESH_CASES}
    golden["run_result"] = observe_run()
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(MESH_CASES))
def test_mesh_case_matches_golden(golden, case):
    assert json.loads(json.dumps(observe_mesh(case))) == golden[case]


def test_mesh_cases_hit_the_hard_paths(golden):
    """The pins are only worth something while the traffic stays hard:
    every case must keep routers busy well past injection."""
    for case, (_, _, _, n_flits, n_packets, _) in MESH_CASES.items():
        metrics = golden[case]["metrics"]
        assert metrics["packets_delivered"] == n_packets
        assert metrics["flits_delivered"] == n_packets * n_flits
        assert metrics["latency_max"] > 4 * n_flits, case


def test_electrical_run_result_matches_golden(golden):
    assert json.loads(json.dumps(observe_run())) == golden["run_result"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(observe_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
