"""Pin the public API surface of ``repro`` and ``repro.api``.

The exported names of the two entry-point packages are a compatibility
contract: a rename or removal must show up in this file (and therefore
in the PR) deliberately. Additions are deliberate too — extend the
pinned sets alongside the code.
"""

import importlib

import pytest

import repro
import repro.api

from support import serving

#: The exact exported surface of ``repro`` (lazy members included).
REPRO_EXPORTS = {
    "BANDWIDTH_SETS",
    "BW_SET_1",
    "BW_SET_2",
    "BW_SET_3",
    "DHetPNoC",
    "ExperimentSpec",
    "FireflyNoC",
    "RandomStreams",
    "Session",
    "Simulator",
    "SystemConfig",
    "TrafficGenerator",
    "api",
    "pattern_by_name",
    "__version__",
}

#: The exact exported surface of ``repro.api``.
REPRO_API_EXPORTS = {
    "DryRunReport",
    "ExperimentSpec",
    "Registry",
    "RegistryError",
    "Session",
    "registry",
}

#: The exact exported surface of ``repro.service`` (all but the error
#: are lazy: importing the package must not pull in the daemon).
REPRO_SERVICE_EXPORTS = {
    "JobQueue",
    "JobRecord",
    "JobRejected",
    "ServiceClient",
    "ServiceError",
    "job_id_for_spec",
}

#: The registry tables ``repro.api.registry`` must expose.
REGISTRY_TABLES = {
    "architectures",
    "bandwidth_sets",
    "fidelities",
    "patterns",
    "predictors",
    "scenarios",
    "store_backends",
    "transports",
}


def test_repro_all_is_pinned():
    assert set(repro.__all__) == REPRO_EXPORTS


def test_repro_api_all_is_pinned():
    assert set(repro.api.__all__) == REPRO_API_EXPORTS


def test_repro_service_exports_are_pinned_and_resolve():
    service = importlib.import_module("repro.service")
    assert set(service.__all__) == REPRO_SERVICE_EXPORTS
    for name in REPRO_SERVICE_EXPORTS:
        assert getattr(service, name) is not None
    assert REPRO_SERVICE_EXPORTS <= set(dir(service))


def test_both_job_forms_use_the_one_job_record(monkeypatch):
    # A planned batch instantiates the very class `repro.service`
    # exports: there is no second job model behind the fabric executor.
    from repro.experiments.runner import QUICK_FIDELITY
    from repro.fabric import coordinator
    from repro.fabric.protocol import recv_message, send_message
    from repro.fabric.server import dial

    service = importlib.import_module("repro.service")
    assert service.JobRecord is coordinator.JobRecord
    created = []

    class Spy(service.JobRecord):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(coordinator, "JobRecord", Spy)
    with serving(coordinator.Coordinator()) as server:
        conn, _welcome = dial(server.address, "jobs")
        send_message(conn, {
            "type": "job_submit", "fidelity": QUICK_FIDELITY.to_dict(),
            "config": None, "points": [], "watch": True,
        })
        assert recv_message(conn)["type"] == "job_accepted"
        assert recv_message(conn)["type"] == "job_end"
        conn.close()
    (record,) = created
    # A batch record (no spec), its items released once it ended.
    assert record.spec is None and record.items is None
    assert record.state == "done"


@pytest.mark.parametrize("name", sorted(REPRO_EXPORTS))
def test_every_repro_export_resolves(name):
    assert getattr(repro, name) is not None


@pytest.mark.parametrize("name", sorted(REPRO_API_EXPORTS))
def test_every_repro_api_export_resolves(name):
    assert getattr(repro.api, name) is not None


def test_lazy_exports_appear_in_dir():
    assert REPRO_EXPORTS - {"__version__"} <= set(dir(repro))
    assert REPRO_API_EXPORTS <= set(dir(repro.api))


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.no_such_member
    with pytest.raises(AttributeError):
        repro.api.no_such_member


def test_registry_namespace_tables():
    module = importlib.import_module("repro.api.registry")
    assert REGISTRY_TABLES <= set(module.__all__)
    for name in REGISTRY_TABLES:
        table = getattr(module, name)
        assert table.names(), f"registry {name} lists no names"


def test_registered_names_are_the_canonical_ones():
    from repro.api import registry

    assert set(registry.architectures.names()) == {
        "firefly", "dhetpnoc", "electrical",
    }
    assert set(registry.bandwidth_sets.names()) == {1, 2, 3}
    assert set(registry.fidelities.names()) == {"paper", "quick"}
    assert {"jsonl", "sharded", "memory"} <= set(registry.store_backends.names())
    assert "uniform" in registry.patterns.names()
    assert "steady" in registry.scenarios.names()
    assert set(registry.predictors.names()) == {"ridge", "knn"}
