"""Public-API docstring coverage for the sweep/store/scenario/api layers.

The documentation satellite of the sweeps PR promises that every public
class and function of :mod:`repro.experiments.store`,
:mod:`repro.experiments.sweep` (and the knee / replication policy
modules split out of it), the :mod:`repro.scenarios` package and
the :mod:`repro.api` package carries a docstring. This test keeps that
promise machine-checked (the CI doctest lane additionally executes the
runnable examples).
"""

import inspect

import pytest

import repro.api.base
import repro.api.registry
import repro.api.session
import repro.api.spec
import repro.experiments.costing
import repro.experiments.knee
import repro.experiments.replication
import repro.experiments.store
import repro.experiments.sweep
import repro.scenarios.compose
import repro.scenarios.coverage
import repro.scenarios.differential
import repro.scenarios.generate
import repro.scenarios.library
import repro.scenarios.player
import repro.scenarios.schedule
import repro.service.client
import repro.service.daemon
import repro.service.jobs

MODULES = [
    repro.experiments.costing,
    repro.experiments.knee,
    repro.experiments.replication,
    repro.experiments.store,
    repro.experiments.sweep,
    repro.service.client,
    repro.service.daemon,
    repro.service.jobs,
    repro.scenarios.schedule,
    repro.scenarios.compose,
    repro.scenarios.generate,
    repro.scenarios.coverage,
    repro.scenarios.differential,
    repro.scenarios.library,
    repro.scenarios.player,
    repro.api.base,
    repro.api.spec,
    repro.api.session,
    repro.api.registry,
]


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        yield name, obj


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_class_and_function_documented(module):
    missing = []
    for name, obj in _public_members(module):
        if not (obj.__doc__ and obj.__doc__.strip()):
            missing.append(name)
        if inspect.isclass(obj):
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_"):
                    continue
                if not inspect.isfunction(meth):
                    continue
                if not (meth.__doc__ and meth.__doc__.strip()):
                    missing.append(f"{name}.{meth_name}")
    assert not missing, (
        f"{module.__name__}: public API without docstrings: {missing}"
    )
