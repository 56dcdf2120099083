"""Helpers the test modules share.

One copy each of the tiny fidelity most simulated tests run at, the
one-curve spec built from it (and its first point in wire form), a
polling wait, a deadline on a blocking read, the bytes of one wire
frame built without the protocol module, the reference local run, a
store backend that counts its ``put`` calls, a server started for the
length of a block, and the launchers of fabric workers (in this
process, or as ``fabric worker`` subprocesses) and of any CLI
subprocess.

``tests/`` holds the root ``conftest.py``, so pytest puts it on
``sys.path`` and any test module can ``from support import ...``.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

import repro
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.experiments.runner import Fidelity
from repro.experiments.store import MemoryBackend, StoreBackend
from repro.fabric.protocol import point_to_dict
from repro.fabric.worker import Worker

#: 700 cycles, 100 of them warm-up, at two loads: long enough for
#: reservations, retries and the warm-up reset, short enough for tier-1.
TINY = Fidelity("tiny", 700, 100, (0.3, 0.8))


def tiny_spec(**overrides) -> ExperimentSpec:
    """One Firefly curve (set 1, uniform, seed 1) at :data:`TINY`;
    *overrides* replace any spec field."""
    kwargs = dict(
        archs=("firefly",),
        bw_sets=(1,),
        patterns=("uniform",),
        seeds=(1,),
        fidelity=TINY,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def wire_point(seed: int = 1) -> dict:
    """The first point of ``tiny_spec(seeds=(seed,))`` in wire form."""
    return point_to_dict(tiny_spec(seeds=(seed,)).expand()[0])


def within(seconds: float, read):
    """``read()`` on a helper thread: fail instead of hanging."""
    box = {}

    def run():
        try:
            box["value"] = read()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"read still blocked after {seconds}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def wire_frame(message: dict) -> bytes:
    """One frame's bytes, built independently of the protocol module:
    big-endian u32 length, then compact UTF-8 JSON."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def wait_until(predicate, timeout=30.0, message="condition"):
    """Poll *predicate* until it holds; fail naming *message* after
    *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def local_run(spec):
    """Reference execution: results + keys from a local Session.run."""
    with Session() as session:
        results = session.run(spec)
        keys = [
            session.executor._key(point, spec.fidelity)
            for point in spec.expand()
        ]
    return results, keys


class CountingBackend(StoreBackend):
    """Memory backend that counts ``put`` calls per key."""

    def __init__(self) -> None:
        self.inner = MemoryBackend()
        self.put_counts: Counter = Counter()
        self._lock = threading.Lock()

    def put(self, key, result):
        with self._lock:
            self.put_counts[key] += 1
        self.inner.put(key, result)

    def get(self, key, coords=None):
        return self.inner.get(key, coords)

    def scan(self, coords=None):
        return self.inner.scan(coords)

    def flush(self):
        self.inner.flush()

    def clear(self):
        """Forget every record and every count: a fresh store."""
        with self._lock:
            self.put_counts.clear()
        self.inner.clear()

    @property
    def puts(self) -> int:
        """``put`` calls since construction or the last :meth:`clear`."""
        return sum(self.put_counts.values())


@contextmanager
def serving(server):
    """Start *server* (a coordinator or a service) for the block, and
    stop it after."""
    server.start()
    try:
        yield server
    finally:
        server.stop()


def attach_worker(address):
    """Run one fabric worker on a thread of this process."""
    worker = Worker(address)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def inthread_workers(address, n=2):
    """Run *n* workers inside this process (no chaos hooks allowed)."""
    pairs = [attach_worker(address) for _ in range(n)]
    return [w for w, _t in pairs], [t for _w, t in pairs]


def spawn_cli(*argv, **popen) -> subprocess.Popen:
    """Start ``python -m repro.experiments.cli *argv*`` as a subprocess
    whose stdout (and, unless *popen* redirects it, stderr) is a text
    pipe."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    popen.setdefault("stderr", subprocess.STDOUT)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", *argv], env=env,
        stdout=subprocess.PIPE, text=True, **popen,
    )


def spawn_worker(address, fail_after=None) -> subprocess.Popen:
    """Start a real subprocess worker via the CLI entry point."""
    host, port = address
    argv = ["fabric", "worker", "--connect", f"{host}:{port}"]
    if fail_after is not None:
        argv += ["--fail-after", str(fail_after)]
    return spawn_cli(*argv)
