"""``store info`` / ``store compact``: inspect or compact a persistent
result store (see docs/sweeps.md)."""

from __future__ import annotations

import os

from repro.experiments.cli.options import add_store_options
from repro.experiments.report import ascii_table


def register(sub) -> None:
    store = sub.add_parser(
        "store", help="inspect or compact a persistent result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    for name, help_text, handler in (
        ("info", "show backend, record and shard counts", _info),
        ("compact", "dedupe repeated keys and rewrite the store in place",
         _compact),
    ):
        cmd = store_sub.add_parser(name, help=help_text)
        add_store_options(cmd)
        cmd.set_defaults(handler=handler)


def _open(args):
    from repro.experiments.store import open_store

    return open_store(args.store, args.store_backend)


def _compact(args) -> None:
    stats = _open(args).compact()
    print(
        f"compacted {stats.files} file(s): {stats.lines_before} lines -> "
        f"{stats.records_after} records "
        f"({stats.duplicates_dropped} duplicates, "
        f"{stats.corrupt_dropped} corrupt dropped; "
        f"{stats.bytes_before} -> {stats.bytes_after} bytes)"
    )


def _info(args) -> None:
    from repro.experiments.store import JsonlBackend

    store = _open(args)
    backend = store.backend
    files = isinstance(backend, JsonlBackend)  # either layout: files to list
    kind = type(backend).__name__
    if files:
        kind += " (sharded)" if backend.sharded else " (jsonl)"
    records = len(store)
    print(f"store: {store.path}")
    print(f"backend: {kind}")
    print(f"records: {records}")
    if store.corrupt_lines:
        print(f"corrupt lines skipped: {store.corrupt_lines}")
    if files:
        counts = backend.shard_record_counts()
        rows = [
            [os.path.basename(path), counts[os.path.basename(path)],
             os.path.getsize(path)]
            for path in backend.shard_paths()
        ]
        print(ascii_table(["shard", "records", "bytes"], rows,
                          title="Shards"))
