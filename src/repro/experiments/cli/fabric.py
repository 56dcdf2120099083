"""``serve`` / ``fabric`` / ``jobs``: host the daemon, join it as a
worker, drive jobs on it (see docs/fabric.md, docs/service.md)."""

from __future__ import annotations

import contextlib

from repro.experiments.cli.options import (
    CliError,
    add_daemon_options,
    checked,
    load_spec,
)
from repro.experiments.report import ascii_table


def register(sub) -> None:
    fabric = sub.add_parser(
        "fabric",
        help="distributed sweep fabric: join a daemon as a worker "
        "(see docs/fabric.md)",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    worker = fabric_sub.add_parser(
        "worker", help="join a coordinator and simulate leased points"
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address ('serve' prints it)",
    )
    worker.add_argument(
        "--fail-after", type=checked("fail_after", 0), default=None, metavar="N",
        help="chaos hook for fault-tolerance tests: hard-exit after "
        "streaming N results while still holding a lease",
    )
    worker.set_defaults(handler=_fabric_worker)

    serve = sub.add_parser(
        "serve",
        help="host the experiment service: a long-lived daemon that "
        "accepts spec submissions as jobs and streams results back "
        "(see docs/service.md)",
    )
    add_daemon_options(serve)
    serve.add_argument(
        "--workers", type=checked("workers", 0), default=1,
        help="local simulation lanes shared by every job (default: 1; 0 "
        "leaves all simulation to 'fabric worker's attached to this port)",
    )
    serve.add_argument(
        "--max-jobs", type=checked("max_jobs", 1), default=2, metavar="N",
        help="jobs executed concurrently (default: 2)",
    )
    serve.add_argument(
        "--max-pending", type=checked("max_pending", 1), default=16, metavar="N",
        help="queued jobs admitted before submissions are rejected "
        "(default: 16)",
    )
    serve.add_argument(
        "--lease-size", type=checked("lease_size", 1), default=2, metavar="N",
        help="points leased to a worker per request (default: 2)",
    )
    serve.add_argument(
        "--max-attempts", type=checked("max_attempts", 1), default=3, metavar="N",
        help="lease attempts per point before it is surfaced as a "
        "point-level failure (default: 3)",
    )
    serve.add_argument(
        "--worker-timeout", default=20.0, metavar="SECONDS",
        type=checked("worker_timeout_s", parse=float, strict=True),
        help="heartbeat silence after which a worker's leases are "
        "re-queued (default: 20)",
    )
    serve.set_defaults(handler=_serve)

    jobs = sub.add_parser(
        "jobs",
        help="drive jobs on a running experiment service: "
        "submit/status/watch/cancel/list (see docs/service.md)",
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    submit = jobs_sub.add_parser(
        "submit", help="submit a declarative spec JSON file as a job"
    )
    submit.add_argument("spec", metavar="SPEC.json")
    submit.add_argument(
        "--no-watch", action="store_true",
        help="print the job id and return instead of streaming results "
        "(re-attach later with 'jobs watch')",
    )
    watch = jobs_sub.add_parser(
        "watch", help="stream a job's results (replays from the start)"
    )
    watch.add_argument("job_id", metavar="JOB_ID")
    status = jobs_sub.add_parser("status", help="show one job's state")
    status.add_argument("job_id", metavar="JOB_ID")
    cancel = jobs_sub.add_parser(
        "cancel",
        help="cancel a job; completed points stay in the store, so "
        "re-submitting the spec resumes where it stopped",
    )
    cancel.add_argument("job_id", metavar="JOB_ID")
    listing = jobs_sub.add_parser(
        "list", help="list every job the service admitted"
    )
    # --connect goes on after each verb's own arguments (--no-watch).
    for cmd, handler in (
        (submit, _jobs_submit), (watch, _jobs_watch), (status, _jobs_status),
        (cancel, _jobs_cancel), (listing, _jobs_list),
    ):
        cmd.add_argument(
            "--connect", required=True, metavar="HOST:PORT",
            help="service address ('serve' prints it)",
        )
        cmd.set_defaults(handler=handler)


# ---------------------------------------------------------------------------
# Daemons and workers
# ---------------------------------------------------------------------------

def _as_daemon() -> None:
    """Log to stderr, and stop on SIGTERM the way Ctrl-C stops: as a
    ``KeyboardInterrupt``, which a server and a worker end cleanly on."""
    import logging
    import signal

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s"
    )
    signal.signal(signal.SIGTERM, signal.default_int_handler)


def _serve(args) -> None:
    """Host the daemon, say where it listens and stores, and block."""
    from repro.fabric.coordinator import Coordinator

    _as_daemon()
    daemon = Coordinator(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        lease_size=args.lease_size,
        worker_timeout_s=args.worker_timeout,
        max_attempts=args.max_attempts,
        max_jobs=args.max_jobs,
        max_pending=args.max_pending,
        backend=args.store_backend,
    )
    host, port = daemon.start()
    where = daemon.store.path if args.store else "service memory"
    print(f"experiment service listening on {host}:{port} (store: {where})",
          flush=True)
    daemon.serve_forever()


def _fabric_worker(args) -> None:
    from repro.fabric.errors import FabricError
    from repro.fabric.worker import Worker

    _as_daemon()
    worker = Worker(args.connect, fail_after=args.fail_after)
    try:
        completed = worker.run()
    except (FabricError, OSError) as exc:
        raise CliError(f"dhetpnoc-repro fabric worker: error: {exc}", 1)
    print(f"worker done: {completed} point(s) simulated")


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def point_line(index: int, key: str, result, cached: bool) -> None:
    """Progress line printed per streamed service result."""
    label = f"{result.arch}/set{result.bw_set_index}/{result.pattern}"
    if result.scenario:
        label += f"/{result.scenario}"
    tag = "store" if cached else "sim"
    print(f"  [{index}] {label} @ {result.offered_gbps:.0f} Gb/s -> "
          f"{result.delivered_gbps:.1f} Gb/s delivered [{tag}]")


@contextlib.contextmanager
def _service(args):
    """A client connected to ``--connect``; whatever the wire or the
    service refuses while it is open is the verb's error exit."""
    from repro.fabric.errors import FabricError
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(args.connect) as client:
            yield client
    except FabricError as exc:
        raise CliError(f"dhetpnoc-repro jobs: error: {exc}", 1)


def _summary(run) -> None:
    print(f"job {run.job_id} done: {len(run.results)} point(s), "
          f"{run.executed} simulated, {run.hits} from store")


def _jobs_submit(args) -> None:
    with _service(args) as client:
        handle = client.submit(
            load_spec(args.spec, "jobs"), watch=not args.no_watch
        )
        dedup = " (duplicate submission)" if handle.deduped else ""
        print(f"job {handle.job_id} {handle.state}: "
              f"{handle.total} point(s){dedup}", flush=True)
        if not args.no_watch:
            _summary(client.stream(handle.job_id, on_point=point_line))


def _jobs_watch(args) -> None:
    with _service(args) as client:
        _summary(client.watch(args.job_id, on_point=point_line))


def _jobs_status(args) -> None:
    with _service(args) as client:
        row = client.status(args.job_id)
    detail = f" ({row['error']})" if row["error"] else ""
    print(f"job {row['job_id']} {row['state']}: "
          f"{row['completed']}/{row['total']} point(s), "
          f"{row['executed']} simulated, "
          f"{row['hits']} from store{detail}")


def _jobs_cancel(args) -> None:
    with _service(args) as client:
        state = client.cancel(args.job_id)
    print(f"job {args.job_id} {state}")


def _jobs_list(args) -> None:
    with _service(args) as client:
        jobs = client.list_jobs()
    rows = [
        [r["job_id"], r["state"], r["total"], r["completed"],
         r["executed"], r["hits"]]
        for r in jobs
    ]
    print(ascii_table(
        ["job", "state", "points", "done", "simulated", "hits"],
        rows, title=f"Jobs on {args.connect}",
    ))
