#!/usr/bin/env bash
# Localhost daemon smokes: the fabric coordinator with its workers, then
# the experiment service, each driven through the CLI as a user would
# and stopped with SIGTERM (which the daemons and workers treat like
# Ctrl-C: they stop cleanly and exit 0).
#
# Logs (serve.log, worker-*.log, service.log) and transcripts (*.out)
# go to the current directory, as do the stores and spec files. Uses
# ports 7023 and 7123 on 127.0.0.1.
#
# Usage:
#
#     bash tools/daemon_smoke.sh
#
# The tier-1 CI job runs it from the repository root;
# tools/door_census.py runs it as a door, in a scratch directory.
set -eo pipefail

export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
cli="python -m repro.experiments.cli"

# -- Localhost fabric smoke (kill a worker mid-sweep, resume) ---------------
# Coordinator + two subprocess workers; one worker hard-exits while
# holding a lease (--fail-after 1). The sweep must still complete (its
# points re-queue to the survivor), and a second sweep with a fresh
# local store must resume entirely from the coordinator's shared store
# (0 simulated). A sweep's batch is a job on the coordinator's `jobs`
# role, named by its keys: the second sweep submits the same batch, so
# it attaches to the first one's record, and the list shows that one
# job, done.
# No sleep/poll for the coordinator's bind: workers and clients dial
# with bounded exponential backoff, which is itself part of what this
# lane exercises.
$cli fabric serve --host 127.0.0.1 --port 7023 \
  --store fabric-shards/ --store-backend sharded > serve.log 2>&1 &
$cli fabric worker --connect 127.0.0.1:7023 \
  --fail-after 1 > worker-chaos.log 2>&1 &
$cli fabric worker --connect 127.0.0.1:7023 \
  > worker-ok.log 2>&1 &
$cli sweep --arch firefly dhetpnoc --bw-set 1 \
  --fabric 127.0.0.1:7023 --store local.jsonl | tee fabric.out
grep -q "fabric 127.0.0.1:7023" fabric.out
$cli sweep --arch firefly dhetpnoc --bw-set 1 \
  --fabric 127.0.0.1:7023 --store local2.jsonl | tee fabric-rerun.out
grep -q "0 simulated" fabric-rerun.out
grep -q "re-queueing" serve.log   # the killed worker's lease moved
$cli jobs list --connect 127.0.0.1:7023 | tee fabric-jobs.out
test "$(grep -c "^job-" fabric-jobs.out)" -eq 1
grep -q "^job-[0-9a-f]* *| done " fabric-jobs.out
kill $(jobs -p) 2>/dev/null || true
wait  # until each has stopped (and written out what it ran)

# -- Localhost service smoke (concurrent jobs, cancel, resume) --------------
# Start the experiment service, submit two jobs concurrently, cancel
# one mid-run, and assert the other completes. The cancelled job's
# completed points are already durable in the shared store, so
# re-submitting its spec must resume with "0 simulated". Clients dial
# with bounded backoff — no sleep/poll for the daemon's bind. The
# daemon is the fabric coordinator plus the jobs role, so a fabric
# worker attaches to the same port and does all of the simulation.
python -c "
from repro.api import ExperimentSpec
from repro.experiments.runner import Fidelity
# specB's grid is a strict subset of specA's: its points
# resolve as A's do, and after A completes every point of a
# resumed B is already stored.
smoke = Fidelity('smoke', 2000, 200, (0.25, 0.60, 1.00))
ExperimentSpec(archs=('firefly', 'dhetpnoc'), bw_sets=(1,),
               patterns=('uniform',), seeds=(1, 2, 3),
               fidelity=smoke).save('specA.json')
ExperimentSpec(archs=('firefly', 'dhetpnoc'), bw_sets=(1,),
               patterns=('uniform',), seeds=(1, 2),
               fidelity=smoke).save('specB.json')"
# No local lanes (--workers 0): no point of B can be simulated
# before the cancel lands, however fast a point is.
$cli serve --host 127.0.0.1 --port 7123 \
  --store service-shards/ --store-backend sharded \
  --workers 0 --max-jobs 2 > service.log 2>&1 &
$cli jobs submit specA.json \
  --connect 127.0.0.1:7123 --no-watch | tee submitA.out
$cli jobs submit specB.json \
  --connect 127.0.0.1:7123 --no-watch | tee submitB.out
job_b=$(grep -o "job-[0-9a-f]*" submitB.out)
# Cancel when B is seen running, not after a fixed sleep.
for _ in $(seq 1 50); do
  $cli jobs status "$job_b" \
    --connect 127.0.0.1:7123 | tee pollB.out
  if grep -q "running" pollB.out; then break; fi
  sleep 0.2
done
grep -q "running" pollB.out
$cli jobs cancel "$job_b" --connect 127.0.0.1:7123
# The only simulating lane, attached only after the cancel.
$cli fabric worker --connect 127.0.0.1:7123 \
  > worker-service.log 2>&1 &
job_a=$(grep -o "job-[0-9a-f]*" submitA.out)
$cli jobs watch "$job_a" \
  --connect 127.0.0.1:7123 | tee watchA.out
grep -q "done" watchA.out
# Watching the finished job again replays its stored frames: the
# transcript must be the same, line for line.
$cli jobs watch "$job_a" \
  --connect 127.0.0.1:7123 > watchA-replay.out
cmp watchA.out watchA-replay.out
# One record, one admission path, one dialect: a planned batch of
# specA's grid is answered wholly from what the spec job just
# stored, and resubmitting the finished spec attaches to its record
# instead of a new one.
$cli run --spec specA.json \
  --fabric 127.0.0.1:7123 --store client-view.jsonl \
  | tee fabric-on-service.out
grep -q "0 simulated" fabric-on-service.out
$cli jobs submit specA.json \
  --connect 127.0.0.1:7123 --no-watch | tee resubmitA.out
grep -q "duplicate submission" resubmitA.out
$cli jobs status "$job_b" \
  --connect 127.0.0.1:7123 | tee statusB.out
grep -q "cancelled" statusB.out
# specB's points are a subset of specA's grid, so every one is
# already stored: the resumed job must simulate nothing.
$cli jobs submit specB.json \
  --connect 127.0.0.1:7123 | tee resumeB.out
grep -q "0 simulated" resumeB.out
$cli jobs list --connect 127.0.0.1:7123
grep -q "worker [0-9]* registered" service.log
kill $(jobs -p) 2>/dev/null || true
wait  # until each has stopped (and written out what it ran)
