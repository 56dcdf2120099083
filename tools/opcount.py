#!/usr/bin/env python3
"""Count the bytecodes one simulation run executes, per function.

Wall time on a shared host moves by tens of percent between runs of the
same tree; the bytecodes the interpreter executes for a seeded run do
not move at all. This tool runs one ``Session.run_one`` under
``sys.settrace`` with ``frame.f_trace_opcodes`` set and prints, per
Python function, the opcodes it executed and the calls made to it,
largest first, then the totals. Code in C (builtins, ``heapq``,
``random``'s generator) is not counted; the calls into it are, as the
caller's opcodes.

Before the counted run the same call runs once untraced, so module
imports and first-use caches (each stream plan is built once per
process) are not what is measured.

Usage::

    PYTHONPATH=src python tools/opcount.py dhetpnoc 1 skewed3 600 \\
        --total-cycles 5000 --reset-cycles 500 --top 20

``--top 0`` prints the totals line only. A count is a work measure, not
a time: an opcode that allocates costs more than one that loads a
local, so compare trees function by function before trusting a total.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import List, Optional

from repro.api.session import Session
from repro.experiments.runner import Fidelity


def count(arch: str, bw_set: int, pattern: str, offered_gbps: float,
          fidelity: Fidelity, seed: int):
    """``(opcodes, calls)`` per code object of one traced run."""
    session = Session()
    opcodes: Counter = Counter()
    calls: Counter = Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, event, _arg):
        if event != "call":
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        calls[frame.f_code] += 1
        return local

    def run():
        return session.run_one(arch, bw_set, pattern, offered_gbps,
                               fidelity=fidelity, seed=seed)

    run()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
        session.close()
    return opcodes, calls


def _name(code) -> str:
    path = code.co_filename
    marker = os.sep + "repro" + os.sep
    if marker in path:
        path = "repro" + os.sep + path.split(marker, 1)[1]
    else:
        path = os.path.basename(path)
    return f"{path}:{code.co_qualname}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("arch")
    parser.add_argument("bw_set", type=int)
    parser.add_argument("pattern")
    parser.add_argument("offered_gbps", type=float)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--total-cycles", type=int, default=5000)
    parser.add_argument("--reset-cycles", type=int, default=500)
    parser.add_argument("--top", type=int, default=25,
                        help="functions to list (0: the totals only)")
    args = parser.parse_args(argv)
    fidelity = Fidelity("opcount", args.total_cycles, args.reset_cycles,
                        (0.5,))
    opcodes, calls = count(args.arch, args.bw_set, args.pattern,
                           args.offered_gbps, fidelity, args.seed)
    label = (f"{args.arch} set {args.bw_set} {args.pattern} "
             f"{args.offered_gbps:g} Gb/s seed {args.seed}, "
             f"{args.total_cycles} cycles")
    if args.top:
        print(f"{'opcodes':>12} {'calls':>9}  function  ({label})")
        for code, n in opcodes.most_common(args.top):
            print(f"{n:>12,} {calls[code]:>9,}  {_name(code)}")
    print(f"{sum(opcodes.values()):>12,} {sum(calls.values()):>9,}  "
          f"total: {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
