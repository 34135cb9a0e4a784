"""Set-up probe: one process that stops at its workload's first round.

``python3 perfbench/probe.py WORKLOAD SEED`` imports the program,
builds the workload exactly as a pass does (scheme and store build,
keyspace de-aliasing, script generation), and prints ``ready`` when
the first service round or PRAM step is called -- then exits without
running it.  The runner times process start to ``ready`` to get
``setup_s``; a process is the only way to repeat the imports.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class FirstRound(Exception):
    """Raised in place of the first round: set-up is over."""


def _stop(*args: object, **kwargs: object) -> None:
    print("ready", flush=True)
    raise FirstRound


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: probe.py WORKLOAD SEED", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS
    from repro.pram.machine import PRAM
    from repro.service.batcher import ServiceCore

    ServiceCore.run_round = _stop  # type: ignore[method-assign]
    PRAM.parallel_read = _stop  # type: ignore[method-assign]
    PRAM.parallel_write = _stop  # type: ignore[method-assign]
    try:
        WORKLOADS[argv[0]].run_pass(int(argv[1]))
    except FirstRound:
        return 0
    print("error: the workload never reached a round", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
