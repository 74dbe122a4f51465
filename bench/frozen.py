"""The frozen copy of liep runs every op too, in a child process, just before liep does.

``liep_frozen`` is a copy of ``src/liep`` whose code is never edited.  ``run.py``
starts this file as a child process, which sets the workload up on the
frozen copy and draws the same op list from the same seed.  For each op,
the parent sends its index and waits; the child runs that op and replies
with the CPU seconds it took; then the parent runs the op on liep.  Only
one of the two processes runs at a time.

The host's speed changes by up to 2.5x within tenths of a second, and by
how much depends on the code that runs (a small alcove query slows more
than a large one).  The same op on the same code, run right beside it,
slows alike, so liep's time over the frozen copy's time measures liep
alone.  The child keeps its own heap and caches, so liep's memory does not
slow the frozen copy.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import process_time

BENCH = Path(__file__).resolve().parent


class Frozen:
    """Parent side: start the child, have it run op ``i``, stop it."""

    def __init__(self, workload: str, seed: int, rounds: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), workload, str(seed), str(rounds)],
            cwd=BENCH.parent, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("the frozen copy's process did not start")
        except BaseException:
            self.close()
            raise

    def run(self, i: int) -> float:
        """CPU seconds the frozen copy took for op ``i``."""
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(name: str, seed: int, rounds: int) -> None:
    """Child side: run the op whose index is read from stdin, reply with its CPU seconds."""
    sys.path[:0] = [str(BENCH)]
    from workloads import WORKLOADS, draw_ops

    workload = WORKLOADS[name]
    ctx = workload.setup("liep_frozen")
    ops = draw_ops(workload, ctx, seed, rounds)
    print("ready", flush=True)
    for line in sys.stdin:
        op = ops[int(line)]
        t0 = process_time()
        workload.run(ctx, op)
        print(repr(process_time() - t0), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
