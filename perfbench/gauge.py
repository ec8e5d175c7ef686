"""The machine-speed gauge: a fixed reference kernel timed between the
blocks of a run, so that timings can be scaled to one reference speed.

The shared machine the benchmark runs on changes speed by up to about
1.5x, in spells that last from a fraction of a second to tens of
minutes.  Every pure-Python workload slows alike in such a spell, so a
kernel that never changes, timed in short bursts spread evenly between
the stretches of timed work, measures how fast the machine was over the
run.  A timing scaled by ``REFERENCE_KERNEL_MS / mean kernel ms`` reads
what it would on a machine where one kernel takes
:data:`REFERENCE_KERNEL_MS`; a change to the program moves it in full,
because the kernel is not the program.

The kernel runs in processes of its own (``python3 perfbench/gauge.py``,
one command per line on stdin), which import nothing of the program under
test: the program's heap, caches and garbage cannot slow the kernel.
Each burst runs while the measured side is idle.

The kernel itself is a small lexer, recursive-descent parser and
tree-walking evaluator over a fixed text, the same kind of work as the
checker's front end and the runtime's interpreter, followed by a walk
along a fixed random cycle through a list of about 20 MB.  The walk
misses the caches at every step, as the program's larger heaps do in
part, so the kernel also slows when neighbours on the host crowd the
shared cache and memory, not only when they take CPU time.
"""

from __future__ import annotations

import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The kernel time the scaled figures refer to (about one kernel on the
#: 2-CPU machine the benchmark was tuned on).
REFERENCE_KERNEL_MS = 30.0
#: Kernels per burst: about 0.2 s.
BURST_KERNELS = 6
#: Entries of the cycle the kernel walks, and steps of one walk.
CYCLE = 1 << 19
WALK = 20_000
#: Added to every cycle entry so that each is an int object of its own
#: (small ints are shared), which the walk must fetch from memory.
_BIG = 1 << 40

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))")
_TEXT = "\n".join(
    f"let v{i} = (v{max(0, i - 1)} * {i % 7 + 1} + {i}) % 97 - w{i % 5};"
    for i in range(400)
)


class _Node:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op, kids=(), value=None):
        self.op = op
        self.kids = list(kids)
        self.value = value


def _tokenize(text: str) -> list[tuple[str, object]]:
    out = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            break
        pos = match.end()
        num, name, sym = match.groups()
        if num is not None:
            out.append(("num", int(num)))
        elif name is not None:
            out.append(("name", name))
        elif sym is not None:
            out.append(("sym", sym))
    return out


class _Parser:
    def __init__(self, tokens) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", None)

    def take(self):
        token = self.peek()
        self.i += 1
        return token

    def program(self) -> list[_Node]:
        statements = []
        while self.peek()[0] != "eof":
            self.take()  # let
            name = self.take()[1]
            self.take()  # =
            value = self.expr()
            self.take()  # ;
            statements.append(_Node("let", [value], name))
        return statements

    def expr(self) -> _Node:
        left = self.term()
        while self.peek() in (("sym", "+"), ("sym", "-")):
            op = self.take()[1]
            left = _Node(op, [left, self.term()])
        return left

    def term(self) -> _Node:
        left = self.atom()
        while self.peek() in (("sym", "*"), ("sym", "%")):
            op = self.take()[1]
            left = _Node(op, [left, self.atom()])
        return left

    def atom(self) -> _Node:
        kind, value = self.take()
        if kind == "num":
            return _Node("num", value=value)
        if kind == "name":
            return _Node("var", value=value)
        inner = self.expr()
        self.take()  # )
        return inner


def _evaluate(node: _Node, env: dict) -> int:
    op = node.op
    if op == "num":
        return node.value
    if op == "var":
        return env.get(node.value, 3)
    a = _evaluate(node.kids[0], env)
    b = _evaluate(node.kids[1], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a % b if b else 0


def make_cycle() -> list[int]:
    """A single cycle through all :data:`CYCLE` entries, in a fixed
    random order: ``cycle[i] - _BIG`` is the entry after ``i``."""
    order = list(range(CYCLE))
    random.Random(0).shuffle(order)
    cycle = [0] * CYCLE
    for here, after in zip(order, order[1:] + order[:1]):
        cycle[here] = after + _BIG
    return cycle


def kernel(cycle: list[int]) -> int:
    """One reference kernel; always returns :data:`KERNEL_RESULT`."""
    env: dict[str, int] = {}
    for statement in _Parser(_tokenize(_TEXT)).program():
        env[statement.value] = _evaluate(statement.kids[0], env)
    total = sum(env.values())
    at = 0
    for _ in range(WALK):
        at = cycle[at] - _BIG
        total += at & 1
    return total


KERNEL_RESULT = 27623


def _serve() -> None:
    """The gauge process: each line ``N`` runs N kernels and answers
    with their wall seconds; ``quit`` or end of input ends it."""
    cycle = make_cycle()
    for line in sys.stdin:
        if line.strip() == "quit":
            break
        count = int(line)
        start = time.perf_counter()
        for _ in range(count):
            if kernel(cycle) != KERNEL_RESULT:
                raise SystemExit("gauge: kernel gave a wrong result")
        print(time.perf_counter() - start, flush=True)


class Gauge:
    """The gauge processes, one pinned to each CPU this process may use,
    and the bursts they have run.

    A burst runs the kernels on every CPU at once, as the workloads that
    use two CPUs (the campaign's workers) load them; a workload pinned to
    one CPU gets one gauge process on that CPU.  Call :meth:`burst`
    before and after every stretch of timed work; then :meth:`scale`
    gives the factor for the run's timings.  Use it as a context manager:
    leaving it stops the processes and waits for them.
    """

    def __init__(self) -> None:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else [None]
        self.processes: list[subprocess.Popen] = []
        #: Mean ms per kernel over the gauge processes, per burst.
        self.kernel_ms: list[float] = []
        try:
            for cpu in cpus:
                process = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve())],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                self.processes.append(process)
                if cpu is not None:
                    os.sched_setaffinity(process.pid, {cpu})
            self.burst()  # warms the kernel; not used for scaling
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Gauge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def burst(self) -> None:
        for process in self.processes:
            process.stdin.write(f"{BURST_KERNELS}\n")
            process.stdin.flush()
        seconds = []
        for process in self.processes:
            answer = process.stdout.readline()
            if not answer:
                raise RuntimeError("a speed gauge process ended")
            seconds.append(float(answer))
        self.kernel_ms.append(statistics.fmean(seconds) * 1000
                              / BURST_KERNELS)

    def scale(self) -> float:
        """``REFERENCE_KERNEL_MS`` over the mean kernel time of the run's
        bursts.  The bursts are spread evenly between the timed stretches,
        so their mean speed is the machine's mean speed over the run,
        which the timed work shared; a single burst is too short to say
        how fast the machine was during its neighbour, as the speed
        jitters by a third from one tenth of a second to the next."""
        if len(self.kernel_ms) < 2:
            raise RuntimeError("no gauge burst in the run")
        return REFERENCE_KERNEL_MS / statistics.fmean(self.kernel_ms[1:])

    def note(self) -> str:
        kernels = self.kernel_ms[1:]
        return (f"speed gauge: {len(kernels)} bursts of {BURST_KERNELS} "
                f"kernels on {len(self.processes)} CPU(s), "
                f"{min(kernels):.3f} to {max(kernels):.3f} ms per kernel "
                f"(median {statistics.median(kernels):.3f}); timed "
                f"figures are scaled to {REFERENCE_KERNEL_MS:g} ms per kernel")

    def close(self) -> None:
        for process in self.processes:
            try:  # fails only if the process already ended
                process.stdin.write("quit\n")
                process.stdin.flush()
            except OSError:
                pass
            try:
                process.stdin.close()
            except OSError:
                pass
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()


if __name__ == "__main__":
    _serve()
