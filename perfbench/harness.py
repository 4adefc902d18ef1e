"""Cold-process sampling: spawn one child, time it, account its resources.

Imports nothing from ``repro``: the timing parent must stay cold, so
every sample pays interpreter start, ``import repro.api`` and protocol
compilation exactly as a user's ``teapot verify`` / ``teapot run`` does.
"""

from __future__ import annotations

import json
import os
import platform
import selectors
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

MARKER = b"compiled"


@dataclass
class ChildRun:
    """One child process, measured from the outside."""

    argv: list
    mode: str = ""                    # "prime" | "setup" | "timed"
    trace: bool = False
    returncode: Optional[int] = None
    timed_out: bool = False
    spawned_at: float = 0.0           # perf_counter() just before spawning
    wall_s: float = 0.0               # spawn to exit
    setup_s: Optional[float] = None   # spawn to the "compiled" marker
    cpu_s: float = 0.0                # this child's user + sys
    peak_rss_mb: float = 0.0          # this child's max RSS
    report: Optional[dict] = None     # the child's last stdout line
    load_before: tuple = ()
    load_after: tuple = ()
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def rusage_metrics(rusage) -> tuple[float, float]:
    """(cpu_s, peak_rss_mb) from one child's ``os.wait4`` rusage.

    ``wait4`` reports the reaped child alone, unlike
    ``getrusage(RUSAGE_CHILDREN)``, whose ``ru_maxrss`` is the running
    maximum over every child reaped so far.  Linux reports
    ``ru_maxrss`` in KiB."""
    cpu_s = rusage.ru_utime + rusage.ru_stime
    return cpu_s, rusage.ru_maxrss / 1024.0


def run_child(run: ChildRun, env: dict, cwd: str, timeout: float) -> ChildRun:
    """Run ``run.argv`` to completion (or kill it at ``timeout``)."""
    argv = run.argv
    run.load_before = os.getloadavg()
    start = run.spawned_at = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    out = bytearray()
    status = rusage = None
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = start + timeout - perf_counter()
                if remaining <= 0:
                    run.timed_out = True
                    proc.kill()
                    break
                if not selector.select(remaining):
                    continue
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break           # EOF: the child is exiting
                out += chunk
                if run.setup_s is None and (
                        out.startswith(MARKER + b"\n")):
                    run.setup_s = perf_counter() - start
        _pid, status, rusage = os.wait4(proc.pid, 0)
        run.wall_s = perf_counter() - start
    finally:
        if status is None:          # interrupted before the child was reaped
            proc.kill()
            proc.wait()
        proc.stdout.close()
    # Reaped by wait4 above; tell Popen so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    run.returncode = proc.returncode
    run.load_after = os.getloadavg()
    run.cpu_s, run.peak_rss_mb = rusage_metrics(rusage)
    lines = out.decode(errors="replace").splitlines()
    if run.timed_out:
        run.problems.append(f"timed out after {timeout:.0f}s")
    elif run.returncode != 0:
        run.problems.append(f"exit code {run.returncode}")
    elif run.setup_s is None:
        run.problems.append("no 'compiled' marker on stdout")
    elif len(lines) > 1:
        try:
            run.report = json.loads(lines[-1])
        except json.JSONDecodeError:
            run.problems.append("last stdout line is not JSON")
    return run


def outcome_problems(spec, seed: int, outcome: dict) -> list[str]:
    """Mismatches between a timed child's outcome and the workload pins.

    Verify workloads are pinned exactly.  Simulate workloads are
    pinned for ``spec.pin_seed`` and must end quiescent and coherent
    on every seed."""
    problems = []
    if outcome.get("kind") != spec.kind:
        return [f"kind {outcome.get('kind')!r} != {spec.kind!r}"]
    if spec.kind == "verify":
        pins = dict(spec.pins, exhausted=True, stop_reason=None)
    else:
        pins = {"quiescent": True, "coherent": True}
        if seed == spec.pin_seed:
            pins.update(spec.pins)
    for key, expected in pins.items():
        if outcome.get(key) != expected:
            problems.append(
                f"{key}: got {outcome.get(key)!r}, pinned {expected!r}")
    return problems


def git_rev(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def host_facts(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_rev": git_rev(root),
    }


def install_sigterm_handler() -> None:
    """Turn SIGTERM into SystemExit so ``run_child`` kills its child."""
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
