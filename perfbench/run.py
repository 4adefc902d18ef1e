"""Cold-process benchmark of the checker and the simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-lcm3 --seed 1 \
        --seconds 40 --trace 0

Each sample is a fresh interpreter (``child.py``) run one at a time.
A run first primes the workload untimed (so ``.pyc`` compilation is not
billed to a sample), then, with ``--trace 0``, alternates groups of
set-up-only children with timed children until another timed child
would overrun ``--seconds``, and reports the median of each
end-to-end metric.  With
``--trace 1`` it runs one untraced and one traced child and reports
the per-layer metrics.
Every timed child's outcome is compared with the pins in ``specs.py``.
The last stdout line is the JSON result; the full record (host facts,
every sample, the spans) goes to ``perfbench/out/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from time import perf_counter

from harness import (
    ChildRun,
    host_facts,
    install_sigterm_handler,
    outcome_problems,
    run_child,
)
from specs import RATIONALE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Set-up-only children run in groups of this many before each timed
# child and after the last one, so that setup_s, their median, samples
# the whole run.  Each costs ~0.4 s.
SETUP_GROUP = 4
# Every child is killed at this many seconds after the run started,
# keeping the whole run inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result (reported, exit code 2)."""


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = workdir
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.started = perf_counter()
        self.children = []
        self.reference = None           # first timed child's outcome
        self.unmet = []                 # rationale claims a trace refuted

    def child(self, mode: str, trace: bool = False):
        workdir = os.path.join(OUT, "work", f"{os.getpid()}-"
                               f"{len(self.children)}")
        os.makedirs(workdir, exist_ok=True)
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "--workload", self.spec.name, "--seed", str(self.seed),
                "--mode", mode, "--workdir", workdir]
        if trace:
            argv.append("--trace")
        timeout = self.started + RUN_DEADLINE_S - perf_counter()
        try:
            run = run_child(ChildRun(argv, mode, trace), child_env(workdir),
                            ROOT, timeout)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if mode == "timed" and run.ok:
            self._check_outcome(run)
        self.children.append(run)
        return run

    def _check_outcome(self, run) -> None:
        if run.report is None:
            run.problems.append("no result line")
            return
        outcome = run.report["outcome"]
        run.problems += outcome_problems(self.spec, self.seed, outcome)
        if self.reference is None:
            self.reference = outcome
        elif outcome != self.reference:
            run.problems.append("outcome differs from this run's first "
                                "child on the same seed")

    def prime(self) -> None:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
            raise BenchError(f"no src/repro/api.py under {ROOT}")
        run = self.child("prime")
        if not run.ok:
            raise BenchError(f"priming child failed: {run.problems}; is "
                             f"this a checkout with src/repro?")

    def work_per_s(self, run) -> float:
        outcome = run.report["outcome"]
        work = (outcome["states"] if self.spec.kind == "verify"
                else outcome["cycles"])
        return work / run.report["run_s"]

    def end_to_end(self, seconds: float) -> dict:
        self.prime()
        window = perf_counter()
        setups, timed = [], []
        while True:
            began = perf_counter()
            setups += [self.child("setup") for _ in range(SETUP_GROUP)]
            group_s = perf_counter() - began
            if timed and (perf_counter() - window + timed[-1].wall_s
                          + group_s > seconds
                          or perf_counter() - self.started
                          >= RUN_DEADLINE_S):
                break
            timed.append(self.child("timed"))
        good = [run for run in timed if run.ok]
        if not good:
            raise BenchError("every timed child failed: "
                             + "; ".join(map(str, timed[0].problems)))
        setup = [run.setup_s for run in setups if run.ok]
        if not setup:
            raise BenchError("every set-up child failed: "
                             + "; ".join(map(str, setups[0].problems)))
        median = statistics.median
        return {
            "wall_s": median(run.wall_s for run in good),
            "cpu_s": median(run.cpu_s for run in good),
            "peak_rss_mb": median(run.peak_rss_mb for run in good),
            "work_per_s": median(self.work_per_s(run) for run in good),
            "setup_s": median(setup),
        }

    def per_layer(self) -> dict:
        self.prime()
        plain = self.child("timed")
        traced = self.child("timed", trace=True)
        if plain.report is None or traced.report is None:
            raise BenchError("untraced/traced child failed: "
                             f"{plain.problems + traced.problems}")
        traced.problems += trace_problems(traced.report, traced.wall_s)
        metrics = layer_metrics(traced.report, plain, traced)
        self.unmet = [claim for claim, holds in RATIONALE[self.spec.name]
                      if not holds(metrics)]
        return metrics

    def record(self, trace: int, metrics: dict) -> str:
        os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
        path = os.path.join(
            OUT, "records", f"{self.spec.name}-seed{self.seed}-trace{trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
        body = {
            "workload": self.spec.name, "seed": self.seed, "trace": trace,
            "host": host_facts(ROOT), "metrics": metrics,
            "unmet_rationale": self.unmet,
            "children": [{
                "mode": run.mode, "trace": run.trace, "ok": run.ok,
                "problems": run.problems, "returncode": run.returncode,
                "wall_s": run.wall_s, "setup_s": run.setup_s,
                "cpu_s": run.cpu_s, "peak_rss_mb": run.peak_rss_mb,
                "load_before": run.load_before,
                "load_after": run.load_after,
                "report": run.report,
            } for run in self.children],
        }
        with open(path, "w") as handle:
            json.dump(body, handle, indent=1)
        return path


def self_time_problems(trace: dict, wall_s: float) -> list:
    """Self times are non-negative and, with the root's own time, add
    up to the root span, which lies inside the child's wall time.

    That holds by construction for properly nested wrappers;
    ``trace_problems`` adds the checks that do not."""
    problems = []
    root = trace["root"]
    selfs = [layer["self_s"] for layer in trace["layers"].values()]
    if min(selfs + [root["self_s"]]) < -1e-9:
        problems.append("negative self time")
    if abs(sum(selfs) + root["self_s"] - root["total_s"]) > 1e-6:
        problems.append("layer self times do not sum to the root span")
    if not 0 < root["total_s"] <= wall_s:
        problems.append("root span outside the child's wall time")
    return problems


def trace_problems(report: dict, wall_s: float) -> list:
    """Problems with a traced child's layer times and counts.

    Besides ``self_time_problems``, the layers are checked against
    what the child measures without them: the wrapped ``check()`` /
    ``simulate()`` call must take the ``run_s`` the child timed around
    it, and the wrapped call counts must agree with the program's own
    counters.  A missed or doubled wrapper breaks one or the other."""
    problems = self_time_problems(report["trace"], wall_s)
    layers = report["trace"]["layers"]
    outcome = report["outcome"]
    verify = outcome["kind"] == "verify"
    entry = layers["verify.check" if verify else "sim.simulate"]
    run_s = report["run_s"]
    if entry["calls"] != 1 or abs(entry["total_s"] - run_s) > (
            0.01 + 0.01 * run_s):
        problems.append(f"traced entry call ({entry['calls']} calls, "
                        f"{entry['total_s']:.3f} s) does not match the "
                        f"child's own run_s {run_s:.3f} s")
    dispatches = layers["runtime.dispatch"]["calls"]
    if verify:
        # Cache hits replay effects without dispatching or evaluating.
        if dispatches > outcome["handler_fires_total"]:
            problems.append("more dispatch calls than handler fires")
        if (layers["verify.invariants"]["calls"]
                > outcome["invariant_evals_total"]):
            problems.append("more invariant calls than invariant evals")
    elif dispatches != outcome["counters"]["handler_dispatches"]:
        problems.append(f"{dispatches} dispatch calls, but the simulator "
                        f"counted {outcome['counters']['handler_dispatches']}")
    return problems


def layer_metrics(report: dict, plain, traced) -> dict:
    """The per-layer metrics of one traced child (README.md, "Per-layer
    metrics"); ``plain`` is the untraced child of the same run."""
    trace = report["trace"]
    layers = trace["layers"]
    outcome = report["outcome"]
    stats = report["compile_stats"]

    def calls(name):
        return layers[name]["calls"]

    def total(name):
        return layers[name]["total_s"]

    def per_call_us(name):
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    verify = outcome["kind"] == "verify"
    counters = outcome.get("counters", {})
    fires = outcome.get("handler_fires_total", 0)
    evals = outcome.get("invariant_evals_total", 0)
    states = outcome.get("states", 0)
    return {
        "api.import_s": total("api.import"),
        "lang.parse_s": total("lang.parse"),
        "lang.typecheck_s": total("lang.typecheck"),
        "compiler.lower_s": total("compiler.lower"),
        "compiler.liveness_s": total("compiler.liveness"),
        "compiler.constcont_s": total("compiler.constcont"),
        "compiler.suspend_sites": stats["n_suspend_sites"],
        "compiler.static_sites": stats["n_static_sites"],
        "compiler.inlined_resumes": stats["n_inlined_resumes"],
        "setup.inputs_s": total("setup.inputs"),
        "runtime.dispatch_calls": calls("runtime.dispatch"),
        "runtime.dispatch_s": total("runtime.dispatch"),
        "runtime.dispatch_us": per_call_us("runtime.dispatch"),
        "runtime.cont_allocs": counters.get("cont_allocs", 0),
        "runtime.queue_allocs": counters.get("queue_allocs", 0),
        "runtime.suspends": counters.get("suspends", 0),
        "tempest.machine_run_s": total("tempest.machine_run"),
        "tempest.self_s": layers["tempest.machine_run"]["self_s"],
        "tempest.messages": outcome.get("messages", 0),
        "verify.check_s": total("verify.check"),
        "verify.checker.self_s": layers["verify.check"]["self_s"],
        "verify.effect_cache_hit_ratio": (
            1 - calls("runtime.dispatch") / fires if fires else 0.0),
        "verify.model.intern_calls": calls("verify.model.intern"),
        "verify.model.intern_s": total("verify.model.intern"),
        "verify.invariants.calls": calls("verify.invariants"),
        "verify.invariants_s": total("verify.invariants"),
        "verify.invariant_cache_hit_ratio": (
            1 - calls("verify.invariants") / evals if evals else 0.0),
        "verify.fingerprint.calls": calls("verify.fingerprint"),
        "verify.fingerprint_s": total("verify.fingerprint"),
        "verify.fingerprint_us": per_call_us("verify.fingerprint"),
        "verify.checkpoint.writes": calls("verify.checkpoint.write"),
        "verify.checkpoint.write_s": total("verify.checkpoint.write"),
        "verify.checkpoint.bytes": trace["checkpoint_bytes"],
        "verify.states": states,
        "verify.transitions": outcome.get("transitions", 0),
        "verify.max_depth": outcome.get("max_depth", 0),
        "verify.rss_bytes_per_state": (
            plain.peak_rss_mb * 2**20 / states if verify else 0.0),
        "process.start_s": plain.report["t0"] - plain.spawned_at,
        "process.exit_s": (plain.spawned_at + plain.wall_s
                           - plain.report["t_end"]),
        "trace.total_s": trace["root"]["total_s"],
        "trace.other_self_s": trace["root"]["self_s"],
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
    }


def load_metric_specs() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    install_sigterm_handler()
    runner = Runner(args.workload, args.seed)
    try:
        end_to_end_units, per_layer_units = load_metric_specs()
        if args.trace:
            values, units = runner.per_layer(), per_layer_units
        else:
            values, units = runner.end_to_end(args.seconds), end_to_end_units
    except (BenchError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    record = runner.record(args.trace, values)
    attempted = [run for run in runner.children if run.mode != "prime"]
    failed = [run for run in attempted if not run.ok]
    for run in failed:
        print(f"perfbench: {run.mode} child failed: {run.problems}",
              file=sys.stderr)
    for claim in runner.unmet:
        print(f"perfbench: rationale not met: {claim}", file=sys.stderr)
    print(f"perfbench: record {os.path.relpath(record, ROOT)}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
