"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/child.py --workload verify-lcm3 --seed 7 \
        --mode timed --workdir perfbench/out/work/x [--trace]

The child imports ``repro.api``, compiles the workload's protocol by
registry name and builds its inputs, then prints the line ``compiled``
(the parent stops the set-up clock when it reads it).  ``--mode setup``
exits there; ``prime`` runs a small configuration of the same code
path; ``timed`` runs the workload through the same ``repro.api``
entry points ``teapot verify`` / ``teapot run`` use.  The last stdout
line is one JSON object: the outcome the parent compares with the
pins, the time spent inside ``check()`` / ``simulate()``, and with
``--trace`` the per-layer aggregates and spans.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import asdict  # noqa: E402

from specs import WORKLOADS  # noqa: E402

MARKER = "compiled"


def digest(mapping: dict) -> str:
    text = json.dumps(sorted(mapping.items()), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify_outcome(result) -> dict:
    return {
        "kind": "verify",
        "protocol": result.protocol_name,
        "verdict": "PASS" if result.ok else "FAIL",
        "states": result.states_explored,
        "transitions": result.transitions,
        "max_depth": result.max_depth,
        "exhausted": result.exhausted,
        "stop_reason": result.stop_reason,
        "handler_fires_digest": digest(result.handler_fires),
        "handler_fires_total": sum(result.handler_fires.values()),
        "invariant_evals_total": sum(result.invariant_evals.values()),
    }


def simulate_outcome(result) -> dict:
    machine = result.machine
    checks = {}
    for name, check in (("quiescent", machine.assert_quiescent),
                        ("coherent", machine.assert_coherent)):
        try:
            check()
            checks[name] = True
        except AssertionError:
            checks[name] = False
    return {
        "kind": "simulate",
        "protocol": result.protocol_name,
        "cycles": result.cycles,
        "messages": result.stats.messages,
        "counters": asdict(result.stats.counters),
        **checks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "prime", "timed"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    params = {"nodes": spec.nodes, "addresses": spec.addresses,
              "reorder": spec.reorder, "iterations": spec.iterations}
    if args.mode == "prime":
        params.update(spec.priming)

    tracer = None
    span = lambda _name: nullcontext()  # noqa: E731
    if args.trace:
        from layertrace import LayerTracer

        tracer = LayerTracer(T0)
        span = tracer.span
    with span("api.import"):
        import repro.api as api
    if tracer is not None:
        tracer.install(api)

    with span("setup.compile"):
        protocol = api.compile_protocol(spec.protocol)
    with span("setup.inputs"):
        if spec.kind == "verify":
            checkpoint = api.CheckpointOptions()
            if spec.checkpoint_every is not None:
                checkpoint = api.CheckpointOptions(
                    out=os.path.join(args.workdir, "check.ckpt.json"),
                    interval_waves=spec.checkpoint_every)
            options = api.CheckOptions(
                nodes=params["nodes"], addresses=params["addresses"],
                reorder=params["reorder"], checkpoint=checkpoint)
        else:
            from repro.workloads.table1 import mp3d_programs

            programs = mp3d_programs(n_nodes=params["nodes"],
                                     iterations=params["iterations"],
                                     seed=args.seed)
    print(MARKER, flush=True)
    if args.mode == "setup":
        return 0

    start = perf_counter()
    if spec.kind == "verify":
        result = api.check(spec.protocol, options)
        run_s = perf_counter() - start
        outcome = verify_outcome(result)
    else:
        result = api.simulate(spec.protocol, programs=programs)
        run_s = perf_counter() - start
        outcome = simulate_outcome(result)
    report = {"outcome": outcome, "run_s": run_s,
              "compile_stats": asdict(protocol.stats)}
    if tracer is not None:
        report["trace"] = tracer.finish()
    # perf_counter() is CLOCK_MONOTONIC on Linux, shared with the
    # parent, which turns these into interpreter start and exit times.
    report["t0"] = T0
    report["t_end"] = perf_counter()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
