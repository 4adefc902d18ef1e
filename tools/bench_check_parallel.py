"""Benchmark the sharded parallel checker against serial exploration.

Regenerates the Table 3 LCM MCC verification row (2 nodes, 1 address,
1 reordering -- the paper's 5804 s Mur-phi run) serially and with the
sharded ``ParallelChecker`` at 1 and N workers, and reports states/s
per configuration.  Verdict and state count must be identical across
all configurations; the script fails loudly if they are not.

The per-state cost of this checker is dominated by successor
generation, which parallelises across shards, so on a multi-core host
N workers approach N-fold states/s.  On a single-core host the sharded
run pays IPC overhead with no compute to overlap, so expect slowdown,
not speedup -- the report records ``cpu_count`` so readers can judge
the numbers.  The default row finishes in seconds; ``--scaled`` adds a
3-node row (~355k states) where the parallel overhead amortises.

Every repeat is a fresh interpreter that compiles the protocol and then
times one ``checker.run()``, with no warm-up, so a row measures what a
cold run gets.

Usage::

    PYTHONPATH=src python tools/bench_check_parallel.py \
        [-o BENCH_check_parallel.json] [--workers 4] [--scaled]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_common import (  # noqa: E402
    bench_meta,
    cold_sample,
    timing_row,
    write_bench,
)
from repro.protocols import compile_named_protocol  # noqa: E402
from repro.verify import (  # noqa: E402
    ModelChecker,
    ParallelChecker,
    events_for_protocol,
)
from repro.verify.invariants import standard_invariants  # noqa: E402

PROTOCOL = "lcm_mcc"


def run_config(n_nodes, n_blocks, reorder, workers):
    protocol = compile_named_protocol(PROTOCOL)
    common = dict(
        n_nodes=n_nodes, n_blocks=n_blocks, reorder_bound=reorder,
        events=events_for_protocol(PROTOCOL),
        invariants=standard_invariants(coherent=True))
    if workers == 0:
        checker = ModelChecker(protocol, **common)
    else:
        checker = ParallelChecker(protocol, workers=workers, **common)
    start = time.perf_counter()
    result = checker.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def child(n_nodes, n_blocks, reorder, workers) -> int:
    """One timed repeat of a configuration; prints its sample as JSON."""
    result, elapsed = run_config(n_nodes, n_blocks, reorder, workers)
    print(json.dumps({
        "seconds": elapsed,
        "ok": result.ok,
        "states": result.states_explored,
        "transitions": result.transitions,
        "max_depth": result.max_depth,
    }))
    return 0


def bench_row(label, n_nodes, n_blocks, reorder, worker_counts, repeats):
    print(f"-- {label}: {PROTOCOL} {n_nodes} nodes, {n_blocks} address(es), "
          f"reorder {reorder}")
    rows = {}
    verdicts = set()
    for workers in worker_counts:
        name = "serial" if workers == 0 else f"workers_{workers}"
        samples = []
        result = None
        for _ in range(repeats):
            result = cold_sample(__file__, str(n_nodes), str(n_blocks),
                                 str(reorder), str(workers))
            samples.append(result["seconds"])
        row = timing_row(samples)
        median = row["wall_seconds"]
        states_per_s = result["states"] / median if median else 0.0
        verdicts.add((result["ok"], result["states"], result["transitions"]))
        row.update({
            "states": result["states"],
            "transitions": result["transitions"],
            "max_depth": result["max_depth"],
            "verdict": "PASS" if result["ok"] else "FAIL",
            "states_per_second": round(states_per_s, 1),
        })
        rows[name] = row
        print(f"  {name:12s} {median:8.3f}s "
              f"(+/-{row['wall_spread_pct']:.1f}%)  "
              f"states={result['states']}"
              f"  {states_per_s:10.1f} states/s")
    if len(verdicts) != 1:
        raise SystemExit(f"configurations diverged: {sorted(verdicts)}")
    base = rows["serial"]["wall_seconds"]
    for row in rows.values():
        row["speedup_vs_serial"] = round(base / row["wall_seconds"], 2) \
            if row["wall_seconds"] else None
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output",
                        default="BENCH_check_parallel.json")
    parser.add_argument("--workers", type=int, default=4,
                        help="largest worker count to benchmark")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scaled", action="store_true",
                        help="also run the 3-node LCM MCC row (~355k "
                             "states, minutes of wall time)")
    parser.add_argument("--child", nargs=4, type=int,
                        metavar=("NODES", "BLOCKS", "REORDER", "WORKERS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(*args.child)

    worker_counts = [0, 1, args.workers]
    tables = {
        "table3_lcm_mcc_2n": bench_row(
            "Table 3 row", 2, 1, 1, worker_counts, args.repeats),
    }
    if args.scaled:
        tables["scaled_lcm_mcc_3n"] = bench_row(
            "scaled row", 3, 1, 1, worker_counts, 1)

    report = bench_meta("parallel model checking, Table 3 LCM MCC")
    report.update({
        "protocol": PROTOCOL,
        "repeats": args.repeats,
        "timer": "median-of-repeats wall time around checker.run(), one "
                 "fresh interpreter per repeat (protocol compiled first, "
                 "no warm-up), min/max spread per row",
        "rows": tables,
        "note": "verdict, state count, and transition count are asserted "
                "identical across all configurations; speedup requires "
                "cpu_count >= workers -- on fewer cores the sharded run "
                "pays process and IPC overhead with nothing to overlap",
    })
    write_bench(args.output, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
