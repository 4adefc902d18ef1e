"""Measure the exploration profiler's overhead and the checker baseline.

Runs the Table 3 LCM MCC verification row (2 nodes, 1 address, 1
reordering) four ways -- instrumentation absent, profiler armed,
profiler armed under the 2-worker parallel checker, and the state
atlas armed -- and reports states/s per configuration.  Verdict, state
count, and transition count must be identical in all four (profiler
and atlas are pure observers); the script fails loudly if they are
not.

Every repeat is a fresh interpreter that compiles the protocol and
then times one ``api.check()`` call, with no warm-up: a row measures
what one cold ``teapot verify`` run gets, not a re-run that replays
tables an earlier call filled.  Timing is median-of-repeats with the
min/max spread reported per row: comparing best-of minima lets the
noisier configuration dip lower and can show a pure observer as
*negative* overhead.

The ``baseline.states_per_second`` number is the regression gate
``tools/bench_compare.py`` tracks in CI: every checker-performance PR
is judged against the committed BENCH_check_profile.json.

Usage::

    PYTHONPATH=src python tools/bench_check_profile.py \
        [-o BENCH_check_profile.json] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_common import (  # noqa: E402
    bench_meta,
    cold_sample,
    timing_row,
    write_bench,
)
from repro.api import (  # noqa: E402
    ArtifactOptions,
    CheckOptions,
    CheckpointOptions,
    ReductionOptions,
    check,
    compile_protocol,
)

PROTOCOL = "lcm_mcc"
ROW = dict(nodes=2, addresses=1, reorder=1)

# The reduction comparison runs at 3 nodes: with only 2 caching nodes
# plus the fixed home there is no free permutation to quotient by, so
# the Table 3 row itself cannot show a symmetry collapse.  It also runs
# a different protocol: lcm_mcc is not node-symmetric (its PopSharer
# copy-delegation fails the checker's certification and falls back to
# an unreduced run), so the ratio is measured on plain LCM.
REDUCTION_PROTOCOL = "lcm"
REDUCTION_ROW = dict(nodes=3, addresses=1, reorder=0)


# Row name -> (protocol, options) for every timed row.
CONFIGS = {
    "baseline": (PROTOCOL, CheckOptions(**ROW)),
    "profiled": (PROTOCOL, CheckOptions(
        **ROW, artifacts=ArtifactOptions(profile=True))),
    "profiled_workers_2": (PROTOCOL, CheckOptions(
        **ROW, workers=2, artifacts=ArtifactOptions(profile=True))),
    "atlas_armed": (PROTOCOL, CheckOptions(
        **ROW, artifacts=ArtifactOptions(atlas=True))),
    # Checkpointing requires fingerprint-keyed visited sets, so the
    # honest reference for checkpoint overhead is the same engine
    # without checkpointing -- not the full-state baseline.
    "fingerprint_serial": (PROTOCOL, CheckOptions(
        **ROW, fingerprints=True)),
    # Serial run writing a sealed checkpoint every other wave: the
    # cost of resilient checking (reference-frontier format +
    # single-serialization atomic writes).  Gated in CI so periodic
    # checkpointing stays cheap.
    "checkpoint_interval": (PROTOCOL, CheckOptions(
        **ROW, checkpoint=CheckpointOptions(
            out="bench_ckpt.json", interval_waves=2))),
    # The symmetry-reduction pair (see REDUCTION_PROTOCOL).
    "reduction_full": (REDUCTION_PROTOCOL,
                       CheckOptions(**REDUCTION_ROW)),
    "reduction_reduced": (REDUCTION_PROTOCOL, CheckOptions(
        **REDUCTION_ROW, reduction=ReductionOptions(symmetry=True))),
}


def child(name: str) -> int:
    """One timed repeat of row ``name``; prints its sample as JSON."""
    protocol, options = CONFIGS[name]
    compile_protocol(protocol)
    with tempfile.TemporaryDirectory(prefix="teapot-bench-") as workdir:
        os.chdir(workdir)  # where the checkpoint row writes
        start = time.perf_counter()
        result = check(protocol, options)
        seconds = time.perf_counter() - start
    print(json.dumps({
        "seconds": seconds,
        "ok": result.ok,
        "states": result.states_explored,
        "transitions": result.transitions,
        "canonical_states": result.canonical_states,
        "phases": dict(result.profile.phases) if result.profile else None,
    }))
    return 0


def bench(name, repeats):
    """Cold wall-time samples of row ``name``, one fresh interpreter
    per repeat; returns (last sample, samples)."""
    samples = []
    sample = None
    for _ in range(repeats):
        sample = cold_sample(__file__, name)
        samples.append(sample["seconds"])
    return sample, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output",
                        default="BENCH_check_profile.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", metavar="ROW", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child)

    rows = {}
    outcomes = set()
    phases = None
    for name in CONFIGS:
        if name.startswith("reduction_"):
            continue
        result, samples = bench(name, args.repeats)
        outcomes.add((result["ok"], result["states"], result["transitions"]))
        row = timing_row(samples)
        seconds = row["wall_seconds"]
        row["states"] = result["states"]
        row["states_per_second"] = round(
            result["states"] / seconds, 1) if seconds else 0.0
        rows[name] = row
        if name == "profiled":
            phases = result["phases"]
        print(f"{name:20s} {seconds:8.4f}s "
              f"(+/-{row['wall_spread_pct']:.1f}%)  "
              f"{row['states_per_second']:10.1f} states/s")
    if len(outcomes) != 1:
        raise SystemExit(f"configurations diverged: {sorted(outcomes)}")

    # Symmetry-reduction comparison at 3 nodes.  Deliberately OUTSIDE
    # the identical-outcomes assertion above: reduction changes the
    # state count by design -- the invariant here is verdict identity
    # and the collapse ratio, which bench_compare.py gates on.
    full, full_samples = bench("reduction_full", args.repeats)
    reduced, reduced_samples = bench("reduction_reduced", args.repeats)
    if full["ok"] != reduced["ok"]:
        raise SystemExit(
            f"reduction changed the verdict: full ok={full['ok']}, "
            f"reduced ok={reduced['ok']}")
    if reduced["canonical_states"] is None:
        raise SystemExit(
            f"{REDUCTION_PROTOCOL} failed symmetry certification; the "
            "reduction row must use a certifying protocol")
    reduction = {
        "protocol": REDUCTION_PROTOCOL,
        "row": dict(REDUCTION_ROW),
        "states_full": full["states"],
        "states_reduced": reduced["states"],
        "state_ratio": round(full["states"] / reduced["states"], 4),
        "wall_seconds_full": timing_row(full_samples)["wall_seconds"],
        "wall_seconds_reduced": timing_row(
            reduced_samples)["wall_seconds"],
    }
    print(f"{'reduction':20s} {reduction['states_full']:>6d} -> "
          f"{reduction['states_reduced']:>6d} states "
          f"({reduction['state_ratio']:.2f}x)")

    base = rows["baseline"]["wall_seconds"]
    for row in rows.values():
        row["overhead_pct"] = round(
            100.0 * (row["wall_seconds"] - base) / base, 1)

    # Periodic checkpointing must stay cheap: <= 10% wall-time overhead
    # over the same fingerprint-mode run without checkpointing, with
    # the rows' own measured run-to-run spread as the noise allowance.
    fp_row = rows["fingerprint_serial"]
    ck_row = rows["checkpoint_interval"]
    ckpt_overhead = round(
        100.0 * (ck_row["wall_seconds"] - fp_row["wall_seconds"])
        / fp_row["wall_seconds"], 1)
    ck_row["checkpoint_overhead_pct"] = ckpt_overhead
    allowance = max(10.0, fp_row["wall_spread_pct"],
                    ck_row["wall_spread_pct"])
    print(f"{'ckpt overhead':20s} {ckpt_overhead:+8.1f}% vs "
          f"fingerprint_serial (budget 10%, noise allows "
          f"{allowance:.0f}%)")
    if ckpt_overhead > allowance:
        raise SystemExit(
            f"periodic checkpointing costs {ckpt_overhead:.1f}% over "
            f"the fingerprint serial run (budget 10%, noise allowance "
            f"{allowance:.0f}%)")

    report = bench_meta("exploration profiler overhead, Table 3 LCM MCC")
    report.update({
        "protocol": PROTOCOL,
        "row": dict(ROW),
        "repeats": args.repeats,
        "timer": "median-of-repeats wall time around api.check(), one "
                 "fresh interpreter per repeat (protocol compiled first, "
                 "no warm-up), min/max spread per row",
        "configs": rows,
        # Symmetry collapse at 3 nodes; state_ratio is gated by
        # bench_compare.py alongside baseline.states_per_second.
        "reduction": reduction,
        # The armed serial run's phase split, so the committed artifact
        # doubles as a where-do-the-cycles-go snapshot for the ROADMAP
        # hot-loop work.
        "profiled_phases": phases or {},
        "note": "verdict/states/transitions are asserted identical in "
                "all configurations; profiler and atlas are pure "
                "observers -- overhead is host wall time, and deltas "
                "within wall_spread_pct are noise.  "
                "baseline.states_per_second is the CI regression gate "
                "(bench_compare.py).",
    })
    write_bench(args.output, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
