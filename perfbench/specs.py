"""The benchmark's workloads and their pinned outcomes.

Plain data, importable without ``repro``: the timing parent reads the
pins from here, the child reads the run parameters.  README.md in this
directory gives each workload's rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "verify" | "simulate"
    protocol: str                 # registry name, never a path or object
    nodes: int
    # verify: CheckOptions.addresses / .reorder; periodic checkpoint
    # spacing in waves, or None for no checkpointing.
    addresses: int = 1
    reorder: int = 0
    checkpoint_every: Optional[int] = None
    # simulate: mp3d_programs(iterations=...) with the benchmark seed.
    iterations: int = 0
    # The untimed priming child runs this much smaller configuration of
    # the same code path, so .pyc compilation is not billed to a sample.
    priming: dict = field(default_factory=dict)
    # Exact expected outcome.  For simulate workloads these hold for
    # ``pin_seed`` only; every seed must still end quiescent and
    # coherent.
    pins: dict = field(default_factory=dict)
    pin_seed: Optional[int] = None


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="verify-lcm3", kind="verify", protocol="lcm", nodes=3,
            addresses=1, reorder=1,
            priming={"nodes": 2, "reorder": 0},
            pins={"verdict": "PASS", "states": 112723,
                  "transitions": 582132, "max_depth": 41,
                  "handler_fires_digest": "20110c05442527bc"}),
        Workload(
            name="verify-stache-ckpt", kind="verify", protocol="stache",
            nodes=3, addresses=2, reorder=0, checkpoint_every=5,
            priming={"nodes": 2, "addresses": 1},
            pins={"verdict": "PASS", "states": 31155,
                  "transitions": 96238, "max_depth": 27,
                  "handler_fires_digest": "6b626cb1938c884d"}),
        Workload(
            name="simulate-mp3d", kind="simulate", protocol="stache",
            nodes=32, iterations=200,
            priming={"nodes": 4, "iterations": 2},
            pin_seed=7,
            pins={"cycles": 4129501, "messages": 120788, "counters": {
                "cont_allocs": 23320, "cont_frees": 23320,
                "static_cont_uses": 37074, "queue_allocs": 16890,
                "queue_frees": 16890, "messages_sent": 120788,
                "data_messages_sent": 42303, "handler_dispatches": 174697,
                "resumes": 60394, "direct_resumes": 36184,
                "suspends": 60394, "nacks": 0, "errors": 0, "timeouts": 0,
                "retries": 0, "dups_absorbed": 0}}),
    ]
}


# Each workload's rationale, as claims over its per-layer metrics.  A
# traced run reports any claim that does not hold; it is not a failure,
# since an optimisation may rightly move a layer out of first place.
RATIONALE = {
    "verify-lcm3": [
        ("checker self time is most of the run",
         lambda m: m["verify.checker.self_s"] > 0.5 * m["trace.total_s"]),
        ("dispatch is under 5% of check()",
         lambda m: m["runtime.dispatch_s"] < 0.05 * m["verify.check_s"]),
        ("no fingerprints are taken",
         lambda m: m["verify.fingerprint.calls"] == 0),
    ],
    "verify-stache-ckpt": [
        ("fingerprint() is the largest timed layer",
         lambda m: m["verify.fingerprint_s"] == max(
             m["verify.fingerprint_s"], m["verify.checker.self_s"],
             m["verify.invariants_s"], m["verify.model.intern_s"],
             m["runtime.dispatch_s"], m["verify.checkpoint.write_s"])),
    ],
    "simulate-mp3d": [
        ("dispatch is most of the run",
         lambda m: m["runtime.dispatch_s"] > 0.5 * m["trace.total_s"]),
        ("the checker is never entered",
         lambda m: m["verify.check_s"] == 0),
    ],
}
