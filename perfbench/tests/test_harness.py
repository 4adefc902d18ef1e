"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

The end-to-end cases spawn real children on each workload's small
priming configuration, so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from harness import ChildRun, outcome_problems, run_child, rusage_metrics  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from run import (  # noqa: E402
    child_env,
    layer_metrics,
    load_metric_specs,
    self_time_problems,
    trace_problems,
)
from specs import WORKLOADS  # noqa: E402


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(BENCH, "out", "test-work", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def spawn(workdir, code, timeout=30.0):
    argv = [sys.executable, "-c", code]
    return run_child(ChildRun(argv, "timed"), child_env(workdir), workdir,
                     timeout)


# -- rusage parsing ---------------------------------------------------------

def test_rusage_metrics_sums_user_and_sys_and_converts_kib():
    rusage = SimpleNamespace(ru_utime=1.25, ru_stime=0.5, ru_maxrss=2048)
    assert rusage_metrics(rusage) == (1.75, 2.0)


def test_peak_rss_is_the_childs_own_not_a_running_max(workdir):
    big = spawn(workdir, "print('compiled')\n"
                          "b = bytearray(150 * 2**20)\n"
                          "b[::4096] = b'x' * len(b[::4096])")
    small = spawn(workdir, "print('compiled')")
    assert big.ok and small.ok
    assert big.peak_rss_mb > 150
    assert small.peak_rss_mb < 50


# -- child measurement ------------------------------------------------------

def test_setup_is_marker_time_and_report_is_last_line(workdir):
    run = spawn(workdir, "import time, json\n"
                          "print('compiled', flush=True)\n"
                          "time.sleep(0.3)\n"
                          "print(json.dumps({'x': 1}))")
    assert run.ok, run.problems
    assert run.setup_s < run.wall_s
    assert run.wall_s - run.setup_s >= 0.3
    assert run.report == {"x": 1}
    assert run.cpu_s < run.wall_s


def test_nonzero_exit_and_missing_marker_are_failures(workdir):
    assert spawn(workdir, "raise SystemExit(3)").problems == ["exit code 3"]
    assert spawn(workdir, "print('hello')").problems == [
        "no 'compiled' marker on stdout"]


def test_timeout_kills_and_reaps_the_child(workdir):
    run = spawn(workdir, "print('compiled', flush=True)\n"
                          "import time; time.sleep(60)", timeout=1.0)
    assert run.timed_out and not run.ok
    assert run.wall_s < 10
    assert run.returncode == -9


# -- outcome pins -----------------------------------------------------------

def verify_outcome(spec, **changes):
    outcome = dict(spec.pins, kind="verify", exhausted=True,
                   stop_reason=None, protocol="LCM")
    outcome.update(changes)
    return outcome


def test_verify_outcome_matches_pins_exactly():
    spec = WORKLOADS["verify-lcm3"]
    assert outcome_problems(spec, 1, verify_outcome(spec)) == []
    # The fallback the pins exist to catch: a check that silently
    # explores a different (smaller) model and still says PASS.
    problems = outcome_problems(spec, 1, verify_outcome(spec, states=1996))
    assert problems == ["states: got 1996, pinned 112723"]
    assert outcome_problems(spec, 1, verify_outcome(
        spec, exhausted=False, stop_reason="deadline"))


def test_simulate_pins_apply_to_the_pin_seed_only():
    spec = WORKLOADS["simulate-mp3d"]
    other = {"kind": "simulate", "cycles": 1, "messages": 2, "counters": {},
             "quiescent": True, "coherent": True}
    assert outcome_problems(spec, spec.pin_seed + 1, other) == []
    assert {p.split(":")[0] for p in
            outcome_problems(spec, spec.pin_seed, other)} == {
        "cycles", "messages", "counters"}
    stuck = dict(other, quiescent=False)
    assert outcome_problems(spec, spec.pin_seed + 1, stuck) == [
        "quiescent: got False, pinned True"]


def test_wrong_kind_is_reported():
    spec = WORKLOADS["simulate-mp3d"]
    assert outcome_problems(spec, 7, {"kind": "verify"})


# -- layer tracing ----------------------------------------------------------

def test_self_times_are_non_negative_and_sum_to_the_root():
    import time

    tracer = LayerTracer(time.perf_counter())

    def leaf():
        time.sleep(0.002)

    def middle():
        for _ in range(3):
            leaf_traced()
        time.sleep(0.002)
        raise ValueError("callers may use exceptions for control flow")

    leaf_traced = tracer.wrap("leaf", leaf)
    middle_traced = tracer.wrap("middle", middle, span=True)
    with tracer.span("outer"):
        with pytest.raises(ValueError):
            middle_traced()
    trace = tracer.finish()
    assert self_time_problems(trace, trace["root"]["total_s"] + 1) == []
    layers = trace["layers"]
    assert layers["leaf"]["calls"] == 3
    assert layers["middle"]["self_s"] == pytest.approx(
        layers["middle"]["total_s"] - layers["leaf"]["total_s"])
    assert [s["parent"] for s in trace["spans"]] == ["outer", "child", None]


def test_self_time_problems_flags_inconsistent_traces():
    trace = {"root": {"total_s": 1.0, "self_s": 0.5},
             "layers": {"a": {"self_s": -0.1}, "b": {"self_s": 0.2}}}
    problems = self_time_problems(trace, 0.5)
    assert "negative self time" in problems
    assert "layer self times do not sum to the root span" in problems
    assert "root span outside the child's wall time" in problems


def simulate_report(entry_calls=1, entry_s=2.0, dispatch_calls=100):
    layers = {
        "sim.simulate": {"calls": entry_calls, "total_s": entry_s,
                         "self_s": 0.5},
        "runtime.dispatch": {"calls": dispatch_calls, "total_s": 1.5,
                             "self_s": 1.5},
    }
    return {"trace": {"root": {"total_s": 2.5, "self_s": 0.5},
                      "layers": layers},
            "run_s": 2.0,
            "outcome": {"kind": "simulate",
                        "counters": {"handler_dispatches": 100}}}


def test_trace_problems_checks_layers_against_the_childs_own_numbers():
    assert trace_problems(simulate_report(), 3.0) == []
    # A wrapper that is not on the path, or wraps twice, shows here
    # even though the self times still add up.
    assert trace_problems(simulate_report(entry_calls=0, entry_s=0.0), 3.0)
    assert trace_problems(simulate_report(entry_s=1.0), 3.0)
    assert trace_problems(simulate_report(dispatch_calls=200), 3.0) == [
        "200 dispatch calls, but the simulator counted 100"]


# -- real children on the priming configurations ----------------------------

def child(workload, workdir, trace):
    argv = [sys.executable, os.path.join(BENCH, "child.py"), "--workload",
            workload, "--seed", "7", "--mode", "prime", "--workdir",
            workdir]
    if trace:
        argv.append("--trace")
    return run_child(ChildRun(argv, "prime", trace),
                     child_env(workdir), ROOT, 120.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_children_agree(workload, workdir):
    plain = child(workload, workdir, trace=False)
    traced = child(workload, workdir, trace=True)
    assert plain.ok and traced.ok, plain.problems + traced.problems
    assert plain.report["outcome"] == traced.report["outcome"]
    assert trace_problems(traced.report, traced.wall_s) == []
    metrics = layer_metrics(traced.report, plain, traced)
    _end_to_end, per_layer = load_metric_specs()
    assert set(metrics) == set(per_layer)
    kind = WORKLOADS[workload].kind
    if kind == "verify":
        assert metrics["verify.check_s"] > 0
        assert metrics["tempest.machine_run_s"] == 0
        assert metrics["runtime.dispatch_calls"] > 0
    else:
        assert metrics["verify.check_s"] == 0
        assert metrics["runtime.dispatch_s"] < metrics[
            "tempest.machine_run_s"]
    # Checkpointing is what turns fingerprint-keyed states on.
    fingerprints = WORKLOADS[workload].checkpoint_every is not None
    assert (metrics["verify.fingerprint.calls"] > 0) == fingerprints


def test_benchmark_json_names_the_metrics_run_py_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    end_to_end, _per_layer = load_metric_specs()
    assert set(end_to_end) == {"wall_s", "cpu_s", "peak_rss_mb",
                               "work_per_s", "setup_s"}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
