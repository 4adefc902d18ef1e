"""Fingerprint values are a stable, versioned format.

Checkpoints, parallel shard assignment and atlas fingerprint streams
all key on :func:`repro.verify.fingerprint.fingerprint`, so its values
must not drift when the encoder is optimised.  This file pins:

* literal 64-bit fingerprints of the first BFS layers of small models
  (fault-free and with a fault budget), computed by the original
  re-encode-everything encoder;
* a sealed checkpoint written by that encoder
  (``tests/golden/stache_2n_r1_max20.ckpt.json``), which must resume to
  the uninterrupted result -- resuming replays every frontier path and
  re-checks each fingerprint on the way;
* that the memoised :func:`encode_state` equals a re-encode-everything
  reference encoder byte for byte, on interned, decoded, permuted and
  faulted states;
* which modes keep the full-state intern table.
"""

import json
import os
import shutil

from repro.protocols import compile_named_protocol
from repro.verify import ModelChecker, events_for_protocol, fingerprint
from repro.verify.fingerprint import (
    SymmetryCanonicalizer,
    _encode_value,
    encode_state,
    state_from_jsonable,
    state_to_jsonable,
)
from repro.verify.invariants import standard_invariants
from repro.verify.model import initial_global_state

GOLDEN_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "golden", "stache_2n_r1_max20.ckpt.json")


def make_checker(name, n_nodes=2, reorder=0, **kwargs):
    return ModelChecker(
        compile_named_protocol(name), n_nodes=n_nodes, n_blocks=1,
        reorder_bound=reorder, events=events_for_protocol(name),
        invariants=standard_invariants(), **kwargs)


def initial_of(checker, faults=(0, 0)):
    return initial_global_state(
        checker.protocol, checker.n_nodes, checker.n_blocks,
        checker.home_of, checker.events.initial, faults=faults)


def bfs_layers(checker, depth, faults=(0, 0)):
    """{fingerprint: BFS depth} for every state within ``depth`` steps
    of the initial state, plus the states themselves in BFS order."""
    init = initial_of(checker, faults)
    seen = {fingerprint(init): 0}
    states = [init]
    frontier = [init]
    for level in range(1, depth + 1):
        following = []
        for state in frontier:
            for _label, successor in checker._successors(state):
                fp = fingerprint(successor)
                if fp not in seen:
                    seen[fp] = level
                    states.append(successor)
                    following.append(successor)
        frontier = following
    return seen, states


def reference_encode(state):
    """The canonical encoding built afresh, field by field, with
    no memoised pieces: the definition the memoised encoder must
    reproduce."""
    out = bytearray(b"G")
    for node_blocks in state.blocks:
        for view in node_blocks:
            out += b"B"
            for value in (view.state_name, view.state_args, view.info,
                          view.access, view.queue):
                _encode_value(value, out)
    for app in state.apps:
        out += b"A"
        _encode_value(app.blocked_on, out)
        _encode_value(app.gen, out)
    for row in state.channels:
        for channel in row:
            out += b"C"
            _encode_value(channel, out)
    if state.faults != (0, 0):
        out += b"F"
        _encode_value(tuple(state.faults), out)
    return bytes(out)


# -- literal pins ---------------------------------------------------------------

STACHE_2N = {
    0x67ac17f7c2c73e07: 0,
    0x224652b6af16ef53: 1, 0xdf837d251d80b486: 1,
    0x51561ff72943d455: 2, 0xf5c15db3b0a5cbbc: 2,
    0x123f0580676d9ab7: 3, 0x6644fca8b7cb52ed: 3, 0x733d65077701ae3f: 3,
    0x092d68d599defe46: 3, 0xc8afe3a68b03889a: 3,
}

LCM_2N_R1 = {
    0x04a9795685c9edd9: 0,
    0x6b718c1cec2328c2: 1, 0x830d6644fcdb91fe: 1, 0xa9e2aa2c84378c16: 1,
    0xb5b86c3efdbe473b: 1, 0x0f7bbd9f5aff85e9: 1,
    0x10dd365f74e06e4e: 2, 0x136f10f55e3efdd2: 2, 0x14e2bf8e5429a904: 2,
    0x6fe8fee02042c77e: 2, 0x72c42b693dacfc0c: 2, 0x8b13aa7b24e1004e: 2,
    0xa7a0ac9f09c28db2: 2, 0xfa3c69e1a74ddb8a: 2, 0xfc73040e5cb2d0fd: 2,
}

# Fault budget (1 drop, 1 dup): the F suffix changes every value.
STACHE_2N_FAULTS = {
    0xba556786c7288226: 0,
    0xaea9a623e4383be4: 1, 0xde65027f5fc96784: 1,
    0x1375ed349ed43138: 2, 0x2176fe359a7f5835: 2, 0x27450ef59bbac595: 2,
    0x85ae5bd131e07510: 2, 0x9bcad15149443170: 2, 0xf64fdc0677f134b7: 2,
}


class TestPinnedValues:
    def test_stache_2n(self):
        seen, _ = bfs_layers(make_checker("stache"), depth=3)
        assert seen == STACHE_2N

    def test_lcm_2n_reorder_1(self):
        seen, _ = bfs_layers(make_checker("lcm", reorder=1), depth=2)
        assert seen == LCM_2N_R1

    def test_stache_2n_with_fault_budget(self):
        checker = make_checker("stache", fault_budget=(1, 1))
        seen, states = bfs_layers(checker, depth=2, faults=(1, 1))
        assert seen == STACHE_2N_FAULTS
        assert all(state.faults != (0, 0) for state in states)

    def test_parent_written_checkpoint_resumes_exactly(self, tmp_path):
        path = str(tmp_path / "golden.ckpt.json")
        shutil.copy(GOLDEN_CHECKPOINT, path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["visited"] and payload["frontier"]
        full = make_checker("stache", reorder=1,
                            fingerprint_states=True).run()
        resumed = make_checker("stache", reorder=1, fingerprint_states=True,
                               resume=path).run()
        assert resumed.exhausted
        assert resumed.ok == full.ok
        assert resumed.states_explored == full.states_explored
        assert resumed.transitions == full.transitions


# -- memo equals the reference --------------------------------------------------

class TestMemoMatchesReference:
    def test_every_state_of_an_exploration(self):
        checker = make_checker("lcm", reorder=1)
        _, states = bfs_layers(checker, depth=6)
        assert len(states) > 100
        for state in states:
            # Twice: the second call reads every piece from the memo.
            assert encode_state(state) == reference_encode(state)
            assert encode_state(state) == reference_encode(state)

    def test_decoded_states_are_not_interned(self):
        checker = make_checker("stache", reorder=1)
        _, states = bfs_layers(checker, depth=6)
        for state in states:
            encode_state(state)             # warm the interned pieces
            decoded = state_from_jsonable(
                json.loads(json.dumps(state_to_jsonable(state))))
            assert decoded.blocks[0][0] is not state.blocks[0][0]
            assert encode_state(decoded) == reference_encode(decoded)
            assert encode_state(decoded) == encode_state(state)

    def test_symmetry_images(self):
        checker = make_checker("stache", n_nodes=3, reorder=1)
        canon = SymmetryCanonicalizer(checker.protocol, 3, 1, perm_cap=None)
        assert canon.perms
        _, states = bfs_layers(checker, depth=5)
        for state in states:
            for mapping in canon.perms:
                image = canon.permute(state, mapping)
                assert encode_state(image) == reference_encode(image)
                inverse = tuple(mapping.index(node)
                                for node in range(len(mapping)))
                back = canon.permute(image, inverse)
                assert encode_state(back) == encode_state(state)

    def test_faulted_states(self):
        checker = make_checker("stache", fault_budget=(1, 1))
        _, states = bfs_layers(checker, depth=4, faults=(1, 1))
        assert any(state.faults == (0, 1) for state in states)
        for state in states:
            assert encode_state(state) == reference_encode(state)


# -- which modes keep full states -----------------------------------------------

class TestStateIntern:
    def test_fingerprint_mode_interns_no_states(self):
        checker = make_checker("stache", reorder=1, fingerprint_states=True)
        result = checker.run()
        assert result.ok and result.states_explored == 47
        assert not checker._state_intern

    def test_symmetry_keeps_the_intern(self):
        checker = make_checker("stache", n_nodes=3, reorder=1, symmetry=True)
        assert checker.run().ok
        assert checker._state_intern
