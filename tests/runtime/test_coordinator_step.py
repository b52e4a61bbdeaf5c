"""The coordinator's decisions alone: ``step`` with no network, journal,
clock or threads.

A hypothesis state machine feeds :func:`repro.runtime.coordinator.step`
random interleavings of ACKs, NACKs, stale and duplicate ACKs, pongs,
heartbeats and timer ticks at a synthetic ``now`` — ACKs at arbitrary
times after their round started, from arbitrary measured costs, so the
run-time re-split moves chunks between rounds — then drives the run to
its end, and holds it to the invariants the runtime depends on:

* no action is completed twice;
* every action ends completed, or the run fails loudly with
  ``RepairFailedError`` / ``RepairTimeoutError`` naming its key;
* an ACK from a fenced epoch or a superseded attempt changes nothing;
* every ``ActionCompleted`` record of a round is returned before any
  command of the next round (the shell appends a step's records before
  it sends that step's commands).
"""

import ast
import copy
import dataclasses
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import StorageCluster
from repro.core.plan import RepairMethod
from repro.core.planner import FastPRPlanner
from repro.ec import make_codec
from repro.runtime import coordinator
from repro.runtime.coordinator import (
    CoordinatorState,
    NextRound,
    RepairFailedError,
    RepairTimeoutError,
    Start,
    Tick,
    step,
)
from repro.runtime.journal import ActionCompleted, RoundStarted
from repro.runtime.messages import (
    ACK_FAILED,
    Heartbeat,
    Pong,
    ReceiveCommand,
    RepairAck,
    SendCommand,
)
from repro.runtime.config import RuntimeConfig

CLUSTER = StorageCluster.random(
    num_nodes=10,
    num_stripes=8,
    n=5,
    k=3,
    num_hot_standby=2,
    seed=21,
    disk_bandwidth=1e9,
    network_bandwidth=1e9,
    chunk_size=4096,
)
CLUSTER.node(0).mark_soon_to_fail()
CODEC = make_codec("rs(5,3)")
PLAN = FastPRPlanner(seed=3).plan(CLUSTER, 0)
KEYS = {(a.stripe_id, a.chunk_index) for a in PLAN.actions()}
#: action key -> index of the round the plan puts it in
PLANNED_ROUND = {
    (a.stripe_id, a.chunk_index): r.index
    for r in PLAN.rounds
    for a in r.actions()
}
NODES = sorted(CLUSTER.nodes)
CONFIG = RuntimeConfig(
    min_deadline=1.0,
    max_retries=2,
    backoff_base=0.1,
    backoff_cap=0.4,
    probe_timeout=0.5,
)
EPOCH = 3

#: fields a fenced or superseded ACK must leave exactly as they were
_WATCHED = [
    f.name
    for f in dataclasses.fields(CoordinatorState)
    if f.name not in ("plan", "cluster", "codec", "config", "nonces")
]


def snapshot(state):
    return {name: copy.deepcopy(getattr(state, name)) for name in _WATCHED}


class CoordinatorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = CoordinatorState(PLAN, 1024, EPOCH, CLUSTER, CODEC, CONFIG)
        self.now = 0.0
        self.completed = []
        self.failure = None

    @initialize(
        costs=st.one_of(
            st.just({}),
            st.fixed_dictionaries({
                method: st.floats(min_value=0.0, max_value=1e-3)
                for method in RepairMethod
            }),
        )
    )
    def start(self, costs):
        """Commit, with or without costs measured by earlier runs."""
        self.state.costs = dict(costs)
        self.feed(Start())

    # -- plumbing ------------------------------------------------------

    def feed(self, event):
        """One step, checked against the ordering invariants."""
        if not self.live:
            return
        try:
            commands, records = step(self.state, event, self.now)
        except (RepairFailedError, RepairTimeoutError) as exc:
            self.failure = exc
            return
        for record in records:
            if isinstance(record, RoundStarted):
                earlier = {
                    (a.stripe_id, a.chunk_index)
                    for round_ in PLAN.rounds
                    if round_.index < record.round_index
                    for a in round_.actions()
                }
                assert earlier <= set(self.completed), record
            elif isinstance(record, ActionCompleted):
                key = (record.action["stripe_id"], record.action["chunk_index"])
                assert key not in self.completed, f"{key} completed twice"
                self.completed.append(key)
        for _node, message in commands:
            if isinstance(message, (ReceiveCommand, SendCommand)):
                # an action of the round in flight, never run later
                # than the plan has it (a re-split only pulls forward)
                assert message.key in self.state.actions, message
                assert PLANNED_ROUND[message.key] >= self.state.round, message
                assert message.epoch == EPOCH

    @property
    def live(self):
        return self.failure is None and not self.state.finished

    # -- rules ---------------------------------------------------------

    @precondition(lambda self: self.live and self.state.committed
                  and not self.state.in_round)
    @rule()
    def next_round(self):
        self.feed(NextRound())

    @precondition(lambda self: self.live and self.state.in_round)
    @rule(
        data=st.data(),
        ok=st.booleans(),
        dt=st.floats(min_value=0.0, max_value=1.0),
    )
    def ack(self, data, ok, dt):
        """An ACK ``dt`` after the last event: rounds take arbitrary
        times, which the coordinator folds into its cost estimates."""
        self.now += dt
        state = self.state
        key = data.draw(st.sampled_from(sorted(state.actions)))
        attempt = data.draw(
            st.sampled_from([state.attempts[key], state.attempts[key] - 1])
        )
        epoch = data.draw(st.sampled_from([EPOCH, EPOCH - 1]))
        ack = RepairAck(
            key[0], key[1], state.actions[key].destination, attempt, epoch,
            status="ok" if ok else ACK_FAILED, detail="injected",
        )
        stale = (
            epoch != EPOCH
            or attempt != state.attempts[key]
            or key not in state.pending
        )
        before = snapshot(state) if stale else None
        self.feed(ack)
        if stale:
            assert snapshot(state) == before, "a stale ACK changed state"

    @precondition(lambda self: self.live)
    @rule(node=st.sampled_from(NODES), right_nonce=st.booleans())
    def pong(self, node, right_nonce):
        probe = self.state.probe
        nonce = probe.nonce if probe and right_nonce else 10_000
        self.feed(Pong(node, nonce))

    @rule(node=st.sampled_from(NODES))
    def heartbeat(self, node):
        self.feed(Heartbeat(node))

    @precondition(lambda self: self.live)
    @rule(dt=st.floats(min_value=0.0, max_value=3.0))
    def tick(self, dt):
        self.now += dt
        self.feed(Tick())

    @invariant()
    def completions_are_done(self):
        assert set(self.completed) <= set(self.state.done)

    # -- the end -------------------------------------------------------

    def teardown(self):
        """Every agent answers from here on: the run must end, either
        with every action completed once or with a loud failure."""
        for _ in range(500):
            if not self.live:
                break
            state = self.state
            if state.committed and not state.in_round:
                self.feed(NextRound())
            elif state.probe is not None:
                for node in sorted(state.probe.nodes):
                    self.feed(Pong(node, state.probe.nonce))
                    if state.probe is None:
                        break
            elif state.pending - set(state.reissue_at):
                for key in sorted(state.pending - set(state.reissue_at)):
                    action = state.actions[key]
                    self.feed(RepairAck(
                        key[0], key[1], action.destination,
                        state.attempts[key], EPOCH,
                    ))
                    if not self.live or key not in state.actions:
                        break
            else:
                self.now = max(self.now, state.wake_at())
                self.feed(Tick())
        if self.failure is not None:
            named = getattr(self.failure, "pending", None) or [
                key for key in KEYS if str(key) in str(self.failure)
            ]
            assert named and set(named) <= KEYS, self.failure
            return
        assert self.state.finished
        assert sorted(self.completed) == sorted(KEYS)
        assert set(self.state.done) == KEYS


CoordinatorMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCoordinatorStep = CoordinatorMachine.TestCase


def test_step_reaches_no_clock_queue_transport_or_journal_io():
    """Everything :func:`step` can reach in its module names neither
    ``time``, ``queue``, the transport nor :class:`RepairJournal`, and
    touches no ``inbox``, ``network`` or ``journal`` attribute.  (The
    journal's record types are plain data and may be built.)"""
    tree = ast.parse(Path(coordinator.__file__).read_text())
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached, todo, names, attrs = set(), ["step"], set(), set()
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    assert {"step", "CoordinatorState", "_conclude_probe"} <= reached
    assert "Coordinator" not in reached
    assert not names & {"time", "queue", "Network", "RepairJournal"}
    assert not attrs & {"monotonic", "sleep", "send", "inbox", "network", "journal"}
