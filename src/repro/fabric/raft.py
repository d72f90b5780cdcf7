"""Raft consensus among the ordering nodes.

The paper's deployment "opt[s] to use Raft as the consensus protocol of
orderers" (§6, Experimental setup).  The default network model charges
a fixed consensus delay per block; this module provides the real
protocol for deployments that want it (``NetworkConfig.use_raft``) and
for fault-injection tests: leader election with randomized-but-seeded
timeouts, heartbeats, majority log replication, and crash/recovery.

The simulation style matches the rest of the codebase: nodes are
processes on the shared :class:`~repro.sim.Environment`; message delays
come from the latency model.  The protocol is the Raft core (Ongaro &
Ousterhout §5) specialised to the ordering use case:

- log entries are opaque payloads (block digests),
- reads never go through the log (orderers only replicate),
- configuration changes are out of scope (fixed membership, like a
  Fabric ordering-service deployment).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError
from repro.sim import Environment, Event

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


@dataclass
class LogEntry:
    """One replicated entry: the term it was created in and a payload."""

    term: int
    payload: Any
    #: Events to fire when THIS entry commits (identity-based, so a
    #: retried payload appended as a fresh entry cannot be confused
    #: with an abandoned one on a dead leader's log).
    waiters: list = field(default_factory=list)
    #: Id of the ``replicate()`` call that appended this entry.  A retry
    #: after a replication timeout looks the id up on the current
    #: leader's log before appending again: if the original entry is
    #: still there (the leader was slow, not dead), re-appending it
    #: would commit the payload twice.
    request_id: int | None = None


@dataclass
class _NodeState:
    """Volatile + persistent state of one Raft node."""

    node_id: int
    role: str = FOLLOWER
    current_term: int = 0
    voted_for: int | None = None
    log: list[LogEntry] = field(default_factory=list)
    commit_index: int = -1
    crashed: bool = False
    #: Deadline (sim time) at which a follower starts an election.
    election_deadline: float = 0.0


class RaftCluster:
    """A fixed-membership Raft group replicating opaque payloads.

    Parameters
    ----------
    env:
        Shared simulation environment.
    node_count:
        Cluster size (the paper uses 3 orderers).
    rtt_ms:
        One-way message delay between orderers.
    heartbeat_ms / election_timeout_ms:
        Raft timers.  Election timeouts are drawn per node from a
        seeded RNG, so runs are deterministic.
    """

    kind = "raft"

    def __init__(
        self,
        env: Environment,
        node_count: int = 3,
        rtt_ms: float = 1.0,
        heartbeat_ms: float = 50.0,
        election_timeout_ms: tuple[float, float] = (150.0, 300.0),
        seed: int = 1,
    ):
        if node_count < 1:
            raise SimulationError("raft needs at least one node")
        self.env = env
        self.rtt_ms = rtt_ms
        self.heartbeat_ms = heartbeat_ms
        self._timeout_range = election_timeout_ms
        #: Per-node deadline RNGs.  A single shared RNG hands *every*
        #: node the same deadline whenever the draws happen to collide
        #: (trivially so for a zero-width timeout range): all survivors
        #: then time out on the same simulated tick, each votes for
        #: itself at the same term, and the split vote repeats forever.
        #: Independent per-node streams keep runs deterministic while
        #: guaranteeing the deadlines differ.
        self._node_rngs = [
            random.Random(f"raft-{seed}-node-{i}") for i in range(node_count)
        ]
        self.nodes = [_NodeState(node_id=i) for i in range(node_count)]
        self._majority = node_count // 2 + 1
        self._request_ids = itertools.count(1)
        #: Optional pair-connectivity hook ``(a_id, b_id) -> bool`` set
        #: by the fault injector when a plan carries partitions.  While
        #: ``None`` (the default, and any fault-free run) every path
        #: below short-circuits to the historical behaviour.
        self.connectivity = None
        #: Election statistics (observable by tests).
        self.elections_held = 0
        for node in self.nodes:
            self._reset_election_deadline(node)
            env.process(self._node_loop(node))

    # -- public API ----------------------------------------------------------

    @property
    def leader(self) -> _NodeState | None:
        """The current leader, if one is up.

        A partition can leave a deposed leader frozen at an old term on
        the minority side; the highest-term claimant is the one the
        majority elected and the one clients should submit to.
        """
        leaders = [
            node
            for node in self.nodes
            if node.role == LEADER and not node.crashed
        ]
        if not leaders:
            return None
        return max(leaders, key=lambda node: node.current_term)

    @property
    def leader_id(self) -> int | None:
        """Node id of the current leader (``None`` between leaders)."""
        leader = self.leader
        return None if leader is None else leader.node_id

    def replicate(self, payload: Any) -> Event:
        """Append a payload through the leader; fires when committed.

        The returned event's value is the committed log index.  If no
        leader is currently known, the call waits (retrying internally)
        until one emerges — mirroring how a Fabric orderer buffers
        transactions across leadership changes.
        """
        event = self.env.event()
        self.env.process(self._replicate_process(payload, event))
        return event

    def crash(self, node_id: int) -> None:
        """Take a node down (it stops participating)."""
        self.nodes[node_id].crashed = True

    def recover(self, node_id: int) -> None:
        """Bring a crashed node back as a follower."""
        node = self.nodes[node_id]
        node.crashed = False
        node.role = FOLLOWER
        self._reset_election_deadline(node)

    def heal(self) -> None:
        """End the experiment: bring every crashed node back."""
        for node in self.nodes:
            if node.crashed:
                self.recover(node.node_id)

    def committed_payloads(self, node_id: int | None = None) -> list[Any]:
        """Committed log as seen by one node (default: the leader).

        Deduplicated by request id, first occurrence wins: a log written
        before the duplicate-append fix (or replayed from one) can carry
        the same replicate() call twice, and consumers of the committed
        sequence must still see each payload exactly once.
        """
        node = self.nodes[node_id] if node_id is not None else (self.leader or self.nodes[0])
        payloads: list[Any] = []
        seen: set[int] = set()
        for entry in node.log[: node.commit_index + 1]:
            if entry.request_id is not None:
                if entry.request_id in seen:
                    continue
                seen.add(entry.request_id)
            payloads.append(entry.payload)
        return payloads

    # -- internals ------------------------------------------------------------

    def _reset_election_deadline(self, node: _NodeState) -> None:
        low, high = self._timeout_range
        jitter = self._node_rngs[node.node_id].uniform(low, high)
        # Deterministic per-node stagger, sized past one election round
        # (2 RTTs), so even a zero-width configured range cannot produce
        # simultaneous candidates: the lowest-id survivor always wins
        # its election before the next deadline fires.
        stagger = node.node_id * (2.0 * self.rtt_ms + 0.5)
        node.election_deadline = self.env.now + jitter + stagger

    def _alive(self) -> list[_NodeState]:
        return [n for n in self.nodes if not n.crashed]

    def _reachable(self, src: _NodeState, dst: _NodeState) -> bool:
        """Whether a message from ``src`` currently reaches ``dst``."""
        if self.connectivity is None or src is dst:
            return True
        return self.connectivity(src.node_id, dst.node_id)

    def _pair_reachable(self, a: _NodeState, b: _NodeState) -> bool:
        return self._reachable(a, b) and self._reachable(b, a)

    def _node_loop(self, node: _NodeState):
        """Follower/candidate timer loop; leaders run the heartbeat loop."""
        env = self.env
        while True:
            if node.crashed or node.role == LEADER:
                yield env.timeout(self.heartbeat_ms / 2)
                continue
            if env.now >= node.election_deadline:
                yield from self._run_election(node)
            else:
                yield env.timeout(
                    max(node.election_deadline - env.now, 0.1)
                )

    def _run_election(self, node: _NodeState):
        env = self.env
        # Pre-vote (Ongaro §9.6): a node that cannot exchange messages
        # with a majority — it sits on the minority side of a partition
        # — must not start a real election.  Bumping its term could
        # never win, but would force a disruptive step-down on the
        # healed cluster and perturb timing relative to a fault-free
        # run.  It stays a follower and re-arms its timer instead.
        reachable = 1 + sum(
            1
            for peer in self._alive()
            if peer is not node and self._pair_reachable(node, peer)
        )
        if reachable < self._majority:
            self._reset_election_deadline(node)
            return
        node.role = CANDIDATE
        node.current_term += 1
        node.voted_for = node.node_id
        self.elections_held += 1
        term = node.current_term
        votes = 1
        # Request votes: one RTT to each peer.
        yield env.timeout(self.rtt_ms * 2)
        for peer in self._alive():
            if peer is node:
                continue
            if not self._pair_reachable(node, peer):
                continue  # the vote request (or the vote) is lost
            if peer.current_term > term:
                continue  # peer is ahead: no vote
            up_to_date = len(node.log) >= len(peer.log)
            if up_to_date and (peer.current_term < term or peer.voted_for is None):
                peer.current_term = term
                peer.voted_for = node.node_id
                if peer.role == LEADER:
                    peer.role = FOLLOWER
                votes += 1
        if node.crashed:
            return
        if votes >= self._majority and node.role == CANDIDATE:
            node.role = LEADER
            # Bring peers' logs up to date immediately (simplified
            # AppendEntries catch-up).
            yield from self._broadcast_append(node)
            self.env.process(self._leader_loop(node))
        else:
            node.role = FOLLOWER
            self._reset_election_deadline(node)

    def _leader_loop(self, leader: _NodeState):
        env = self.env
        while leader.role == LEADER and not leader.crashed:
            yield env.timeout(self.heartbeat_ms)
            if leader.crashed or leader.role != LEADER:
                return
            yield from self._broadcast_append(leader)

    def _broadcast_append(self, leader: _NodeState):
        """Replicate the leader's log to every live follower; advance
        the commit index on majority acknowledgement."""
        env = self.env
        yield env.timeout(self.rtt_ms)  # fan-out
        acks = 1
        for peer in self._alive():
            if peer is leader:
                continue
            if not self._reachable(leader, peer):
                continue  # the AppendEntries never arrives
            if peer.current_term > leader.current_term:
                leader.role = FOLLOWER
                self._reset_election_deadline(leader)
                return
            peer.current_term = leader.current_term
            peer.role = FOLLOWER
            peer.voted_for = leader.node_id
            self._reset_election_deadline(peer)
            # Simplified log reconciliation: followers adopt the
            # leader's log (safe here because only leaders append).
            peer.log = list(leader.log)
            if self._reachable(peer, leader):
                acks += 1  # an asymmetric link can swallow just the ack
        yield env.timeout(self.rtt_ms)  # acks back
        if acks >= self._majority:
            new_commit = len(leader.log) - 1
            if new_commit > leader.commit_index:
                for index in range(leader.commit_index + 1, new_commit + 1):
                    entry = leader.log[index]
                    waiters, entry.waiters = entry.waiters, []
                    for event in waiters:
                        event.succeed(index)
                leader.commit_index = new_commit
            for peer in self._alive():
                if self._reachable(leader, peer):
                    peer.commit_index = max(
                        peer.commit_index, leader.commit_index
                    )

    def _find_entry(self, node: _NodeState, request_id: int) -> int | None:
        """Index of the entry with ``request_id`` on a node's log."""
        for index, entry in enumerate(node.log):
            if entry.request_id == request_id:
                return index
        return None

    def _replicate_process(self, payload: Any, done: Event):
        env = self.env
        request_id = next(self._request_ids)
        while True:
            leader = self.leader
            if leader is None:
                yield env.timeout(self.heartbeat_ms)
                continue
            # Look the request up on the current leader's log before
            # appending.  After a replication timeout the original
            # entry is still there when the leader was slow rather than
            # dead — blindly appending again (as this loop once did)
            # committed the payload twice.
            index = self._find_entry(leader, request_id)
            if index is not None and index <= leader.commit_index:
                done.succeed(index)
                return
            if index is None:
                entry = LogEntry(
                    term=leader.current_term,
                    payload=payload,
                    request_id=request_id,
                )
                leader.log.append(entry)
            else:
                entry = leader.log[index]
            waiter = env.event()
            entry.waiters.append(waiter)
            committed = yield env.any_of(
                [waiter, env.timeout(self._timeout_range[1] * 2)]
            )
            if waiter.triggered:
                done.succeed(committed)
                return
            # Timed out.  Either the leader crashed before committing
            # (the entry is not on the new leader's log and the next
            # iteration appends a fresh copy), or the leader is slow
            # but alive (the next iteration finds the entry by request
            # id and just waits again).
