"""Bipartite matching and max-flow — the engine behind Algorithm 1.

The paper formulates both helper selection (Fig. 4(b)) and repaired-
chunk placement (Fig. 4(c)) as bipartite maximum-matching problems and
solves them "as a maximum flow problem by Ford-Fulkerson".  This module
provides three interchangeable solvers:

* :func:`hopcroft_karp` — classic O(E sqrt(V)) bipartite matching,
* :class:`DinicMaxFlow` — general max-flow (the Ford-Fulkerson family),
* :class:`IncrementalStripeMatcher` — an augmenting-path matcher with
  cheap rollback and a reachability pre-check that rejects doomed
  stripes without searching, tailored to Algorithm 1's MATCH calls,
  which add one stripe (k chunk vertices) at a time to an existing
  matching.

For helper selection, each stripe to be reconstructed needs ``k``
distinct helper nodes out of the ``n - 1`` nodes holding its surviving
chunks, and a node may serve at most one chunk per repair round.  We
model each stripe as ``k`` chunk "slots"; a full matching saturates
every slot.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Tuple


# ----------------------------------------------------------------------
# Hopcroft-Karp
# ----------------------------------------------------------------------


def hopcroft_karp(
    adjacency: Sequence[Sequence[int]], num_right: int
) -> Tuple[int, List[int], List[int]]:
    """Maximum bipartite matching via Hopcroft-Karp.

    Args:
        adjacency: ``adjacency[u]`` lists the right-vertices adjacent to
            left-vertex ``u``.
        num_right: number of right vertices.

    Returns:
        ``(size, match_left, match_right)`` where ``match_left[u]`` is
        the right vertex matched to ``u`` (or -1) and vice versa.
    """
    num_left = len(adjacency)
    match_left = [-1] * num_left
    match_right = [-1] * num_right
    INF = float("inf")

    def bfs() -> bool:
        dist = [INF] * num_left
        queue = deque()
        for u in range(num_left):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    found_free = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        bfs.dist = dist  # type: ignore[attr-defined]
        return found_free

    def dfs(u: int) -> bool:
        dist = bfs.dist  # type: ignore[attr-defined]
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = INF
        return False

    size = 0
    while bfs():
        for u in range(num_left):
            if match_left[u] == -1 and dfs(u):
                size += 1
    return size, match_left, match_right


# ----------------------------------------------------------------------
# Dinic max-flow
# ----------------------------------------------------------------------


class DinicMaxFlow:
    """Dinic's max-flow on a directed graph with integer capacities."""

    def __init__(self, num_vertices: int):
        self.n = num_vertices
        self.graph: List[List[int]] = [[] for _ in range(num_vertices)]
        # Edge arrays: to[], cap[]; reverse edge is eid ^ 1.
        self._to: List[int] = []
        self._cap: List[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge ``u -> v``; returns its edge id."""
        eid = len(self._to)
        self.graph[u].append(eid)
        self._to.append(v)
        self._cap.append(capacity)
        self.graph[v].append(eid + 1)
        self._to.append(u)
        self._cap.append(0)
        return eid

    def edge_flow(self, eid: int) -> int:
        """Flow currently pushed through edge ``eid``."""
        return self._cap[eid ^ 1]

    def max_flow(self, source: int, sink: int) -> int:
        """Compute the maximum flow from source to sink."""
        flow = 0
        while True:
            level = self._bfs(source, sink)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs(source, sink, float("inf"), level, it)
                if not pushed:
                    break
                flow += pushed

    def _bfs(self, source: int, sink: int) -> Optional[List[int]]:
        level = [-1] * self.n
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in self.graph[u]:
                v = self._to[eid]
                if self._cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[sink] >= 0 else None

    def _dfs(self, u, sink, limit, level, it):
        if u == sink:
            return limit
        while it[u] < len(self.graph[u]):
            eid = self.graph[u][it[u]]
            v = self._to[eid]
            if self._cap[eid] > 0 and level[v] == level[u] + 1:
                pushed = self._dfs(v, sink, min(limit, self._cap[eid]), level, it)
                if pushed:
                    self._cap[eid] -= pushed
                    self._cap[eid ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0


def stripe_helper_flow(
    stripe_helpers: Dict[Hashable, Sequence[Hashable]], k: int
) -> Optional[Dict[Hashable, List[Hashable]]]:
    """Solve helper selection as a max-flow problem (Fig. 4(b)).

    Each stripe must receive ``k`` distinct helper nodes from its
    candidate list; each node serves at most one stripe-chunk overall.

    Args:
        stripe_helpers: stripe key -> candidate helper node keys.
        k: helpers needed per stripe.

    Returns:
        stripe -> list of k chosen helper nodes, or ``None`` if the
        demand cannot be fully met (the matching is not "maximum with
        k * |stripes| edges" in the paper's phrasing).
    """
    stripes = list(stripe_helpers)
    nodes = sorted({h for helpers in stripe_helpers.values() for h in helpers})
    node_index = {node: i for i, node in enumerate(nodes)}
    # Vertex ids: 0 = source, 1..S = stripes, S+1..S+N = nodes, last = sink.
    S, N = len(stripes), len(nodes)
    source, sink = 0, S + N + 1
    flow = DinicMaxFlow(S + N + 2)
    stripe_edges: Dict[Hashable, List[Tuple[int, Hashable]]] = {}
    for si, stripe in enumerate(stripes):
        flow.add_edge(source, 1 + si, k)
        edges = []
        for helper in stripe_helpers[stripe]:
            eid = flow.add_edge(1 + si, 1 + S + node_index[helper], 1)
            edges.append((eid, helper))
        stripe_edges[stripe] = edges
    for ni in range(N):
        flow.add_edge(1 + S + ni, sink, 1)
    total = flow.max_flow(source, sink)
    if total != k * S:
        return None
    assignment: Dict[Hashable, List[Hashable]] = {}
    for stripe in stripes:
        chosen = [h for eid, h in stripe_edges[stripe] if flow.edge_flow(eid) > 0]
        assignment[stripe] = chosen
    return assignment


# ----------------------------------------------------------------------
# Incremental Kuhn matcher (Algorithm 1's MATCH workhorse)
# ----------------------------------------------------------------------


class IncrementalStripeMatcher:
    """Augmenting-path matcher that grows one stripe at a time.

    Algorithm 1 repeatedly asks "can R ∪ {Ci} still be matched?".
    Rebuilding a flow network per query is wasteful; instead we keep a
    matching and try to augment it with the ``k`` new chunk slots of the
    candidate stripe, rolling back on failure.

    Node keys are arbitrary hashables (cluster node ids).
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        #: helper nodes visited by this matcher's searches (the
        #: reachability pre-check and the augmenting DFSs): its work
        self.steps = 0
        #: slot id -> candidate helper nodes
        self._slot_candidates: List[Tuple[Hashable, List[Hashable]]] = []
        #: node -> slot id it is matched to
        self._match_of_node: Dict[Hashable, int] = {}
        #: slot id -> node (parallel to _slot_candidates)
        self._match_of_slot: List[Hashable] = []
        #: stripes currently matched, in insertion order
        self._stripes: List[Hashable] = []
        self._slots_of_stripe: Dict[Hashable, List[int]] = {}
        #: node -> its bit in the masks of :meth:`_reaches_free`
        self._bit: Dict[Hashable, int] = {}
        #: matched node -> mask of the nodes it reaches; rebuilt after
        #: the matching changes (None until then)
        self._closure: Optional[Dict[Hashable, int]] = None
        #: mask of the matched nodes, built with ``_closure``
        self._matched = 0

    @property
    def stripes(self) -> List[Hashable]:
        """Stripes currently in the matching."""
        return list(self._stripes)

    def clone(self) -> "IncrementalStripeMatcher":
        """Cheap deep-enough copy (candidate lists are shared, state is not)."""
        twin = IncrementalStripeMatcher(self.k)
        twin._slot_candidates = list(self._slot_candidates)
        twin._match_of_node = dict(self._match_of_node)
        twin._match_of_slot = list(self._match_of_slot)
        twin._stripes = list(self._stripes)
        twin._slots_of_stripe = {s: list(v) for s, v in self._slots_of_stripe.items()}
        twin._bit = self._bit
        twin._closure = self._closure
        twin._matched = self._matched
        return twin

    def __len__(self) -> int:
        return len(self._stripes)

    def try_add(self, stripe: Hashable, helpers: Sequence[Hashable]) -> bool:
        """Try to add a stripe needing ``k`` distinct nodes from ``helpers``.

        Returns True (and keeps the stripe) if the enlarged matching
        still saturates every chunk slot; otherwise restores the
        previous matching exactly and returns False.
        """
        return self._probe(stripe, helpers, keep=True)

    def would_fit(self, stripe: Hashable, helpers: Sequence[Hashable]) -> bool:
        """Non-mutating feasibility probe (MATCH without commitment)."""
        return self._probe(stripe, helpers, keep=False)

    def assignment(self) -> Dict[Hashable, List[Hashable]]:
        """Current stripe -> chosen helper nodes mapping."""
        result: Dict[Hashable, List[Hashable]] = {}
        for stripe, slots in self._slots_of_stripe.items():
            result[stripe] = [self._match_of_slot[s] for s in slots]
        return result

    def _probe(
        self, stripe: Hashable, helpers: Sequence[Hashable], keep: bool
    ) -> bool:
        """Add the stripe's ``k`` slots; keep them only if ``keep`` and
        every slot was matched.

        Rollback uses an undo trail of the augmenting paths' individual
        reassignments rather than snapshotting the whole matching —
        Algorithm 1 calls this in a tight loop, and copying O(M) state
        per probe dominates its running time otherwise.
        """
        if stripe in self._slots_of_stripe:
            raise ValueError(f"stripe {stripe!r} already in matching")
        helpers = list(dict.fromkeys(helpers))  # dedupe, keep order
        if len(helpers) < self.k or not self._reaches_free(helpers):
            return False
        trail: List[tuple] = []
        base = len(self._slot_candidates)
        new_slots = range(base, base + self.k)
        for _ in new_slots:
            self._slot_candidates.append((stripe, helpers))
            self._match_of_slot.append(None)
        ok = True
        for slot in new_slots:
            visited: set = set()
            found = self._augment(slot, visited, trail)
            self.steps += len(visited)
            if not found:
                ok = False
                break
        if ok and keep:
            self._stripes.append(stripe)
            self._slots_of_stripe[stripe] = list(new_slots)
            self._closure = None
            return True
        for node, prev_slot in reversed(trail):
            if prev_slot is None:
                del self._match_of_node[node]
            else:
                self._match_of_node[node] = prev_slot
                self._match_of_slot[prev_slot] = node
        del self._slot_candidates[base:]
        del self._match_of_slot[base:]
        return ok

    def _reaches_free(self, helpers: List[Hashable]) -> bool:
        """Whether ``k`` unmatched nodes are reachable from ``helpers``.

        A matching that also saturates the new stripe's ``k`` slots
        differs from the current one by ``k`` disjoint augmenting paths,
        each ending at a distinct unmatched node that an alternating
        path reaches from ``helpers``.  Fewer than ``k`` such nodes
        means :meth:`_probe` would fail, so it skips its DFSs.

        Every slot of a stripe shares one candidate list, so an
        alternating path that enters a matched stripe can leave through
        any of its candidates: what a matched node reaches is the
        closure of its stripe, a bit mask computed once per matching.
        """
        if self._closure is None:
            self._build_closures()
        bit = self._bit
        closure = self._closure
        reached = 0
        for node in helpers:
            mask = bit.get(node)
            if mask is None:
                mask = bit[node] = 1 << len(bit)
            reached |= mask | closure.get(node, 0)
        self.steps += len(helpers)
        # bin().count rather than int.bit_count, which needs Python 3.10
        return bin(reached & ~self._matched).count("1") >= self.k

    def _build_closures(self) -> None:
        """Map each matched node to the mask of every node its stripe
        reaches by alternating paths (:meth:`_reaches_free`)."""
        bit = self._bit
        stripe_of = {
            node: self._slot_candidates[slot][0]
            for node, slot in self._match_of_node.items()
        }
        direct: Dict[Hashable, int] = {}
        successors: Dict[Hashable, set] = {}
        for stripe, slots in self._slots_of_stripe.items():
            candidates = self._slot_candidates[slots[0]][1]
            mask = 0
            for node in candidates:
                if node not in bit:
                    bit[node] = 1 << len(bit)
                mask |= bit[node]
            direct[stripe] = mask
            successors[stripe] = {
                stripe_of[n] for n in candidates if n in stripe_of
            }
            self.steps += len(candidates)
        closure_of: Dict[Hashable, int] = {}
        for stripe in direct:
            seen = {stripe}
            stack = [stripe]
            mask = 0
            while stack:
                current = stack.pop()
                mask |= direct[current]
                for successor in successors[current] - seen:
                    seen.add(successor)
                    stack.append(successor)
            closure_of[stripe] = mask
        matched = 0
        for node in stripe_of:
            matched |= bit[node]
        self._matched = matched
        self._closure = {
            node: closure_of[stripe] for node, stripe in stripe_of.items()
        }

    def _augment(self, slot: int, visited: set, trail: list) -> bool:
        """Kuhn's DFS: find an augmenting path for ``slot``.

        Every (node -> slot) reassignment is appended to ``trail`` as
        ``(node, previous_slot)`` so :meth:`_probe` can undo exactly
        what its augmenting paths changed.
        """
        _, candidates = self._slot_candidates[slot]
        for node in candidates:
            if node in visited:
                continue
            visited.add(node)
            holder = self._match_of_node.get(node)
            if holder is None or self._augment(holder, visited, trail):
                trail.append((node, holder))
                self._match_of_node[node] = slot
                self._match_of_slot[slot] = node
                return True
        return False


def match_one_per_target(
    candidates: Dict[Hashable, Sequence[Hashable]]
) -> Optional[Dict[Hashable, Hashable]]:
    """Match each key to one distinct value (Fig. 4(c) placement).

    Args:
        candidates: key (stripe being repaired) -> eligible nodes.

    Returns:
        key -> node with all nodes distinct, or None if no perfect
        matching over the keys exists.
    """
    keys = list(candidates)
    values = sorted({v for vs in candidates.values() for v in vs})
    value_index = {v: i for i, v in enumerate(values)}
    adjacency = [
        [value_index[v] for v in candidates[key]] for key in keys
    ]
    size, match_left, _ = hopcroft_karp(adjacency, len(values))
    if size != len(keys):
        return None
    return {key: values[match_left[i]] for i, key in enumerate(keys)}
