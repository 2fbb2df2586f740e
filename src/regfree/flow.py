"""Dinic max-flow on integer capacities.

Capacities are Python ints (arbitrary precision), so min cuts computed here
are exact — the densest-subgraph iteration relies on that.
"""

from __future__ import annotations

from collections import deque


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]  # node -> arc ids
        self.to: list[int] = []
        self.cap: list[int] = []

    def _check_ids(self, *ids: int) -> None:
        bad = [x for x in ids if not 0 <= x < self.n]
        if bad:
            raise ValueError(
                f"node ids {bad} out of range for a network of {self.n} nodes"
            )

    def add_edge(self, u: int, v: int, cap: int, rcap: int = 0) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            self._check_ids(u, v)
        if cap < 0 or rcap < 0:
            raise ValueError("negative capacity")
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def _levels(self, s: int) -> list[int]:
        """BFS distance from s over arcs with residual capacity; -1 if
        unreachable."""
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.head[u]:
                v = self.to[a]
                if self.cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level

    def max_flow(self, s: int, t: int) -> int:
        """Dinic: per BFS phase, walk augmenting paths from s along level
        arcs.  Each node's current-arc pointer only advances past an arc
        that led to a dead end, so arcs are tried in head order."""
        self._check_ids(s, t)
        if s == t:
            raise ValueError(f"source and sink are the same node {s}")
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            path: list[int] = []  # arcs from s to u
            u = s
            while True:
                if u == t:
                    d = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= d
                        cap[a ^ 1] += d
                    flow += d
                    path.clear()
                    u = s
                    continue
                arcs, i = head[u], it[u]
                while i < len(arcs):
                    a = arcs[i]
                    if cap[a] > 0 and level[to[a]] == level[u] + 1:
                        break
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(a)
                    u = to[a]
                elif path:  # dead end: retreat one arc
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break

    def min_cut_source_side(self, s: int) -> list[int]:
        """After max_flow: nodes reachable from s in the residual network,
        in increasing order."""
        self._check_ids(s)
        return [v for v, d in enumerate(self._levels(s)) if d >= 0]
