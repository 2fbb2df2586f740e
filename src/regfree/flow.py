"""Dinic max-flow on integer capacities.

Capacities are Python ints (arbitrary precision), so min cuts computed here
are exact — the densest-subgraph iteration relies on that.  add_edge takes
nothing else: a capacity or node id that is not exactly an int is refused.

Each phase makes one BFS pass.  While it labels the nodes it also records,
for every node it processes, that node's level-graph arcs in head order:
the arcs with residual capacity whose head sits one level further out.  It
stops once every node nearer than t is processed, since no shortest s-t
path uses a node further out.  The phase's blocking flow then walks only
those arcs and checks residual capacity alone: no arc gains capacity
towards a further level during a phase, so a recorded arc that still has
capacity is still a level arc.  After an augmentation the walk resumes at
the tail of the first saturated arc; a walk restarted from s would retrace
exactly the arcs before it, so every augmenting path, phase and residual
capacity is the one a restart from s gives.

The last BFS of max_flow, the one that finds t unreachable, runs to the end
and labels exactly the source side of the minimal minimum cut, so
min_cut_source_side reuses it for the same source until add_edge changes
the network.
"""

from __future__ import annotations


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]  # node -> arc ids
        self.to: list[int] = []
        self.cap: list[int] = []
        # (s, levels) of max_flow's last BFS, while it is still the residual
        # network's
        self._cut: tuple[int, list[int]] | None = None

    def _check_ids(self, *ids: int) -> None:
        bad = [x for x in ids if not 0 <= x < self.n]
        if bad:
            raise ValueError(
                f"node ids {bad} out of range for a network of {self.n} nodes"
            )

    def add_edge(self, u: int, v: int, cap: int, rcap: int = 0) -> None:
        # exact type: a float, bool or Fraction would make the cut inexact
        if not (type(u) is type(v) is type(cap) is type(rcap) is int):
            for what, x in (("node id", u), ("node id", v),
                            ("capacity", cap), ("capacity", rcap)):
                if type(x) is not int:
                    raise ValueError(f"{what} {x!r} is not an int")
        if not (0 <= u < self.n and 0 <= v < self.n):
            self._check_ids(u, v)
        if cap < 0 or rcap < 0:
            raise ValueError("negative capacity")
        self._cut = None
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def _levels(
        self, s: int, t: int | None = None
    ) -> tuple[list[int], list[list[int]]]:
        """BFS distance from s over arcs with residual capacity (-1 if not
        labelled), and each processed node's level-graph arcs in head order.
        Given t, stops once every node nearer than t is processed."""
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        arcs: list = [()] * self.n
        level[s] = 0
        frontier = [s]
        d = 0
        while frontier and (t is None or level[t] < 0):
            d += 1
            nxt = []
            for u in frontier:
                out = []
                for a in head[u]:
                    if cap[a] > 0:
                        v = to[a]
                        lv = level[v]
                        if lv < 0:
                            level[v] = d
                            nxt.append(v)
                            out.append(a)
                        elif lv == d:
                            out.append(a)
                arcs[u] = out
            frontier = nxt
        return level, arcs

    def max_flow(self, s: int, t: int) -> int:
        """Dinic: per BFS phase, walk augmenting paths from s along the
        phase's level arcs.  Each node's current-arc pointer only advances
        past an arc that is saturated or led to a dead end, so arcs are
        tried in head order."""
        self._check_ids(s, t)
        if s == t:
            raise ValueError(f"source and sink are the same node {s}")
        to, cap = self.to, self.cap
        self._cut = None
        flow = 0
        while True:
            level, arcs = self._levels(s, t)
            if level[t] < 0:
                self._cut = (s, level)
                return flow
            it = [0] * self.n
            path: list[int] = []  # arcs from s to u
            u = s
            while True:
                if u == t:
                    caps = [cap[a] for a in path]
                    d = min(caps)
                    for a in path:
                        cap[a] -= d
                        cap[a ^ 1] += d
                    flow += d
                    k = caps.index(d)  # the first saturated arc
                    u = to[path[k] ^ 1]
                    del path[k:]
                    continue
                out, i = arcs[u], it[u]
                while i < len(out) and not cap[out[i]] > 0:
                    i += 1
                it[u] = i
                if i < len(out):
                    a = out[i]
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
        if self._cut is not None and self._cut[0] == s:
            level = self._cut[1]
        else:
            level = self._levels(s)[0]
        return [v for v, d in enumerate(level) if d >= 0]
