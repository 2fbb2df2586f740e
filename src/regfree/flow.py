"""Max-flow on integer capacities by shortest augmenting paths on
distance labels (Ahuja & Orlin 1991).

Capacities are Python ints (arbitrary precision), so min cuts computed here
are exact — the densest-subgraph iteration relies on that.  add_edge takes
nothing else: a capacity or node id that is not exactly an int is refused.

max_flow keeps a label d[v] for every node, a lower bound on the length of
a shortest residual path from v to t; one reverse BFS from t makes the
labels exact.  A walk from s advances on admissible arcs, those with
residual capacity whose head is labelled one less than their tail, and
augments when it reaches t.  A node with no admissible arc is relabelled
to one more than the least label over its residual arcs, and the walk
retreats one arc.  No residual arc ever leads more than one label down, so
a label no node holds any more (the gap rule) separates s from t, as does
d[s] >= n; either ends the search.  Local relabels let labels fall behind
the true distances, so after every n relabels one more reverse BFS makes
them exact again and the walk restarts from s (Cherkassky & Goldberg
1997).

The residual capacities depend on the order of the augmenting paths, but
the set of nodes reachable from s after any maximum flow does not: it is
the source side of the minimal minimum cut, which min_cut_source_side
finds with one forward BFS.
"""

from __future__ import annotations


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
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def _levels(self, root: int, into: bool = False) -> list[int]:
        """BFS distance from root over arcs with residual capacity, or with
        into the distance to root; -1 where there is no such path."""
        head, to, cap = self.head, self.to, self.cap
        flip = 1 if into else 0  # arc a ^ 1 runs from to[a] into a's tail
        level = [-1] * self.n
        level[root] = 0
        frontier = [root]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for a in head[u]:
                    v = to[a]
                    if level[v] < 0 and cap[a ^ flip] > 0:
                        level[v] = d
                        nxt.append(v)
            frontier = nxt
        return level

    def max_flow(self, s: int, t: int) -> int:
        """Shortest augmenting paths on distance-to-t labels, with the gap
        rule and a global relabel after every n relabels.  Each node's
        current-arc pointer only advances past an arc that is not
        admissible, and goes back to its first arc when the node is
        relabelled."""
        self._check_ids(s, t)
        if s == t:
            raise ValueError(f"source and sink are the same node {s}")
        n, head, to, cap = self.n, self.head, self.to, self.cap
        flow = 0
        while True:  # one pass per global relabel
            d = [x if x >= 0 else n for x in self._levels(t, into=True)]
            if d[s] == n:
                return flow
            count = [0] * (n + 1)  # nodes per label
            for x in d:
                count[x] += 1
            it = [0] * n
            path: list[int] = []  # arcs from s to u
            u = s
            relabels = 0
            while relabels < n:
                if u == t:
                    caps = [cap[a] for a in path]
                    delta = min(caps)
                    for a in path:
                        cap[a] -= delta
                        cap[a ^ 1] += delta
                    flow += delta
                    k = caps.index(delta)  # the first saturated arc
                    u = to[path[k] ^ 1]
                    del path[k:]
                    continue
                arcs, want = head[u], d[u] - 1
                for i in range(it[u], len(arcs)):
                    a = arcs[i]
                    if cap[a] > 0 and d[to[a]] == want:
                        it[u] = i
                        path.append(a)
                        u = to[a]
                        break
                else:  # relabel u, then retreat one arc
                    low = n
                    for a in arcs:
                        if cap[a] > 0 and d[to[a]] < low:
                            low = d[to[a]]
                    old = d[u]
                    count[old] -= 1
                    if count[old] == 0:
                        return flow  # gap: no label above old reaches t
                    new = d[u] = min(low + 1, n)
                    count[new] += 1
                    it[u] = 0
                    relabels += 1
                    if path:
                        u = to[path.pop() ^ 1]
                    elif new == n:
                        return flow

    def min_cut_source_side(self, s: int) -> list[int]:
        """After max_flow: nodes reachable from s in the residual network,
        in increasing order."""
        self._check_ids(s)
        return [v for v, x in enumerate(self._levels(s)) if x >= 0]
