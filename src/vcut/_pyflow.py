"""Pure-Python Dinic solver; semantic twin of the compiled vcut._core.

Both backends expose `solve(num_nodes, tails, heads, caps, s, t, limit)` and
return `(value, reach, completed)`:

- `value` is the max-flow value, or `limit` if augmentation stopped early,
- `reach` is the residual source-reachable node mask (bytes; only when
  completed, else None),
- `completed` says whether a maximum flow was actually reached.

The reach mask is the source side of the minimum cut closest to the source,
which is unique for a given network, so the two backends agree bit for bit.
An early stop `(limit, None, False)` happens exactly when the max flow is at
least `limit`.

Build once, solve many: the residual structure (arc targets, base
capacities, per-node arc-id lists) of the last network passed as three
tuples is kept in a one-entry memo keyed on the identity of those tuples.
The memo holds strong references to them, so an id cannot be reused while
the entry lives, and tuples cannot change, so a repeat solve on the same
network costs one copy of the capacity array.  Every single-pair network of
`vcut.maxflow` is passed as tuples; networks passed as lists (its
multi-terminal copies with bypass arcs) are built afresh on every call and
never memoized.

Each phase's breadth-first search stops once the frontier holding t is
labelled; the search that fails to reach t is complete and its labels are
the returned reach mask.

A malformed network raises ValueError, as the compiled core does: s == t,
a terminal or an arc end outside [0, num_nodes), arrays of different
lengths, or a negative capacity.  The arrays are checked when the memo
misses, so a repeat solve costs no check.
"""

from __future__ import annotations

BACKEND_NAME = "python"

# (num_nodes, tails, heads, caps, to, base, adj) of the last tuple network.
_memo = None


def _build(num_nodes, tails, heads, caps):
    """Arc 2i runs tails[i] -> heads[i] with capacity caps[i]; arc 2i+1 is
    its reverse.  adj[u] lists the ids of the arcs leaving u.  ValueError
    when the arrays differ in length, an arc end lies outside [0,
    num_nodes) or a capacity is negative."""
    if not len(tails) == len(heads) == len(caps):
        raise ValueError("tails, heads and caps differ in length")
    if tails and not (0 <= min(tails) and max(tails) < num_nodes
                      and 0 <= min(heads) and max(heads) < num_nodes):
        raise ValueError(f"an arc end is outside [0, {num_nodes})")
    if caps and min(caps) < 0:
        raise ValueError("a capacity is negative")
    num_slots = 2 * len(tails)
    to = [0] * num_slots
    to[0::2] = heads
    to[1::2] = tails
    base = [0] * num_slots
    base[0::2] = caps
    adj = [[] for _ in range(num_nodes)]
    a = 0
    for u in tails:
        adj[u].append(a)
        a += 2
    a = 1
    for v in heads:
        adj[v].append(a)
        a += 2
    return to, base, adj


def _levels(num_nodes, adj, to, cap, s, t):
    """Residual BFS levels from s (-1 when unreached).  Stops after the
    frontier that labels t; with t None it runs to completion."""
    level = [-1] * num_nodes
    level[s] = 0
    frontier = [s]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for e in adj[u]:
                if cap[e] > 0:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = depth
                        nxt.append(v)
        if t is not None and level[t] >= 0:
            break
        frontier = nxt
    return level


def solve(num_nodes, tails, heads, caps, s, t, limit):
    global _memo
    if not (0 <= s < num_nodes and 0 <= t < num_nodes) or s == t:
        raise ValueError(f"terminals s = {s}, t = {t} on {num_nodes} nodes")
    memo = _memo
    if (
        memo is not None
        and memo[1] is tails
        and memo[2] is heads
        and memo[3] is caps
        and memo[0] == num_nodes
    ):
        to, base, adj = memo[4], memo[5], memo[6]
    else:
        to, base, adj = _build(num_nodes, tails, heads, caps)
        if isinstance(tails, tuple) and isinstance(heads, tuple) and isinstance(caps, tuple):
            _memo = (num_nodes, tails, heads, caps, to, base, adj)
    cap = base[:]

    flow = 0
    capped = limit is not None
    while not capped or flow < limit:
        level = _levels(num_nodes, adj, to, cap, s, t)
        if level[t] < 0:
            break
        it = [0] * num_nodes

        # Blocking flow: repeated DFS walks with current-arc pointers.
        path = []  # arc ids from s to the current node
        u = s
        while True:
            if u == t:
                pushed = min([cap[e] for e in path])
                if capped and flow + pushed > limit:
                    pushed = limit - flow
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                flow += pushed
                if capped and flow >= limit:
                    return limit, None, False
                # Retreat to just before the first saturated arc.
                cut_at = 0
                while cap[path[cut_at]] > 0:
                    cut_at += 1
                del path[cut_at:]
                u = to[path[-1]] if path else s
                continue
            arcs = adj[u]
            i = it[u]
            end = len(arcs)
            want = level[u] + 1
            while i < end:
                e = arcs[i]
                if cap[e] > 0 and level[to[e]] == want:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(e)
                u = to[e]
            else:
                level[u] = -1
                if not path:
                    break
                path.pop()
                u = to[path[-1]] if path else s
                it[u] += 1
    else:
        # Only reached when limit <= 0: no augmentation was allowed.
        level = _levels(num_nodes, adj, to, cap, s, None)

    return flow, bytes([lv >= 0 for lv in level]), True
