"""Compute kernels: exact clique / independent set search, bounded
chordless-cycle scan, and exact treewidth on tiny graphs.

No command calls ``max_clique``: omega of a prefix, of a target set and
of each neighbourhood the hajebi sampler tests is read off the upward
lists (``structure.clique_number_exact``).  It stays here as the tests'
oracle for that route, and because the command benchmark's trace wraps
it by this name.

All kernels take ``(n, adj)`` where ``adj`` is a sequence indexed by
vertex and ``adj[v]`` is the set of v's neighbours; they read it as it is
and make no copy.  The kernels are plain Python; ``BACKEND`` names the
implementation for run records.
"""

from __future__ import annotations

import heapq

BACKEND = "py"


def _degeneracy_order(n, adj):
    """Vertices in a smallest-last (degeneracy) order, plus the degeneracy.

    Each step removes the smallest id among the vertices of least remaining
    degree.  A vertex enters the min-heap of ids for every degree it takes;
    the pointer d never exceeds the least remaining degree, so an entry left
    at a higher degree surfaces only after its vertex is removed, and is
    then skipped.  O(m log n).
    """
    deg = [len(adj[v]) for v in range(n)]
    removed = [False] * n
    # filled in ascending id order, so every bucket is already a heap
    heaps = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        heaps[deg[v]].append(v)
    order = []
    degeneracy = 0
    d = 0
    for _ in range(n):
        heap = heaps[d]
        while not heap or removed[heap[0]]:
            if heap:
                heapq.heappop(heap)
            else:
                d += 1
                heap = heaps[d]
        v = heapq.heappop(heap)
        degeneracy = max(degeneracy, d)
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                du = deg[u] - 1
                deg[u] = du
                heapq.heappush(heaps[du], u)
                if du < d:
                    d = du
    return order, degeneracy


def _clique_bitset(masks, cand_mask, best_size):
    """Largest clique within cand_mask (bitset Tomita search with greedy
    coloring bound); returns a vertex list, or [] if none beats best_size."""
    best = []

    def color_sort(p):
        order = []
        colors = []
        uncolored = p
        color = 0
        while uncolored:
            color += 1
            q = uncolored
            while q:
                b = q & -q
                v = b.bit_length() - 1
                order.append(v)
                colors.append(color)
                uncolored &= ~b
                q &= ~(masks[v] | b)
        return order, colors

    def expand(r, p):
        nonlocal best
        order, colors = color_sort(p)
        for idx in range(len(order) - 1, -1, -1):
            v = order[idx]
            if len(r) + colors[idx] <= max(len(best), best_size):
                return
            r.append(v)
            p2 = p & masks[v]
            if p2:
                expand(r, p2)
            elif len(r) > max(len(best), best_size):
                best = list(r)
            r.pop()
            p &= ~(1 << v)

    expand([], cand_mask)
    return best


def max_clique(n, adj):
    """An exact maximum clique, as a sorted vertex list.

    Decomposes along a degeneracy order so only tiny local subproblems are
    searched; suitable for large sparse graphs with small cliques.
    """
    if n == 0:
        return []
    order, _ = _degeneracy_order(n, adj)
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    best = [order[0]]
    for v in order:
        cand = [u for u in adj[v] if rank[u] > rank[v]]
        if len(cand) + 1 <= len(best):
            continue
        local = {u: i for i, u in enumerate(cand)}
        masks = [0] * len(cand)
        for u in cand:
            m = 0
            for w in adj[u]:
                if w in local:
                    m |= 1 << local[w]
            masks[local[u]] = m
        sub = _clique_bitset(masks, (1 << len(cand)) - 1, len(best) - 1)
        if len(sub) + 1 > len(best):
            best = [v] + [cand[i] for i in sub]
    return sorted(best)


def max_independent_set(n, adj, floor):
    """An exact maximum independent set (clique in the complement), as a
    sorted vertex list, or [] when no independent set has more than
    ``floor`` vertices; a search that cannot beat the floor is cut off
    early.  Meant for small graphs (a few hundred vertices)."""
    if n <= floor:
        return []
    full = (1 << n) - 1
    masks = [0] * n
    for v in range(n):
        m = 0
        for u in adj[v]:
            m |= 1 << u
        masks[v] = (~(m | (1 << v))) & full
    return sorted(_clique_bitset(masks, full, floor))


def shortest_hole(n, adj, bound):
    """Length of a shortest chordless cycle of length in [4, bound], or None.

    A hole with a vertex of degree >= 3 is found from its smallest such
    vertex s, by a DFS over chordless paths from s through vertices that
    are above s or have degree 2 (so degree-2 vertices take any id on the
    path).  The DFS is pruned by BFS distances from s inside those
    vertices, taken to depth limit // 2: it extends to w only while
    len(path) + dist[w] <= limit, the current length cap.  A hole made
    only of degree-2 vertices is a whole cycle component; one O(n) pass
    finds those, and it runs only while no 4-hole has been found.  The
    depth cap keeps the scan polynomial for fixed bound.
    """
    if bound < 4:
        return None
    deg = [len(a) for a in adj]
    best = None
    limit = bound
    for s in range(n):
        if deg[s] < 3:
            continue
        # dist[w]: BFS distance from s through allowed vertices; a vertex
        # of a hole of length <= limit lies within limit // 2 of s
        dist = {s: 0}
        frontier = [s]
        for d in range(1, limit // 2 + 1):
            reached = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist and (w > s or deg[w] == 2):
                        dist[w] = d
                        reached.append(w)
            frontier = reached
        path = [s]
        on_path = {s}
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                dw = dist.get(w)
                if dw is None or w in on_path or len(path) + dw > limit:
                    continue
                nb = adj[w]
                if len(path) > 1:
                    # chord against any internal path vertex (not the tip)
                    if any(x in nb for x in path[1:-1]):
                        continue
                    if s in nb:
                        # w closes a cycle of len(path) + 1 <= limit
                        # vertices; extending past w would leave a chord
                        if len(path) >= 3:
                            best = len(path) + 1
                            if best == 4:
                                return best
                            limit = best - 1
                        continue
                path.append(w)
                on_path.add(w)
                stack.append(iter(nb))
                break
            else:
                stack.pop()
                on_path.discard(path.pop())
    # holes whose vertices all have degree 2: whole cycle components
    seen = bytearray(n)
    for v in range(n):
        if deg[v] != 2 or seen[v]:
            continue
        seen[v] = 1
        length = 1
        prev, cur = v, next(iter(adj[v]))
        while cur != v and deg[cur] == 2 and not seen[cur]:
            seen[cur] = 1
            length += 1
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        if cur == v and 4 <= length <= limit:
            best = length
            limit = best - 1
    return best


def _treewidth_decide(n, masks, k, memo_failed):
    """Can the graph be fully eliminated with fill-degree <= k at each step?"""
    full = (1 << n) - 1

    def rec(remaining, cur):
        cnt = bin(remaining).count("1")
        if cnt <= k + 1:
            return True
        if remaining in memo_failed:
            return False
        live = remaining
        # safe reductions: simplicial vertices of degree <= k, and (for
        # k >= 2) the series rule for vertices of degree <= 2
        while live:
            b = live & -live
            v = b.bit_length() - 1
            live &= ~b
            nbv = cur[v] & remaining
            d = bin(nbv).count("1")
            if d > k:
                continue
            if d <= 2 and k >= 2:
                if d == 2:
                    lo = nbv & -nbv
                    u1 = lo.bit_length() - 1
                    u2 = (nbv & ~lo).bit_length() - 1
                    nxt = list(cur)
                    nxt[u1] |= 1 << u2
                    nxt[u2] |= 1 << u1
                    return rec(remaining & ~b, nxt)
                return rec(remaining & ~b, cur)
            simplicial = True
            m = nbv
            while m:
                bb = m & -m
                u = bb.bit_length() - 1
                m &= ~bb
                if (nbv & ~cur[u]) & ~bb:
                    simplicial = False
                    break
            if simplicial:
                return rec(remaining & ~b, cur)
        cands = []
        live = remaining
        while live:
            b = live & -live
            v = b.bit_length() - 1
            live &= ~b
            nbv = cur[v] & remaining
            d = bin(nbv).count("1")
            if d <= k:
                fill = 0
                m = nbv
                while m:
                    bb = m & -m
                    u = bb.bit_length() - 1
                    m &= ~bb
                    fill += bin(nbv & ~cur[u] & ~bb).count("1")
                cands.append((fill // 2, d, v, nbv))
        cands.sort()
        for _, _, v, nbv in cands:
            nxt = list(cur)
            m = nbv
            while m:
                bb = m & -m
                u = bb.bit_length() - 1
                m &= ~bb
                nxt[u] = cur[u] | (nbv & ~bb)
            if rec(remaining & ~(1 << v), nxt):
                return True
        memo_failed.add(remaining)
        return False

    return rec(full, list(masks))


def treewidth_exact(n, adj):
    """Exact treewidth by search over elimination orderings with memoized
    dead states.  Only for small graphs (n <= 32)."""
    if n > 32:
        raise ValueError("treewidth_exact is limited to 32 vertices, got %d" % n)
    if n == 0:
        return 0
    masks = [0] * n
    for v in range(n):
        for u in adj[v]:
            masks[v] |= 1 << u
    if not any(masks):
        return 0
    _, lb = _degeneracy_order(n, adj)
    for k in range(lb, n):
        if _treewidth_decide(n, masks, k, set()):
            return k
    return n - 1
