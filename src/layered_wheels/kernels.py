"""Compute kernels: exact clique / independent set search (one bitset
search), the exact bounded hole check (a peel of the vertices no short
hole needs, then a pruned chordless-cycle scan of what is left), and
exact treewidth on tiny graphs.

No command calls ``max_clique``: omega of a prefix and of a target set
is read off the upward lists (``structure.clique_number_exact``), and
the hajebi sampler reads omega of each neighbourhood it tests off
counters on the upward lists (``widths._sample_clique_bounded``).  It
stays here as the tests' oracle for those routes, and because the
command benchmark's trace wraps it by this name.  Likewise ``verify``
answers the hole check of every built prefix from the record, by one
layer peel at limit min(|L_1| - 1, ell) (``structure.shortest_hole_up_to``),
and calls ``shortest_hole`` on the whole graph only where that peel
stalls; the tests hold the route to it on the whole adjacency.

The two bitset searches, ``max_clique`` and ``max_independent_set``,
take ``(n, masks)``: bit u of ``masks[v]`` is set when u and v are
adjacent, and bit v is ignored.  The hole scan and the treewidth solver
take ``(n, adj)``, where ``adj`` is a sequence indexed by vertex and
``adj[v]`` is the set of v's neighbours; they read it as it is and make
no copy.  The kernels are plain Python; ``BACKEND`` names the
implementation for run records.
"""

from __future__ import annotations

BACKEND = "py"


def _clique_bitset(masks, best_size):
    """Largest clique of the whole graph (bitset Tomita search with greedy
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

    expand([], (1 << len(masks)) - 1)
    return best


def max_clique(n, masks):
    """An exact maximum clique, as a sorted vertex list.  Bit u of
    ``masks[v]`` is set when u and v are adjacent; bit v of ``masks[v]``
    is ignored.  The bitset search of ``max_independent_set``, run on the
    graph itself; meant for small graphs (a few hundred vertices)."""
    masks = [m & ~(1 << v) for v, m in enumerate(masks)]
    return sorted(_clique_bitset(masks, 0))


def max_independent_set(n, masks, floor):
    """An exact maximum independent set (clique in the complement), as a
    sorted vertex list, or [] when no independent set has more than
    ``floor`` vertices; a search that cannot beat the floor is cut off
    early.  Bit u of ``masks[v]`` is set when u and v are adjacent; bit v
    of ``masks[v]`` is ignored.  Meant for small graphs (a few hundred
    vertices)."""
    if n <= floor:
        return []
    full = (1 << n) - 1
    comp = [~(m | (1 << v)) & full for v, m in enumerate(masks)]
    return sorted(_clique_bitset(comp, floor))


def shortest_hole(n, adj, bound):
    """Length of a shortest chordless cycle of length in [4, bound], or None.

    For bound >= 5 an exact peel (``_peel``) first drops every vertex
    that no hole shorter than bound passes through; the pruned scan
    (``_pruned_scan``) then searches the vertices left for such a hole.
    When it finds none, or at bound 4, every hole left has length exactly
    bound, and a scan of the whole graph at bound stops at its first hit.
    Self-loops are ignored.  On a wheel the peel leaves nothing: the last
    layer's runs go first, then its first children (simplicial on their
    up cliques), and so on up.
    """
    if bound < 4:
        return None
    core = _peel(n, adj, bound - 1) if bound > 4 else []
    if core:
        index = {v: i for i, v in enumerate(core)}
        sub = [{index[u] for u in adj[v] if u in index and u != v}
               for v in core]
        best = _pruned_scan(len(core), sub, bound - 1, 4)
        if best is not None:
            return best
    return _pruned_scan(n, adj, bound, bound)


def _peel(n, adj, limit):
    """Drop vertices, while any qualifies, that no hole of length <=
    limit passes through, and return the ascending list of vertices left.

    Degrees count live neighbours other than the vertex itself.  A vertex
    goes when:

    - its degree is <= 1, or it is simplicial (its live neighbours are
      pairwise adjacent), since a hole passes through neither;
    - it lies on a run, a maximal path of k degree-2 vertices between
      end vertices a and b, and every hole through the run is shorter
      than 4 or longer than limit.  A hole through a run holds all of
      it: if a = b it is the (k+1)-cycle; if a ~ b it is the run plus
      the edge ab, with k + 2 vertices; otherwise it has >= k + 3;
    - it lies on a cycle component of k degree-2 vertices, and k < 4 or
      k > limit.

    A run or cycle that may hold a hole of length <= limit stays.  A
    hole of length <= limit thus keeps all its vertices, and a hole of
    the core (an induced subgraph) is a hole of the graph, so both have
    the same shortest hole of length <= limit.
    """
    deg = [len(a) - (v in a) for v, a in enumerate(adj)]
    alive = bytearray(b"\x01") * n
    queued = bytearray(b"\x01") * n
    # degree-2 vertices first, each group from the last id down: on a
    # wheel the last layer's runs go first and the cascade climbs from it
    queue = [v for v in reversed(range(n)) if deg[v] == 2]
    queue += [v for v in reversed(range(n)) if deg[v] != 2]
    # the loop also visits the vertices appended while it runs
    for v in queue:
        if not queued[v]:
            continue
        queued[v] = 0
        if deg[v] == 2:
            run = [v]
            ends = []
            for nxt in [u for u in adj[v] if alive[u] and u != v]:
                prev, cur = v, nxt
                while cur != v and deg[cur] == 2:
                    run.append(cur)
                    for u in adj[cur]:
                        if u != prev and u != cur and alive[u]:
                            break
                    prev, cur = cur, u
                if cur == v:
                    break
                ends.append(cur)
            k = len(run)
            if not ends:
                hole = k
            elif ends[0] == ends[1]:
                hole = k + 1
            elif ends[1] in adj[ends[0]]:
                hole = k + 2
            else:
                hole = k + 3
            if 4 <= hole <= limit:
                # kept: its vertices come back only when an end changes
                for u in run:
                    queued[u] = 0
                continue
            for u in run:
                alive[u] = 0
                queued[u] = 0
            for a in ends:
                deg[a] -= 1
                if not queued[a]:
                    queued[a] = 1
                    queue.append(a)
            continue
        if deg[v] > 2:
            nb = [u for u in adj[v] if alive[u] and u != v]
            if not all(all(map(adj[u].__contains__, nb[i + 1:]))
                       for i, u in enumerate(nb)):
                continue
        alive[v] = 0
        for u in adj[v]:
            if alive[u]:
                deg[u] -= 1
                if not queued[u]:
                    queued[u] = 1
                    queue.append(u)
    return [v for v in range(n) if alive[v]]


def _pruned_scan(n, adj, limit, floor):
    """Length of a shortest hole of length in [4, limit], or None.  The
    caller knows of no hole shorter than floor (4 assumes nothing), so
    the first hole of length <= floor ends the search.

    A hole with a vertex of degree >= 3 is found from its smallest such
    vertex s, by a DFS over chordless paths from s through vertices that
    are above s or have degree 2 (so degree-2 vertices take any id on the
    path).  The DFS is pruned by BFS distances from s inside those
    vertices, taken to depth limit // 2 or until a round reaches nothing
    new, so a huge limit costs no idle rounds: it extends to w only while
    len(path) + dist[w] <= limit, the current length cap.  A hole made
    only of degree-2 vertices is a whole cycle component; one O(n) pass
    finds those.  The depth cap keeps the scan polynomial for fixed
    limit.
    """
    deg = [len(a) for a in adj]
    best = None
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
            if not reached:
                break
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
                            if best <= floor:
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


def _treewidth_decide(n, masks, k):
    """Can the graph be fully eliminated with fill-degree <= k at each step?"""
    full = (1 << n) - 1
    dead = set()

    def rec(remaining, cur):
        cnt = bin(remaining).count("1")
        if cnt <= k + 1:
            return True
        if remaining in dead:
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
        dead.add(remaining)
        return False

    return rec(full, list(masks))


def treewidth_exact(n, adj):
    """Exact treewidth by search over elimination orderings with memoized
    dead states; k = n-1 always succeeds.  Only for small graphs (n <= 32)."""
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
    # the first vertex eliminated keeps all its neighbours in its bag
    lb = min(bin(m).count("1") for m in masks)
    for k in range(lb, n):
        if _treewidth_decide(n, masks, k):
            return k
