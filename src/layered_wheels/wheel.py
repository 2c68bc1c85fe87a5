"""Deterministic construction of finite layered-wheel prefixes.

A prefix consists of layers L_1..L_t.  Each layer induces a directed cycle;
every vertex carries an upward neighborhood (a clique with at most one
vertex per earlier layer) and, once the next layer exists, a path of
descendants there.  All arcs are implicit: layer cycles, parent pointers
and upward neighborhoods fully determine the graph.

Vertices are addressed either by global index (construction order) or by
``(layer, position)`` pairs; positions follow the directed cycle and
position 0 of layer i+1 is the first descendant of position 0 of layer i.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import compress, repeat

from .functions import parse_f_spec

DEFAULT_SIZE_CAP = 200_000

# vertex records, names or arc tails in one piece of a streamed export
PIECE = 4096


class SizeCapError(RuntimeError):
    """The next layer would push the prefix past the vertex budget."""


class UnknownVertexError(ValueError):
    """A (layer, pos) location or global id outside the prefix."""


# "000 001 ... 999", the last three digits of every number of a block
_TAILS = " ".join(["%03d" % x for x in range(1000)])


def digit_text(top):
    """The text "0 1 2 ... top", the position strings of an export joined
    by spaces, from which ``positions`` cuts them.

    Every x >= 1000 prints as ``str(x // 1000)`` followed by ``x % 1000``
    zero-padded to three digits, so the numbers 1000 L .. 1000 L + 999
    are the block ``lead + _TAILS.replace(" ", " " + lead)``, with lead =
    ``str(L)``.  The text is the numbers 0 .. min(top, 999) joined once,
    then the blocks for L = 1 .. top // 1000 in order, the last made
    from ``_TAILS`` cut after the tail of ``top`` (each tail takes three
    characters and a space), all joined by single spaces: the plain
    join, byte for byte.  No list of ``top`` strings is ever held, only
    about top / 1000 blocks of at most about 7 KB each."""
    head, last = divmod(top, 1000)
    pieces = [" ".join(map(str, range(min(top, 999) + 1)))]
    for k in range(1, head + 1):
        tails = _TAILS if k < head else _TAILS[:4 * last + 3]
        lead = str(k)
        pieces.append(lead + tails.replace(" ", " " + lead))
    return " ".join(pieces)


def _digit_offset(x):
    # where x starts in digit_text: each of the 10^k - 10^(k-1) numbers
    # of k < d digits takes k + 1 characters
    d = len(str(x))
    return (d + 1) * x - (10 ** d - 10) // 9


def positions(text, a, b):
    """``list(map(str, range(a, b)))`` for 0 <= a <= b <= top + 1, cut
    from ``digit_text(top)`` by one slice and one split."""
    if a == b:
        return []
    return text[_digit_offset(a):_digit_offset(b) - 1].split(" ")


def _check_size_cap(layer, n, size_cap):
    if n > size_cap:
        raise SizeCapError("layer %d would bring the prefix to %d vertices "
                           "(cap %d)" % (layer, n, size_cap))


# what indexing, unpacking and parsing a malformed JSON prefix can raise
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def _field_error(where, field, exc):
    """A ValueError naming the JSON field that is missing or malformed."""
    if isinstance(exc, KeyError):
        return ValueError("%s has no field %s" % (where, exc))
    return ValueError("%s field %r: %s" % (where, field, exc))


class WheelPrefix:
    """Layers L_1..L_t of a layered wheel for a slow function f and ell >= 4.

    A prefix holds its layer sizes (with ``offsets``, the global id of
    each layer's position 0), ``up[g]``, the global ids of g's upward
    neighborhood as a tuple sorted by layer (the empty ones share the
    ``()`` singleton), and ``parent[g]``, the unique neighbor of g in the
    previous layer or -1.  Everything else is implicit.  Every ``up``
    entry is a tuple, never a list: a list never equals a tuple, so
    ``canonical_violation`` would find a mixed record unlike the
    construction, and tuples of ints leave the garbage collector's lists
    where lists would stay.  The cycle arc out of a vertex goes to the
    next position of its layer, the last position wrapping to 0.  The
    descendant path of v runs from v's first child to the vertex before
    the first child of the next vertex of v's layer; the last vertex's
    path runs to the end of the layer.

    Two indexes are taken off the record on first use: the layer of each
    id, behind ``layer_of``, ``loc`` and ``adjacent``, and the ids with a
    parent sorted by parent, behind ``children``.  Only ``_extend`` resets
    them, so a record edited in place after either was read answers from
    the stale index.  No command edits a record in place.
    """

    def __init__(self, ell, f):
        if ell < 4:
            raise ValueError("ell must be >= 4, got %d" % ell)
        self.ell = ell
        self.f = f
        self.layer_sizes = []
        self.offsets = []          # offsets[i] = global id of (i+1, 0)
        self.up = []
        self.parent = []
        self._layer = None         # _layer[g] = layer of g (built on use)
        self._kids = None          # ids with a parent, by parent (on use)

    # -- indexing ---------------------------------------------------------

    @property
    def num_layers(self):
        return len(self.layer_sizes)

    @property
    def n_vertices(self):
        return len(self.up)

    def vid(self, layer, pos):
        if not (1 <= layer <= len(self.layer_sizes)
                and 0 <= pos < self.layer_sizes[layer - 1]):
            raise UnknownVertexError("no vertex %r in the prefix"
                                     % ((layer, pos),))
        return self.offsets[layer - 1] + pos

    def loc(self, g):
        layer = self.layer_of(g)
        return (layer, g - self.offsets[layer - 1])

    def layer_of(self, g):
        if not 0 <= g < self.n_vertices:
            raise UnknownVertexError("no vertex with id %r in the prefix"
                                     % (g,))
        return self._layers()[g]

    def _layers(self):
        """The cached flat list: entry g is the layer of vertex g."""
        if self._layer is None:
            self._layer = [layer
                           for layer, size in enumerate(self.layer_sizes, 1)
                           for _ in range(size)]
        return self._layer

    def layer_range(self, layer):
        start = self.offsets[layer - 1]
        return range(start, start + self.layer_sizes[layer - 1])

    def children(self, g):
        """The neighbors of g whose parent is g, in position order, read
        off the record: an index of the ids that have a parent, by parent,
        and ``adjacent``.  The index is taken on the first call and kept, so
        a ``parent`` entry reassigned in place after it is not seen."""
        by_parent = self.parent.__getitem__
        if self._kids is None:
            self._kids = sorted(compress(range(self.n_vertices),
                                         map((-1).__lt__, self.parent)),
                                key=by_parent)
        lo = bisect_left(self._kids, g, key=by_parent)
        hi = bisect_right(self._kids, g, lo, key=by_parent)
        return [u for u in self._kids[lo:hi] if self.adjacent(g, u)]

    # -- graph views ------------------------------------------------------

    def adjacency(self):
        """Undirected adjacency as a new list of sets, the caller's to keep;
        the prefix stores none, so an edited record is never stale.  Of the
        commands, only ``verify``'s hole check builds it, once per run and
        only when G[L_1] holds no 4-hole and the one layer peel of
        ``structure.shortest_hole_up_to`` stalls, which it does on no built
        prefix; every other check and demo reads the record."""
        adj = [set() for _ in range(self.n_vertices)]
        for start, size in zip(self.offsets, self.layer_sizes):
            last = start + size - 1
            for g in range(start, last):
                adj[g].add(g + 1)
                adj[g + 1].add(g)
            adj[last].add(start)
            adj[start].add(last)
        for v in range(self.n_vertices):
            for w in self.up[v]:
                adj[v].add(w)
                adj[w].add(v)
        return adj

    def edges(self):
        """Every edge as a pair of global ids, read from the layer cycles
        and the upward lists without building the adjacency.  In a record
        that passes rule 5 and whose layers hold >= 3 vertices each, every
        edge comes once, as (smaller id, larger id); otherwise a pair may
        repeat or come reversed."""
        for start, size in zip(self.offsets, self.layer_sizes):
            last = start + size - 1
            for g in range(start, last):
                yield g, g + 1
            yield start, last
        for v, ups in enumerate(self.up):
            for w in ups:
                yield w, v

    def adjacent(self, u, w):
        """``w in adjacency()[u]``, read off the record without building
        the adjacency: one of u and w lists the other in ``up``, or they
        are neighbors on their layer cycle."""
        if w in self.up[u] or u in self.up[w]:
            return True
        layer = self._layers()
        if layer[u] != layer[w]:
            return False
        size = self.layer_sizes[layer[u] - 1]
        return (u - w) % size in (1, size - 1)

    # -- construction -----------------------------------------------------

    def _extend(self, size_cap):
        """Grow layer i+1 under the top layer i.  A vertex v whose up list
        is full, f(i+1)-1 long, gets f(i+1)-1 blocks, each dropping one
        entry; any other v gets one block.  A block is ell-2 vertices: the
        first has parent v and up list v's (less the dropped entry) plus v,
        the ell-3 after it neither.

        The layer size is counted from the up list lengths, and the cap
        checked, before any list grows.  Then the lists grow by ell-2
        entries per block, empty tuples and -1s, and the block-first up
        tuples and their owners go in by one extended-slice assignment
        each, at stride ell-2.  No up list is checked against f(i+1)-1:
        only construction writes them, f(i)-1 long at most, and f(i) <=
        f(i+1) for every slow f."""
        i = self.num_layers
        full = self.f(i + 1) - 1
        ell = self.ell
        top = self.layer_range(i)
        up, parent = self.up, self.parent
        top_ups = up[top.start:top.stop]
        lens = list(map(len, top_ups))
        new_size = (len(lens) + lens.count(full) * (full - 1)) * (ell - 2)
        _check_size_cap(i + 1, self.n_vertices + new_size, size_cap)

        firsts, owners = [], []
        for v, upv in zip(top, top_ups):
            if len(upv) < full:
                firsts.append(upv + (v,))
                owners.append(v)
            else:
                for j in range(full):
                    firsts.append(upv[:j] + upv[j + 1:] + (v,))
                owners += [v] * full
        base = self.n_vertices
        self.offsets.append(base)
        self.layer_sizes.append(new_size)
        up += repeat((), new_size)
        up[base::ell - 2] = firsts
        parent += repeat(-1, new_size)
        parent[base::ell - 2] = owners
        self._layer = self._kids = None

    # -- serialization ----------------------------------------------------

    def to_json(self):
        """The prefix as one line of JSON: the join of ``json_pieces``."""
        return "".join(self.json_pieces())

    def json_pieces(self):
        """The prefix as one line of JSON, in the layout ``json.dumps``
        gives the object with fields ell, f_spec, num_layers, layers and
        vertices: one {layer, pos, parent, up} record per vertex in id
        order, each other vertex named by its [layer, pos] pair.

        Yields the text in pieces of at most ``PIECE`` records.  Only the
        vertices of earlier layers get a name: parents and upward
        neighbors lie there in a built prefix (rules 3 to 5), so the last
        layer is never named.  A record that refers to its own or a later
        layer raises IndexError.

        A piece is one join of a list in three strides: the layer's
        constant record head, the position strings of the piece, and the
        record tails.  The position strings are cut by ``positions``
        from one ``digit_text`` of the largest layer's size, made once per
        export, not converted one int at a time.  The same
        strings give the piece's names, by one join and one split; the
        names are kept back until the whole layer is written.  The tails
        start as the constant tail of a record with neither a parent nor
        an upward neighbor; only the other records are formatted one by
        one.

        ``lwheel build`` writes the pieces as they come, so it never holds
        the whole text.  The export is lossless: ``from_json`` reads it
        back to a prefix whose export is the same text."""
        yield ('{"ell": %d, "f_spec": %s, "num_layers": %d, "layers": [%s], '
               '"vertices": ['
               % (self.ell, json.dumps(self.f.descriptor), self.num_layers,
                  ", ".join(map(str, self.layer_sizes))))
        up, parent = self.up, self.parent
        n = self.n_vertices
        digits = digit_text(max(self.layer_sizes))
        names = []                 # names[g] = "[layer, pos]" of g
        name = names.__getitem__
        for layer, (start, size) in enumerate(
                zip(self.offsets, self.layer_sizes), 1):
            head = '{"layer": %d, "pos": ' % layer
            pre = "[%d, " % layer
            own = []               # this layer's names, kept out of names
            for a in range(start, start + size, PIECE):
                b = min(a + PIECE, start + size)
                k = b - a
                pos = positions(digits, a - start, b - start)
                ups, ps = up[a:b], parent[a:b]
                tails = [', "parent": null, "up": []}, '] * k
                rows = compress(range(k), ups)
                owned = list(compress(ps, ups))
                if len(owned) - owned.count(-1) != k - ps.count(-1):
                    # a parent with no upward neighbor, which no built
                    # prefix has: every record with either is formatted
                    rows = [j for j in range(k) if ups[j] or ps[j] >= 0]
                for j in rows:
                    p = ps[j]
                    tails[j] = ', "parent": %s, "up": [%s]}, ' % (
                        names[p] if p >= 0 else "null",
                        ", ".join(map(name, ups[j])))
                if b == n:         # no separator after the last record
                    tails[-1] = tails[-1][:-2]
                parts = [head, None, None] * k
                parts[1::3] = pos
                parts[2::3] = tails
                yield "".join(parts)
                if layer < self.num_layers:
                    own += (pre + ("]\n" + pre).join(pos) + "]").split("\n")
            names += own
        yield "]}"

    @classmethod
    def from_json_obj(cls, obj):
        """Parse the object that ``json.loads`` makes of ``to_json``.

        A missing field, a wrongly shaped entry, a non-integer ell, layer,
        pos or coordinate, an ``up`` that is not a list, a layer size that
        is not a positive integer, an empty layer list or a num_layers that
        disagrees with it raises ValueError naming the field.
        """
        field = "f_spec"
        try:
            f = parse_f_spec(obj[field])
            field = "ell"
            if type(obj[field]) is not int:
                raise ValueError("not an integer: %s" % json.dumps(obj[field]))
            prefix = cls(obj[field], f)
            field = "layers"
            sizes = list(obj[field])
            for size in sizes:
                if type(size) is not int or size < 1:
                    raise ValueError("not a positive integer: %s"
                                     % json.dumps(size))
            if not sizes:
                raise ValueError("a prefix has at least one layer")
            field = "num_layers"
            if obj[field] != len(sizes):
                raise ValueError("%s, but the file holds %d layers"
                                 % (json.dumps(obj[field]), len(sizes)))
            field = "vertices"
            vertices = obj[field]
            n = len(vertices)
        except _MALFORMED as exc:
            raise _field_error("prefix", field, exc) from None
        offsets = []
        off = 0
        for size in sizes:
            offsets.append(off)
            off += size
        if n != off:
            raise ValueError("vertex list does not match layer sizes")
        prefix.layer_sizes = sizes
        prefix.offsets = offsets

        def vertex_id(entry):
            # a [layer, pos] pair of the file, bounds checked by vid
            layer, pos = entry
            if type(layer) is not int or type(pos) is not int:
                raise ValueError("not an integer coordinate: %s"
                                 % json.dumps(entry))
            return prefix.vid(layer, pos)

        up = []
        parent = [-1] * n
        records = iter(vertices)
        g = 0
        for layer, size in enumerate(sizes, 1):
            # zip stops on the exhausted range before taking a record, so
            # the next layer starts at the next record
            for pos, rec in zip(range(size), records):
                field = "layer"
                try:
                    rec_layer = rec[field]
                    rec_pos = rec["pos"]
                    if type(rec_layer) is not int:
                        raise ValueError("not an integer: %s"
                                         % json.dumps(rec_layer))
                    if type(rec_pos) is not int:
                        field = "pos"
                        raise ValueError("not an integer: %s"
                                         % json.dumps(rec_pos))
                    if rec_layer != layer or rec_pos != pos:
                        raise ValueError("vertices out of order at index %d"
                                         % g)
                    field = "up"
                    ups = rec[field]
                    if type(ups) is not list:
                        raise ValueError("not a list: %s" % json.dumps(ups))
                    up.append(tuple(map(vertex_id, ups)))
                    field = "parent"
                    if rec[field] is not None:
                        parent[g] = vertex_id(rec[field])
                except _MALFORMED as exc:
                    raise _field_error("vertex %d" % g, field, exc) from None
                g += 1
        prefix.up = up
        prefix.parent = parent
        return prefix

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))


def build_prefix(ell, f, t, size_cap=DEFAULT_SIZE_CAP):
    """Deterministically build the t-layer prefix of the (f, ell)-wheel.
    A layer, the first included, that would bring the prefix past
    ``size_cap`` vertices raises SizeCapError before it is built."""
    if t < 1:
        raise ValueError("t must be >= 1, got %d" % t)
    prefix = WheelPrefix(ell, f)
    _check_size_cap(1, ell, size_cap)
    # layer 1 is the directed cycle of length ell, with no upward neighbors
    prefix.layer_sizes = [ell]
    prefix.offsets = [0]
    prefix.up = [()] * ell
    prefix.parent = [-1] * ell
    for _ in range(t - 1):
        prefix._extend(size_cap)
    return prefix


def read_export(text):
    """The prefix whose JSON export the text is exactly, ``to_json`` with
    or without a final newline, or None.

    Only the header, the text before the vertex list, is parsed; its ell,
    f_spec and num_layers give ``build_prefix(ell, f, t)``, and the export
    is compared with the text piece by piece, stopping at the first piece
    that differs.  The build's cap is the default cap or the text's
    length, the larger: no prefix has more vertices than its export has
    bytes, so an export built past the default cap is still recognised,
    and a short text's header cannot ask for more than the default cap.
    A header that does not build, and one whose build is not the text,
    give None, and the build is dropped.  A text that is the export is
    that prefix, which proves ``verify``'s canonical check with no list
    compared."""
    head, sep, _ = text.partition(', "vertices": [')
    if not sep:
        return None
    try:
        obj = json.loads(head + "}")
        prefix = build_prefix(obj["ell"], parse_f_spec(obj["f_spec"]),
                              obj["num_layers"],
                              size_cap=max(DEFAULT_SIZE_CAP, len(text)))
    except _MALFORMED + (SizeCapError,):
        return None
    at = 0
    for piece in prefix.json_pieces():
        if not text.startswith(piece, at):
            return None
        at += len(piece)
    return prefix if text[at:] in ("", "\n") else None


def canonical_violation(prefix):
    """None when the record is ``build_prefix(ell, f, t)`` for its own ell,
    f and t, else the first difference, naming the vertex as (layer, pos)
    and the field.

    The construction grows one layer at a time, as ``build_prefix`` grows
    it, and each layer is compared with the record's in turn: first its
    size, then its up lists and parents as list slices.  A layer whose
    size differs is named at the first position only one side holds; a
    layer that would take the construction past the record's size or the
    default cap, the larger, counts as one.  Only a layer whose lists
    differ is scanned vertex by vertex.
    """
    ell, f, t = prefix.ell, prefix.f, prefix.num_layers
    up, parent = prefix.up, prefix.parent
    cap = max(prefix.n_vertices, DEFAULT_SIZE_CAP)
    name = "build_prefix(%d, %s, %d)" % (ell, f.descriptor, t)

    def where(p, g):
        return p.loc(g) if g >= 0 else None
    ref = None
    for layer, size in enumerate(prefix.layer_sizes, 1):
        try:
            if ref is None:
                ref = build_prefix(ell, f, 1, size_cap=cap)
            else:
                ref._extend(cap)
        except SizeCapError:
            return "vertex %s: layer %d holds %d vertices, where the " \
                   "layer of %s passes %d" % ((layer, size), layer, size,
                                              name, cap)
        ref_size = ref.layer_sizes[layer - 1]
        if ref_size != size:
            return "vertex %s: layer %d holds %d vertices, where %s has " \
                   "%d" % ((layer, min(size, ref_size)), layer, size, name,
                           ref_size)
        lo = ref.offsets[layer - 1]
        hi = lo + ref_size
        if up[lo:hi] == ref.up[lo:hi] and parent[lo:hi] == ref.parent[lo:hi]:
            continue
        for g in range(lo, hi):
            if up[g] != ref.up[g]:
                return "vertex %s: up %s, where %s has %s" % (
                    ref.loc(g), [where(prefix, w) for w in up[g]], name,
                    [where(ref, w) for w in ref.up[g]])
            if parent[g] != ref.parent[g]:
                return "vertex %s: parent %s, where %s has %s" % (
                    ref.loc(g), where(prefix, parent[g]), name,
                    where(ref, ref.parent[g]))
    return None


# -- rule verification ----------------------------------------------------

def verify_rules(prefix):
    """Check the five structural rules of the construction on the prefix
    record: its layer sizes, upward neighborhoods and parents.

    The layer cycles are implicit, so every other arc is an upward entry
    w -> v.  Rules 2 to 4 read the ``up`` lists in one pass, and rule 5
    reads them too, pair by pair (``upward_violation``).  Rule 5's pair
    test and the neighbor count of a vertex that fails rule 4 are read
    off the record by ``adjacent``.
    Failures never raise, also when the layer sizes sum past the vertex
    count; the result is the object ``lwheel verify`` writes as
    ``checks.rules``:
    {"passed": ..., "rules": [{"rule", "name", "passed", "detail"}, ...]}
    in rule order, each detail the first violation found or "".
    """
    n = prefix.n_vertices
    sizes = prefix.layer_sizes
    layer = prefix._layers()
    up = prefix.up

    rules = []

    def add(rule, name, violation):
        rules.append({"rule": rule, "name": name, "passed": violation is None,
                      "detail": violation or ""})

    # rule 1: layers partition the vertex set
    v1 = None
    if sum(sizes) != n:
        v1 = "layer sizes sum to %d, have %d vertices" % (sum(sizes), n)
    add(1, "layers partition V", v1)

    # the cycle arcs stay in their layer, so every chord (rule 2), every
    # downward arc (rule 3) and every edge between consecutive layers
    # (rule 4) is an upward entry w -> v; the cycle arc into v comes from
    # the vertex one position before it.  prev[u] is u's one neighbor in
    # the previous layer, -1 while none is found, and -2 once a second,
    # distinct one is.
    chords = [[] for _ in range(len(sizes) + 1)]
    downward = None
    prev = [-1] * n
    for i, size in enumerate(sizes, 1):
        span = prefix.layer_range(i)
        for v in compress(span, up[span.start:span.stop]):
            for w in up[v]:
                lw = layer[w]
                if lw < i - 1:
                    continue
                if lw == i - 1:
                    u, x = v, w
                elif lw == i:
                    if (v - w) % size != 1:
                        chords[i].append((w, v))
                    continue
                else:
                    if downward is None:
                        downward = (w, v)
                    if lw > i + 1:
                        continue
                    u, x = w, v
                if prev[u] == -1:
                    prev[u] = x
                elif prev[u] != x:
                    prev[u] = -2

    # rule 2: each layer induces a directed cycle of length >= ell; a chord
    # is an entry from v's own layer other than v's cycle predecessor
    v2 = None
    for i, size in enumerate(sizes, 1):
        if size < prefix.ell:
            v2 = "layer %d has %d < ell vertices" % (i, size)
            break
        if chords[i]:
            u, v = min(chords[i])
            v2 = "layer %d has chord %s -> %s" % (
                i, prefix.loc(u), prefix.loc(v))
            break
    add(2, "layers induce directed cycles", v2)

    # rule 3: cross-layer arcs point from the smaller layer to the larger
    v3 = None
    if downward is not None:
        v3 = "arc %s -> %s goes downward in layers" % (
            prefix.loc(downward[0]), prefix.loc(downward[1]))
    add(3, "cross arcs oriented by layer", v3)

    # rule 4: unique parent; descendant paths tile the next layer, so every
    # vertex below the top layer has a child
    add(4, "descendant paths tile the next layer",
        _parent_violation(prefix, prev) or _tiling_violation(prefix))

    # rule 5: upward neighborhoods are small cliques, one vertex per layer
    add(5, "upward neighborhoods are per-layer cliques",
        upward_violation(prefix))

    return {"passed": all(r["passed"] for r in rules), "rules": rules}


def _parent_violation(prefix, prev):
    """The first vertex in id order whose recorded parent is not ``prev``,
    its one neighbor in the previous layer (-1 for none, and -2, which no
    parent is, for two or more).  A -2 vertex's neighbor count is read off
    the record, once per vertex of the previous layer."""
    parent = prefix.parent
    if prev == parent:
        return None
    loc = prefix.loc
    u = next(g for g, (got, rec) in enumerate(zip(prev, parent))
             if got != rec)
    if prev[u] == -2:
        count = sum(map(prefix.adjacent, repeat(u),
                        prefix.layer_range(prefix._layers()[u] - 1)))
        return "vertex %s has %d neighbors in the previous layer" % (
            loc(u), count)
    return "vertex %s: recorded parent %s but adjacency gives %s" % (
        loc(u), loc(parent[u]) if parent[u] >= 0 else None,
        loc(prev[u]) if prev[u] >= 0 else None)


def _tiling_violation(prefix):
    """The first break in the descendant paths, for parents that
    ``_parent_violation`` accepted.  Along layer i+1, the parents that are
    set must start with (i, 0) at position 0, then each repeat the one
    before or step to the next vertex of layer i, and end on its last
    vertex.  This holds exactly when the descendant paths tile layer i+1,
    one path per vertex of layer i, each starting at a child.  Layer
    positions past the last record, which rule 1 names, are not walked."""
    parent = prefix.parent
    loc = prefix.loc
    for i in range(1, prefix.num_layers):
        cur = prefix.offsets[i - 1]
        below = prefix.layer_range(i + 1)
        if below.start >= len(parent):
            break
        if parent[below.start] != cur:
            return "vertex %s is not a child of %s" % (
                loc(below.start), loc(cur))
        for u, p in zip(below, parent[below.start:below.stop]):
            if p == cur + 1:
                cur = p
            elif p >= 0 and p != cur:
                return "vertex %s has parent %s but follows a child of %s" % (
                    loc(u), loc(p), loc(cur))
        if cur != below.start - 1:
            return "vertex %s has no child" % (loc(cur + 1),)
    return None


def upward_violation(prefix):
    """Rule 5: the first vertex whose upward neighborhood is too large,
    repeats a layer, reaches a later layer or is not a clique, or None.

    A pass proves every one-per-layer transversal chordal: the layer
    cycles stay inside their layers, so in a transversal a vertex's
    neighbours in earlier layers lie in its up list, which is a clique,
    and the descending-layer order is a perfect elimination order.

    The clique test reads the ``up`` lists alone: once an up list's
    entries are known to lie in distinct layers, two of them are adjacent
    exactly when one lists the other."""
    loc = prefix.loc
    layer = prefix._layers()
    up = prefix.up
    for i in range(1, prefix.num_layers + 1):
        most = prefix.f(i) - 1
        span = prefix.layer_range(i)
        # an empty up list breaks nothing (f >= 1), so only the others run
        for v in compress(span, up[span.start:span.stop]):
            upv = up[v]
            if len(upv) > most:
                return "vertex %s has %d > f(%d)-1 upward neighbors" % (
                    loc(v), len(upv), i)
            seen = set()
            for w in upv:
                if layer[w] >= i or layer[w] in seen:
                    return "vertex %s: upward neighbor %s repeats a layer " \
                           "or is not above" % (loc(v), loc(w))
                seen.add(layer[w])
            for a, w in enumerate(upv):
                for x in upv[a + 1:]:
                    if w not in up[x] and x not in up[w]:
                        return "vertex %s: upward neighbors %s and %s are " \
                               "not adjacent" % (loc(v), loc(w), loc(x))
    return None
