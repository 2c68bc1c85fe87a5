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
from dataclasses import dataclass, field

from .functions import parse_f_spec

DEFAULT_SIZE_CAP = 200_000

# vertex records, names or arc tails in one piece of a streamed export
PIECE = 4096


class ConstructionError(RuntimeError):
    """Internal consistency failure while extending a prefix."""


class SizeCapError(RuntimeError):
    """The next layer would push the prefix past the vertex budget."""


class UnknownVertexError(ValueError):
    """A (layer, pos) location or global id outside the prefix."""


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
    neighborhood as a tuple sorted by layer, and ``parent[g]``, the unique
    neighbor of g in the previous layer or -1.  Everything else is
    implicit.  Every ``up`` entry is a tuple, never a list: a list never
    equals a tuple, so ``canonical_violation`` would find a mixed record
    unlike the construction, and tuples of ints leave the garbage
    collector's lists where lists would stay.  The cycle arc out of a
    vertex goes to the next position of its layer, the last position
    wrapping to 0.  The descendant path of v runs from v's first child to
    the vertex before the first child of the next vertex of v's layer;
    the last vertex's path runs to the end of the layer.
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
        self._adj = None
        self._layer = None         # _layer[g] = layer of g (built on use)

    # -- indexing ---------------------------------------------------------

    @property
    def num_layers(self):
        return len(self.layer_sizes)

    @property
    def n_vertices(self):
        return len(self.up)

    def vid(self, layer, pos):
        if not (1 <= layer <= self.num_layers
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
        """The vertices whose parent is g, in position order."""
        kids = [u for u in self.adjacency()[g] if self.parent[u] == g]
        kids.sort()
        return kids

    # -- graph views ------------------------------------------------------

    def adjacency(self):
        """Undirected adjacency as a list of sets (cached)."""
        if self._adj is None:
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
            self._adj = adj
        return self._adj

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

    # -- construction -----------------------------------------------------

    def _extend(self, size_cap):
        i = self.num_layers
        fi1 = self.f(i + 1)
        ell = self.ell
        top = list(self.layer_range(i))

        widths = []
        for v in top:
            m = len(self.up[v])
            if m > fi1 - 1:
                raise ConstructionError(
                    "vertex %s has %d upward neighbors but f(%d)-1 = %d"
                    % (self.loc(v), m, i + 1, fi1 - 1))
            widths.append((fi1 - 1) * (ell - 2) if m == fi1 - 1 else ell - 2)

        new_size = sum(widths)
        _check_size_cap(i + 1, self.n_vertices + new_size, size_cap)

        self.offsets.append(self.n_vertices)
        self.layer_sizes.append(new_size)
        up, parent = self.up, self.parent
        # the ell - 3 vertices after each block's first share the empty tuple
        pad_up, pad_parent = ((),) * (ell - 3), (-1,) * (ell - 3)
        for v, n_v in zip(top, widths):
            upv = up[v]
            if n_v == ell - 2 and len(upv) < fi1 - 1:
                blocks = [upv + (v,)]
            else:
                blocks = [upv[:j] + upv[j + 1:] + (v,)
                          for j in range(len(upv))]
            for first_up in blocks:
                up.append(first_up)
                parent.append(v)
                up += pad_up
                parent += pad_parent
        self._adj = None
        self._layer = None

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
        layer raises IndexError."""
        yield ('{"ell": %d, "f_spec": %s, "num_layers": %d, "layers": [%s], '
               '"vertices": ['
               % (self.ell, json.dumps(self.f.descriptor), self.num_layers,
                  ", ".join(map(str, self.layer_sizes))))
        up, parent = self.up, self.parent
        names = []                 # names[g] = "[layer, pos]" of g
        sep = ""
        for layer, (start, size) in enumerate(
                zip(self.offsets, self.layer_sizes), 1):
            record = '{"layer": %d, "pos": %%d, "parent": %%s, "up": [%%s]}' \
                % layer
            # most records have neither a parent nor an upward neighbor
            empty = '{"layer": %d, "pos": %%d, "parent": null, "up": []}' \
                % layer
            for a in range(start, start + size, PIECE):
                b = min(a + PIECE, start + size)
                yield sep + ", ".join([
                    empty % pos if p < 0 and not ups else
                    record % (pos, names[p] if p >= 0 else "null",
                              ", ".join([names[w] for w in ups]))
                    for pos, p, ups in zip(range(a - start, b - start),
                                           parent[a:b], up[a:b])])
                sep = ", "
            if layer < self.num_layers:
                names += ["[%d, %d]" % (layer, pos) for pos in range(size)]
        yield "]}"

    @classmethod
    def from_json_obj(cls, obj):
        """Parse the object that ``json.loads`` makes of ``to_json``.

        A missing field, a wrongly shaped entry, a non-integer ell, layer,
        pos or coordinate, a layer size that is not a positive integer, an
        empty layer list or a num_layers that disagrees with it raises
        ValueError naming the field.
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
        t = len(sizes)

        def vertex_id(entry):
            # the bounds check of vid, on a [layer, pos] pair of the file
            layer, pos = entry
            if type(layer) is not int or type(pos) is not int:
                raise ValueError("not an integer coordinate: %s"
                                 % json.dumps(entry))
            if not (1 <= layer <= t and 0 <= pos < sizes[layer - 1]):
                raise UnknownVertexError("no vertex %r in the prefix"
                                         % ((layer, pos),))
            return offsets[layer - 1] + pos

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
                    up.append(tuple(map(vertex_id, rec[field])))
                    field = "parent"
                    if rec[field] is not None:
                        parent[g] = vertex_id(rec[field])
                except _MALFORMED as exc:
                    raise _field_error("vertex %d" % g, field, exc) from None
                g += 1
        prefix.layer_sizes = sizes
        prefix.offsets = offsets
        prefix.up = up
        prefix.parent = parent
        return prefix

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))


def build_prefix(ell, f, t, size_cap=DEFAULT_SIZE_CAP):
    """Deterministically build the t-layer prefix of the (f, ell)-wheel."""
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


def canonical_violation(prefix):
    """None when the record is ``build_prefix(ell, f, t)`` for its own ell,
    f and t, else the first difference, naming the vertex as (layer, pos)
    and the field.

    The construction grows one layer at a time, as ``build_prefix`` grows
    it, and each layer is compared with the record's as soon as it is
    built: first its size, then its up lists and parents as list slices.
    A layer whose size differs is named at the first position only one
    side holds; a layer that would take the construction past the
    record's size or the default cap, the larger, counts as one.  Only a
    layer whose lists differ is scanned vertex by vertex.
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
            return "vertex %s: layer %d holds %d vertices, where the layer " \
                   "of %s passes %d" % ((layer, size), layer, size, name, cap)
        ref_size = ref.layer_sizes[-1]
        if ref_size != size:
            return "vertex %s: layer %d holds %d vertices, where %s has " \
                   "%d" % ((layer, min(size, ref_size)), layer, size, name,
                           ref_size)
        lo, hi = ref.offsets[-1], ref.n_vertices
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

@dataclass
class RuleCheck:
    rule: int
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RulesReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, rule):
        return next(c for c in self.checks if c.rule == rule)

    def to_dict(self):
        return {
            "passed": self.passed,
            "rules": [
                {"rule": c.rule, "name": c.name, "passed": c.passed,
                 "detail": c.detail}
                for c in self.checks
            ],
        }


def verify_rules(prefix):
    """Check the five structural rules of the construction on the prefix
    record: its layer sizes, upward neighborhoods and parents.

    The layer cycles are implicit, so every other arc is an upward entry
    w -> v.  Rules 4 and 5 read the cached ``prefix.adjacency()``, which
    the later checks of ``lwheel verify`` reuse.  Failures never raise;
    each rule gets a pass/fail entry with the first violation found.
    """
    n = prefix.n_vertices
    sizes = prefix.layer_sizes
    layer = prefix._layers()
    adj = prefix.adjacency()

    report = RulesReport()

    def add(rule, name, violation):
        report.checks.append(RuleCheck(rule, name, violation is None,
                                       violation or ""))

    # rule 1: layers partition the vertex set
    v1 = None
    if sum(sizes) != n:
        v1 = "layer sizes sum to %d, have %d vertices" % (sum(sizes), n)
    add(1, "layers partition V", v1)

    # the cycle arcs stay in their layer, so every chord (rule 2) and
    # every downward arc (rule 3) is an upward entry w -> v; the cycle arc
    # into v comes from the vertex one position before it
    chords = [[] for _ in range(len(sizes) + 1)]
    downward = None
    for v in range(n):
        for w in prefix.up[v]:
            if layer[w] > layer[v]:
                if downward is None:
                    downward = (w, v)
            elif layer[w] == layer[v] and (v - w) % sizes[layer[v] - 1] != 1:
                chords[layer[v]].append((w, v))

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
        _parent_violation(prefix, layer, adj) or _tiling_violation(prefix))

    # rule 5: upward neighborhoods are small cliques, one vertex per layer
    add(5, "upward neighborhoods are per-layer cliques",
        upward_violation(prefix))

    return report


def _parent_violation(prefix, layer, adj):
    """The first vertex whose recorded parent is not its one neighbor in
    the previous layer (or -1 when it has none)."""
    loc = prefix.loc
    for u in range(prefix.n_vertices):
        prev = [w for w in adj[u] if layer[w] == layer[u] - 1]
        if len(prev) > 1:
            return "vertex %s has %d neighbors in the previous layer" % (
                loc(u), len(prev))
        rec_parent = prefix.parent[u] if prefix.parent[u] >= 0 else None
        got = prev[0] if prev else None
        if rec_parent != got:
            return "vertex %s: recorded parent %s but adjacency gives %s" % (
                loc(u), loc(rec_parent) if rec_parent is not None else None,
                loc(got) if got is not None else None)
    return None


def _tiling_violation(prefix):
    """The first break in the descendant paths, for parents that
    ``_parent_violation`` accepted.  Along layer i+1, the parents that are
    set must start with (i, 0) at position 0, then each repeat the one
    before or step to the next vertex of layer i, and end on its last
    vertex.  This holds exactly when the descendant paths tile layer i+1,
    one path per vertex of layer i, each starting at a child."""
    parent = prefix.parent
    loc = prefix.loc
    for i in range(1, prefix.num_layers):
        cur = prefix.offsets[i - 1]
        below = prefix.layer_range(i + 1)
        if parent[below.start] != cur:
            return "vertex %s is not a child of %s" % (
                loc(below.start), loc(cur))
        for u in below:
            p = parent[u]
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
    and the descending-layer order is a perfect elimination order."""
    loc = prefix.loc
    layer = prefix._layers()
    adj = prefix.adjacency()
    for i in range(1, prefix.num_layers + 1):
        most = prefix.f(i) - 1
        for v in prefix.layer_range(i):
            upv = prefix.up[v]
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
                    if x not in adj[w]:
                        return "vertex %s: upward neighbors %s and %s are " \
                               "not adjacent" % (loc(v), loc(w), loc(x))
    return None
