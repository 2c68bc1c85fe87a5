"""Deterministic construction of finite layered-wheel prefixes.

A prefix consists of layers L_1..L_t.  Each layer induces a directed cycle;
every vertex carries an upward neighborhood (a clique with at most one
vertex per earlier layer) and, once the next layer exists, a contiguous
span of descendants there.  All arcs are implicit: layer cycles, parent
pointers and upward neighborhoods fully determine the graph.

Vertices are addressed either by global index (construction order) or by
``(layer, position)`` pairs; positions follow the directed cycle and
position 0 of layer i+1 is the first descendant of position 0 of layer i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .functions import parse_f_spec

DEFAULT_SIZE_CAP = 200_000


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

    Internal storage is flat: vertex g lives in layer ``layer_of(g)`` at
    position ``pos_of(g)``; ``up[g]`` holds global ids of the upward
    neighborhood sorted by layer; ``parent[g]`` is the unique neighbor in
    the previous layer or -1; ``span[g]`` is (global start, count) of the
    descendant path in the next layer or None.
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
        self.span = []
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

    def cycle_next(self, g):
        layer = self.layer_of(g)
        start = self.offsets[layer - 1]
        size = self.layer_sizes[layer - 1]
        return start + (g - start + 1) % size

    def children(self, g):
        """Descendants of g in the next layer that are adjacent to g."""
        if self.span[g] is None:
            return []
        start, count = self.span[g]
        return [u for u in range(start, start + count) if self.parent[u] == g]

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
        adj = self.adjacency()
        return [(u, v) for u in range(self.n_vertices) for v in adj[u] if u < v]

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

        start = self.n_vertices
        self.offsets.append(start)
        self.layer_sizes.append(new_size)
        g = start
        for v, n_v in zip(top, widths):
            upv = self.up[v]
            self.span[v] = (g, n_v)
            if n_v == ell - 2 and len(upv) < fi1 - 1:
                blocks = [upv + [v]]
            else:
                blocks = [upv[:j] + upv[j + 1:] + [v]
                          for j in range(len(upv))]
            for first_up in blocks:
                self.up.append(list(first_up))
                self.parent.append(v)
                self.span.append(None)
                g += 1
                for _ in range(ell - 3):
                    self.up.append([])
                    self.parent.append(-1)
                    self.span.append(None)
                    g += 1
        self._adj = None
        self._layer = None

    # -- serialization ----------------------------------------------------

    def to_json(self):
        """The prefix as one line of JSON, in the layout ``json.dumps``
        gives the object with fields ell, f_spec, num_layers, layers and
        vertices: one {layer, pos, parent, up} record per vertex in id
        order, each other vertex named by its [layer, pos] pair."""
        locs = ["[%d, %d]" % (layer, pos)
                for layer, size in enumerate(self.layer_sizes, 1)
                for pos in range(size)]
        records = []
        g = 0
        for layer, size in enumerate(self.layer_sizes, 1):
            for pos in range(size):
                p = self.parent[g]
                records.append(
                    '{"layer": %d, "pos": %d, "parent": %s, "up": [%s]}'
                    % (layer, pos, locs[p] if p >= 0 else "null",
                       ", ".join([locs[w] for w in self.up[g]])))
                g += 1
        return ('{"ell": %d, "f_spec": %s, "num_layers": %d, "layers": [%s], '
                '"vertices": [%s]}'
                % (self.ell, json.dumps(self.f.descriptor), self.num_layers,
                   ", ".join(map(str, self.layer_sizes)),
                   ", ".join(records)))

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
                    ids = []
                    for w in rec[field]:
                        ids.append(vertex_id(w))
                    up.append(ids)
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
        prefix.span = [None] * n
        prefix._recover_spans()
        return prefix

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))

    def _recover_spans(self):
        # spans are contiguous and follow the parent order (rule on descendant
        # paths): each span runs from its parent's first child to the next
        # parent's first child, the last one to the end of the layer
        for layer in range(1, self.num_layers):
            parents = self.layer_range(layer)
            nxt = self.layer_range(layer + 1)
            first = {}
            for u in nxt:
                p = self.parent[u]
                if p in parents and p not in first:
                    first[p] = u
            starts = sorted(first.values())
            for s, end in zip(starts, starts[1:] + [nxt.stop]):
                self.span[self.parent[s]] = (s, end - s)


def build_prefix(ell, f, t, size_cap=DEFAULT_SIZE_CAP):
    """Deterministically build the t-layer prefix of the (f, ell)-wheel."""
    if t < 1:
        raise ValueError("t must be >= 1, got %d" % t)
    prefix = WheelPrefix(ell, f)
    _check_size_cap(1, ell, size_cap)
    # layer 1 is the directed cycle of length ell, with no upward neighbors
    prefix.layer_sizes = [ell]
    prefix.offsets = [0]
    prefix.up = [[] for _ in range(ell)]
    prefix.parent = [-1] * ell
    prefix.span = [None] * ell
    for _ in range(t - 1):
        prefix._extend(size_cap)
    return prefix


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
    t = prefix.num_layers
    layer = prefix._layers()
    adj = prefix.adjacency()

    report = RulesReport()

    def add(rule, name, violation):
        report.checks.append(RuleCheck(rule, name, violation is None,
                                       violation or ""))

    # rule 1: layers partition the vertex set
    v1 = None
    if sum(prefix.layer_sizes) != n:
        v1 = "layer sizes sum to %d, have %d vertices" % (
            sum(prefix.layer_sizes), n)
    add(1, "layers partition V", v1)

    # the cycle arcs stay in their layer, so every chord (rule 2) and
    # every downward arc (rule 3) is an upward entry w -> v
    chords = [[] for _ in range(t + 1)]
    downward = None
    for v in range(n):
        for w in prefix.up[v]:
            if layer[w] > layer[v]:
                if downward is None:
                    downward = (w, v)
            elif layer[w] == layer[v] and prefix.cycle_next(w) != v:
                chords[layer[v]].append((w, v))

    # rule 2: each layer induces a directed cycle of length >= ell; a chord
    # is an entry from v's own layer other than v's cycle predecessor
    v2 = None
    for i, size in enumerate(prefix.layer_sizes, 1):
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

    # rule 4: descendant paths partition the next layer; unique parent;
    # at least one child below the top layer
    v4 = None
    for u in range(n):
        prev = [w for w in adj[u] if layer[w] == layer[u] - 1]
        if len(prev) > 1:
            v4 = "vertex %s has %d neighbors in the previous layer" % (
                prefix.loc(u), len(prev))
            break
        rec_parent = prefix.parent[u] if prefix.parent[u] >= 0 else None
        got = prev[0] if prev else None
        if rec_parent != got:
            v4 = "vertex %s: recorded parent %s but adjacency gives %s" % (
                prefix.loc(u),
                prefix.loc(rec_parent) if rec_parent is not None else None,
                prefix.loc(got) if got is not None else None)
            break
    if v4 is None:
        for i in range(1, t):
            if v4:
                break
            cursor = prefix.offsets[i]  # position 0 of layer i+1
            for v in prefix.layer_range(i):
                sp = prefix.span[v]
                if sp is None or sp[0] != cursor or sp[1] < 1:
                    v4 = "vertex %s: descendant span %s does not tile " \
                         "layer %d" % (prefix.loc(v), sp, i + 1)
                    break
                lo, cnt = sp
                below = {w for w in adj[v] if layer[w] == i + 1}
                if not below:
                    v4 = "vertex %s has no child" % (prefix.loc(v),)
                    break
                if not below <= set(range(lo, lo + cnt)):
                    v4 = "vertex %s has a next-layer neighbor outside its " \
                         "span" % (prefix.loc(v),)
                    break
                if lo not in below:
                    v4 = "vertex %s is not adjacent to the first vertex " \
                         "of its span" % (prefix.loc(v),)
                    break
                cursor = lo + cnt
            if v4 is None and cursor != prefix.offsets[i] + \
                    prefix.layer_sizes[i]:
                v4 = "spans of layer %d do not cover layer %d" % (i, i + 1)
    add(4, "descendant paths tile the next layer", v4)

    # rule 5: upward neighborhoods are small cliques, one vertex per layer
    v5 = None
    for v in range(n):
        upv = prefix.up[v]
        if len(upv) > prefix.f(layer[v]) - 1:
            v5 = "vertex %s has %d > f(%d)-1 upward neighbors" % (
                prefix.loc(v), len(upv), layer[v])
            break
        seen = set()
        ok = True
        for w in upv:
            if layer[w] >= layer[v] or layer[w] in seen:
                v5 = "vertex %s: upward neighbor %s repeats a layer or is " \
                     "not above" % (prefix.loc(v), prefix.loc(w))
                ok = False
                break
            seen.add(layer[w])
        if not ok:
            break
        for a in range(len(upv)):
            for b in range(a + 1, len(upv)):
                if upv[b] not in adj[upv[a]]:
                    v5 = "vertex %s: upward neighbors %s and %s are not " \
                         "adjacent" % (prefix.loc(v), prefix.loc(upv[a]),
                                       prefix.loc(upv[b]))
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    add(5, "upward neighborhoods are per-layer cliques", v5)

    return report
