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
import os
from dataclasses import dataclass, field

from .functions import SlowFunction, parse_f_spec

DEFAULT_SIZE_CAP = 200_000


def default_size_cap():
    env = os.environ.get("LWHEEL_SIZE_CAP")
    return int(env) if env else DEFAULT_SIZE_CAP


class ConstructionError(RuntimeError):
    """Internal consistency failure while extending a prefix."""


class SizeCapError(RuntimeError):
    """The next layer would push the prefix past the vertex budget."""


class UnknownVertexError(ValueError):
    """A (layer, pos) location or global id outside the prefix."""


# what indexing, unpacking and parsing a malformed JSON prefix can raise
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def _field_error(where, field, exc):
    """A ValueError naming the JSON field that is missing or malformed."""
    if isinstance(exc, KeyError):
        return ValueError("%s has no field %s" % (where, exc))
    return ValueError("%s field %r: %s" % (where, field, exc))


@dataclass
class VertexRecord:
    """Read-only view of one vertex, addressed by (layer, position)."""

    id: tuple
    parent: tuple | None
    up_neighbors: list
    children_span: tuple | None   # (start position in layer+1, count)
    n_children: int


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
        if self._layer is None:
            self._layer = [layer
                           for layer, size in enumerate(self.layer_sizes, 1)
                           for _ in range(size)]
        return self._layer[g]

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

    def record(self, v):
        """VertexRecord for a (layer, pos) pair."""
        g = self.vid(*v)
        sp = self.span[g]
        return VertexRecord(
            id=v,
            parent=self.loc(self.parent[g]) if self.parent[g] >= 0 else None,
            up_neighbors=[self.loc(w) for w in self.up[g]],
            children_span=(self.loc(sp[0])[1], sp[1]) if sp else None,
            n_children=sp[1] if sp else 0,
        )

    # -- graph views ------------------------------------------------------

    def arcs(self):
        """The directed arc set: layer cycles plus upward arcs w -> v."""
        out = set()
        for layer in range(1, self.num_layers + 1):
            for g in self.layer_range(layer):
                out.add((g, self.cycle_next(g)))
        for v in range(self.n_vertices):
            for w in self.up[v]:
                out.add((w, v))
        return out

    def adjacency(self):
        """Undirected adjacency as a list of sets (cached)."""
        if self._adj is None:
            adj = [set() for _ in range(self.n_vertices)]
            for layer in range(1, self.num_layers + 1):
                for g in self.layer_range(layer):
                    h = self.cycle_next(g)
                    adj[g].add(h)
                    adj[h].add(g)
            for v in range(self.n_vertices):
                for w in self.up[v]:
                    adj[v].add(w)
                    adj[w].add(v)
            self._adj = adj
        return self._adj

    def edges(self):
        adj = self.adjacency()
        return [(u, v) for u in range(self.n_vertices) for v in adj[u] if u < v]

    def copy(self):
        other = WheelPrefix(self.ell, self.f)
        other.layer_sizes = list(self.layer_sizes)
        other.offsets = list(self.offsets)
        other.up = [list(u) for u in self.up]
        other.parent = list(self.parent)
        other.span = list(self.span)
        return other

    # -- construction -----------------------------------------------------

    def _append_first_layer(self):
        self.layer_sizes.append(self.ell)
        self.offsets.append(0)
        for _ in range(self.ell):
            self.up.append([])
            self.parent.append(-1)
            self.span.append(None)

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
        if self.n_vertices + new_size > size_cap:
            raise SizeCapError(
                "layer %d would bring the prefix to %d vertices "
                "(cap %d)" % (i + 1, self.n_vertices + new_size, size_cap))

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

    def to_json_obj(self):
        vertices = []
        for g in range(self.n_vertices):
            layer, pos = self.loc(g)
            vertices.append({
                "layer": layer,
                "pos": pos,
                "parent": list(self.loc(self.parent[g]))
                          if self.parent[g] >= 0 else None,
                "up": [list(self.loc(w)) for w in self.up[g]],
            })
        return {
            "ell": self.ell,
            "f_spec": self.f.descriptor,
            "num_layers": self.num_layers,
            "layers": list(self.layer_sizes),
            "vertices": vertices,
        }

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj):
        """Parse the object written by ``to_json_obj``.

        A missing field or a wrongly shaped entry raises ValueError naming
        the field.
        """
        field = "f_spec"
        try:
            f = parse_f_spec(obj[field])
            field = "ell"
            prefix = cls(obj[field], f)
            field = "layers"
            prefix.layer_sizes = [int(s) for s in obj[field]]
            field = "vertices"
            vertices = obj[field]
            n = len(vertices)
        except _MALFORMED as exc:
            raise _field_error("prefix", field, exc) from None
        off = 0
        for s in prefix.layer_sizes:
            prefix.offsets.append(off)
            off += s
        if n != off:
            raise ValueError("vertex list does not match layer sizes")
        prefix.up = [[] for _ in range(off)]
        prefix.parent = [-1] * off
        prefix.span = [None] * off
        for g, rec in enumerate(vertices):
            field = "layer"
            try:
                if prefix.loc(g) != (rec["layer"], rec["pos"]):
                    raise ValueError("vertices out of order at index %d" % g)
                field = "up"
                prefix.up[g] = [prefix.vid(*w) for w in rec[field]]
                field = "parent"
                if rec[field] is not None:
                    prefix.parent[g] = prefix.vid(*rec[field])
            except _MALFORMED as exc:
                raise _field_error("vertex %d" % g, field, exc) from None
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


def build_first_layer(ell, f=None):
    """A one-layer prefix: the directed cycle of length ell."""
    prefix = WheelPrefix(ell, f if f is not None else SlowFunction.identity())
    prefix._append_first_layer()
    return prefix


def extend_layer(prefix, size_cap=None):
    """A new prefix with one more layer appended (the input is not touched)."""
    out = prefix.copy()
    out._extend(size_cap if size_cap is not None else default_size_cap())
    return out


def build_prefix(ell, f, t, size_cap=None):
    """Deterministically build the t-layer prefix of the (f, ell)-wheel."""
    if t < 1:
        raise ValueError("t must be >= 1, got %d" % t)
    cap = size_cap if size_cap is not None else default_size_cap()
    prefix = build_first_layer(ell, f)
    for _ in range(t - 1):
        prefix._extend(cap)
    return prefix


def up_closed_neighborhood(prefix, v):
    """N^up[v] as a set of (layer, pos) pairs; always a clique."""
    g = prefix.vid(*v)
    return {v} | {prefix.loc(w) for w in prefix.up[g]}


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


def verify_rules(prefix, arcs=None):
    """Check the five structural rules of the construction.

    ``arcs`` defaults to the prefix's implicit arc set; passing a mutated
    set lets tests exercise the failure paths.  Failures never raise; each
    rule gets a pass/fail entry with the first violation found.
    """
    if arcs is None:
        arcs = prefix.arcs()
    n = prefix.n_vertices
    t = prefix.num_layers
    layer = [prefix.layer_of(g) for g in range(n)]

    adj = [set() for _ in range(n)]
    for (u, v) in arcs:
        adj[u].add(v)
        adj[v].add(u)

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

    # rule 2: each layer induces a directed cycle of length >= ell
    v2 = None
    within = [set() for _ in range(t + 1)]
    for (u, v) in arcs:
        if layer[u] == layer[v]:
            within[layer[u]].add((u, v))
    for i in range(1, t + 1):
        if v2:
            break
        members = list(prefix.layer_range(i))
        if len(members) < prefix.ell:
            v2 = "layer %d has %d < ell vertices" % (i, len(members))
            break
        expected = {(g, prefix.cycle_next(g)) for g in members}
        missing = expected - within[i]
        extra = within[i] - expected
        if missing:
            u, v = min(missing)
            v2 = "layer %d misses cycle arc %s -> %s" % (
                i, prefix.loc(u), prefix.loc(v))
        elif extra:
            u, v = min(extra)
            v2 = "layer %d has chord %s -> %s" % (
                i, prefix.loc(u), prefix.loc(v))
    add(2, "layers induce directed cycles", v2)

    # rule 3: cross-layer arcs point from the smaller layer to the larger
    v3 = None
    for (u, v) in arcs:
        if layer[u] > layer[v]:
            v3 = "arc %s -> %s goes downward in layers" % (
                prefix.loc(u), prefix.loc(v))
            break
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
