"""Span tracing for the lwheel benchmark, applied from outside the program.

A :class:`Tracer` replaces the public functions of each layer at the names
their callers look them up by (``structure.induced_max_clique``,
``kernels.max_clique``, ``widths.build_prefix``, ``WheelPrefix.from_json``
and so on) with wrappers that record one span per call: name, start, end,
parent span and op id (the index of the ``lwheel`` command being run).
Hot helpers that are only counted (``WheelPrefix.layer_of``) get a plain
counter.  ``uninstall`` puts every original back.  Nothing under ``src/``
is touched.

Layers are the package modules: ``cli``, ``wheel``, ``functions``,
``kernels``, ``structure`` and ``widths``.  A span's self time is its
duration minus the time its direct children cover; a ``*.s`` metric is the
inclusive time of the outermost spans of that name.
"""

from __future__ import annotations

import functools
import gzip
import weakref
from collections import Counter
from time import perf_counter

from layered_wheels import cli, functions, kernels, structure, wheel, widths

DECOMPOSITION = "widths.decomposition_from_separators"


# -- after-call hooks: counts measured where the work happens ---------------

def _after_max_clique(tracer, args, result):
    tracer.counts["kernels.max_clique.n_sum"] += args[0]


def _after_to_json(tracer, args, result):
    tracer.counts["wheel.json_bytes"] += len(result.encode())


def _after_clique_number(tracer, args, result):
    prefix = args[0]
    if prefix not in tracer.clique_prefixes:
        tracer.clique_prefixes.add(prefix)
        tracer.counts["structure.clique_number_exact.prefixes"] += 1


def _after_balanced_separation(tracer, args, result):
    tracer.counts["structure.balanced_separation.iterations"] += \
        result.iterations
    if tracer.inside(DECOMPOSITION):
        tracer.counts["widths.decomposition.separations"] += 1


def _after_decomposition(tracer, args, result):
    tracer.counts["widths.decomposition.bags"] += len(result.bags)
    tracer.counts["widths.decomposition.internal_bags"] += \
        len({parent for parent, _ in result.edges})
    tracer.counts["widths.decomposition.width"] = max(
        tracer.counts["widths.decomposition.width"], result.width)


def _after_sample(tracer, args, result):
    tracer.counts["widths.sample.accepted"] += len(result)
    tracer.counts["widths.sample.offered"] += args[0].n_vertices


# (owner, attribute, span name, after-call hook)
SPANS = [
    (cli, "main", "cli.main", None),
    (cli, "to_dot", "cli.to_dot", None),
    (cli, "build_prefix", "wheel.build_prefix", None),
    (widths, "build_prefix", "wheel.build_prefix", None),
    (cli, "verify_rules", "wheel.verify_rules", None),
    (cli, "parse_f_spec", "functions.parse_f_spec", None),
    (wheel, "parse_f_spec", "functions.parse_f_spec", None),
    (functions, "parse_f_spec", "functions.parse_f_spec", None),
    (functions.SlowFunction, "__call__", "functions.f", None),
    (functions.CumulativeFunction, "__call__", "functions.F", None),
    (wheel.WheelPrefix, "from_json", "wheel.from_json", None),
    (wheel.WheelPrefix, "to_json", "wheel.to_json", _after_to_json),
    (wheel.WheelPrefix, "adjacency", "wheel.adjacency", None),
    (kernels, "max_clique", "kernels.max_clique", _after_max_clique),
    (kernels, "max_independent_set", "kernels.max_independent_set", None),
    (kernels, "shortest_hole", "kernels.shortest_hole", None),
    (kernels, "treewidth_exact", "kernels.treewidth_exact", None),
    (structure, "induced_max_clique", "structure.induced_max_clique", None),
    (structure, "clique_number_exact", "structure.clique_number_exact",
     _after_clique_number),
    (structure, "max_independent_set_exact",
     "structure.max_independent_set_exact", None),
    (structure, "shortest_hole_up_to", "structure.shortest_hole_up_to", None),
    (structure, "layer_minor_check", "structure.layer_minor_check", None),
    (structure, "transversal_chordality_check",
     "structure.transversal_chordality_check", None),
    (structure, "balanced_separation", "structure.balanced_separation",
     _after_balanced_separation),
    (structure, "build_AB", "structure.build_AB", None),
    (structure, "verify_separation_on_prefix",
     "structure.verify_separation_on_prefix", None),
    (widths, "decomposition_from_separators", DECOMPOSITION,
     _after_decomposition),
    (widths, "independent_width", "widths.independent_width", None),
    (widths, "ta_lower_bound_certified", "widths.ta_lower_bound_certified",
     None),
    (widths, "tw_lower_bound_minor", "widths.tw_lower_bound_minor", None),
    (widths, "demo_question84", "widths.demo_question84", None),
    (widths, "demo_conjecture85", "widths.demo_conjecture85", None),
    (widths, "demo_hajebi", "widths.demo_hajebi", None),
    (widths, "_sample_clique_bounded", "widths.sample_clique_bounded",
     _after_sample),
]

# (owner, attribute, counter name): called too often for a span each
COUNTERS = [
    (wheel.WheelPrefix, "layer_of", "wheel.layer_of.calls"),
]

# Per-layer metrics in report order, with units.  Counts and ratios must
# repeat exactly across traced passes at one seed; times need not.
PER_LAYER = [
    ("kernels.max_clique.s", "s"),
    ("kernels.max_clique.n_sum", "count"),
    ("kernels.max_clique.calls", "count"),
    ("structure.induced_max_clique.calls", "count"),
    ("structure.induced_max_clique.self_s", "s"),
    ("wheel.from_json_s", "s"),
    ("wheel.build_prefix_s", "s"),
    ("wheel.to_json_s", "s"),
    ("cli.to_dot_s", "s"),
    ("wheel.json_bytes", "bytes"),
    ("wheel.adjacency_s", "s"),
    ("wheel.verify_rules_s", "s"),
    ("wheel.layer_of.calls", "count"),
    ("structure.clique_number_exact.calls", "count"),
    ("structure.clique_number_exact.calls_per_prefix", "calls/prefix"),
    ("kernels.shortest_hole.s", "s"),
    ("structure.shortest_hole_up_to.s", "s"),
    ("structure.layer_minor_check.s", "s"),
    ("structure.transversal_chordality_check.s", "s"),
    ("structure.balanced_separation.calls", "count"),
    ("structure.balanced_separation.s", "s"),
    ("structure.balanced_separation.iterations", "count"),
    ("structure.build_AB.calls", "count"),
    ("structure.build_AB.s", "s"),
    ("kernels.max_independent_set.calls", "count"),
    ("kernels.max_independent_set.s", "s"),
    ("widths.independent_width.s", "s"),
    ("widths.decomposition_from_separators.s", "s"),
    ("widths.decomposition.bags", "count"),
    ("widths.decomposition.split_ratio", "ratio"),
    ("widths.decomposition.width", "count"),
    ("widths.ta_lower_bound_certified.s", "s"),
    ("widths.demo_conjecture85.s", "s"),
    ("widths.demo_hajebi.s", "s"),
    ("widths.sample_accept_ratio", "ratio"),
    ("functions.f_calls", "count"),
    ("functions.self_s", "s"),
    ("cli.self_s", "s"),
    ("structure.budget_refusals", "count"),
    ("trace.overhead_s", "s"),
]

UNITS = dict(PER_LAYER)


def is_exact(metric):
    """Counts and ratios of counts, which must repeat exactly."""
    return UNITS[metric] != "s"


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """In-memory spans and counts for one traced pass of a workload."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, op)
        self.stack = []          # ids of the open spans
        self.counts = Counter()
        self.op = -1
        self.clique_prefixes = weakref.WeakSet()
        self._saved = []
        self._last_raise = None

    # -- installing and removing the wrappers -------------------------------

    def install(self):
        for owner, attr, name, after in SPANS:
            self._replace(owner, attr,
                          lambda fn, name=name, after=after:
                          self._span(name, fn, after))
        for owner, attr, name in COUNTERS:
            self._replace(owner, attr,
                          lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, make):
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def _span(self, name, fn, after):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            start = perf_counter()
            spans.append((name, start, None, parent, self.op))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._note_raise(exc)
                raise
            finally:
                spans[sid] = (name, start, perf_counter(), parent, self.op)
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_raise(self, exc):
        # one exception unwinds through several spans; count it once
        if exc is self._last_raise:
            return
        self._last_raise = exc
        if isinstance(exc, structure.BudgetExceeded):
            self.counts["structure.budget_refusals"] += 1

    def inside(self, name):
        """True while a span of this name is open."""
        return any(self.spans[sid][0] == name for sid in self.stack)

    # -- derived numbers ----------------------------------------------------

    def aggregate(self):
        """(calls, inclusive seconds, self seconds) per span name."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, incl, own = Counter(), Counter(), Counter()
        for sid, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - covered[sid]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:               # outermost span of this name
                incl[name] += end - start
        return calls, incl, own

    def metrics(self):
        """Every per-layer metric except ``trace.overhead_s``."""
        calls, incl, own = self.aggregate()
        c = self.counts
        return {
            "kernels.max_clique.s": incl["kernels.max_clique"],
            "kernels.max_clique.n_sum": c["kernels.max_clique.n_sum"],
            "kernels.max_clique.calls": calls["kernels.max_clique"],
            "structure.induced_max_clique.calls":
                calls["structure.induced_max_clique"],
            "structure.induced_max_clique.self_s":
                own["structure.induced_max_clique"],
            "wheel.from_json_s": incl["wheel.from_json"],
            "wheel.build_prefix_s": incl["wheel.build_prefix"],
            "wheel.to_json_s": incl["wheel.to_json"],
            "cli.to_dot_s": incl["cli.to_dot"],
            "wheel.json_bytes": c["wheel.json_bytes"],
            "wheel.adjacency_s": incl["wheel.adjacency"],
            "wheel.verify_rules_s": incl["wheel.verify_rules"],
            "wheel.layer_of.calls": c["wheel.layer_of.calls"],
            "structure.clique_number_exact.calls":
                calls["structure.clique_number_exact"],
            "structure.clique_number_exact.calls_per_prefix": _ratio(
                calls["structure.clique_number_exact"],
                c["structure.clique_number_exact.prefixes"]),
            "kernels.shortest_hole.s": incl["kernels.shortest_hole"],
            "structure.shortest_hole_up_to.s":
                incl["structure.shortest_hole_up_to"],
            "structure.layer_minor_check.s":
                incl["structure.layer_minor_check"],
            "structure.transversal_chordality_check.s":
                incl["structure.transversal_chordality_check"],
            "structure.balanced_separation.calls":
                calls["structure.balanced_separation"],
            "structure.balanced_separation.s":
                incl["structure.balanced_separation"],
            "structure.balanced_separation.iterations":
                c["structure.balanced_separation.iterations"],
            "structure.build_AB.calls": calls["structure.build_AB"],
            "structure.build_AB.s": incl["structure.build_AB"],
            "kernels.max_independent_set.calls":
                calls["kernels.max_independent_set"],
            "kernels.max_independent_set.s":
                incl["kernels.max_independent_set"],
            "widths.independent_width.s": incl["widths.independent_width"],
            "widths.decomposition_from_separators.s": incl[DECOMPOSITION],
            "widths.decomposition.bags": c["widths.decomposition.bags"],
            "widths.decomposition.split_ratio": _ratio(
                c["widths.decomposition.internal_bags"],
                c["widths.decomposition.separations"]),
            "widths.decomposition.width": c["widths.decomposition.width"],
            "widths.ta_lower_bound_certified.s":
                incl["widths.ta_lower_bound_certified"],
            "widths.demo_conjecture85.s": incl["widths.demo_conjecture85"],
            "widths.demo_hajebi.s": incl["widths.demo_hajebi"],
            "widths.sample_accept_ratio": _ratio(
                c["widths.sample.accepted"], c["widths.sample.offered"]),
            "functions.f_calls": calls["functions.f"] + calls["functions.F"],
            "functions.self_s": sum(v for k, v in own.items()
                                    if k.startswith("functions.")),
            "cli.self_s": own["cli.main"],
            "structure.budget_refusals": c["structure.budget_refusals"],
        }

    def write(self, path):
        """All spans as gzipped TSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (sid, name, start - t0, end - t0, parent, op))
