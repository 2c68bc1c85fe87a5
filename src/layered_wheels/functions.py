"""Slow clique-growth functions and their cumulative counterparts.

A *slow* function f controls how fast cliques may grow from one layer of a
wheel to the next: f(1)=1, f(2)=2, f(3)=3 and f(i) <= f(i+1) <= f(i)+1.
Its *cumulative* function F(k) = sup{i >= 1 | f(i) <= k} counts how many
layers stay within clique budget k; it may be infinite.  F always satisfies

    F(1)=1, F(2)=2, F(k+1) >= F(k)+1        (the star property)

and conversely any F with the star property defines a slow function via
f(i) = min{k >= 1 | F(k) >= i}.  A :class:`SlowFunction` is held that way:
as its F plus the spec text that :func:`parse_f_spec` reads back.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right

INF = math.inf


class SlowFunctionError(ValueError):
    pass


class CumulativeFunctionError(ValueError):
    pass


class SlowFunction:
    """The slow function f(i) = min{k | F(k) >= i} of a cumulative F.

    ``descriptor`` is the spec text that ``parse_f_spec`` turns back into
    the same function.
    """

    def __init__(self, F, descriptor):
        self._F = F
        self.descriptor = descriptor
        self._cache = {}

    def __call__(self, i):
        if i < 1:
            raise SlowFunctionError("f is only defined for i >= 1, got %d" % i)
        got = self._cache.get(i)
        if got is None:
            # F(k) >= k guarantees termination
            k = 1
            while self._F(k) < i:
                k += 1
            got = self._cache[i] = k
        return got

    def __repr__(self):
        return "SlowFunction(%s)" % self.descriptor

    def cumulative(self):
        """The cumulative function F(k) = sup{i | f(i) <= k}."""
        return self._F


class CumulativeFunction:
    """F: k -> number of layers with clique budget <= k (possibly infinite).

    Values are produced in order by ``rule(k, F(k-1))``, with F(0) = 0, and
    validated lazily against the star property; infinity is absorbing.
    """

    def __init__(self, rule):
        self._rule = rule
        self._cache = []
        self._validate_prefix()

    def _validate_prefix(self):
        if self(1) != 1 or self(2) != 2:
            raise CumulativeFunctionError(
                "F(1)=1 and F(2)=2 required, got F(1)=%s, F(2)=%s"
                % (self(1), self(2)))

    def __call__(self, k):
        if k < 1:
            raise CumulativeFunctionError("F is only defined for k >= 1")
        while len(self._cache) < k:
            j = len(self._cache) + 1
            prev = self._cache[-1] if self._cache else 0
            if prev is INF:
                value = INF
            else:
                value = self._rule(j, prev)
                if value is not INF:
                    value = int(value)
                if value < prev + 1:
                    raise CumulativeFunctionError(
                        "star property violated: F(%d)=%s but F(%d)=%s"
                        % (j - 1, prev, j, value))
            self._cache.append(value)
        return self._cache[k - 1]


def _slow_table_rule(values):
    """F of the slow function with these values, the last one repeated.

    The table is checked eagerly.  F(k) counts the values <= k, and is
    infinite from the repeated value on.
    """
    if len(values) < 3 or values[:3] != (1, 2, 3):
        raise SlowFunctionError(
            "a slow function must start with f(1)=1, f(2)=2, f(3)=3, "
            "got %r" % (values[:3],))
    for i in range(len(values) - 1):
        if not values[i] <= values[i + 1] <= values[i] + 1:
            raise SlowFunctionError(
                "slow step violated at i=%d: f=%d, f'=%d"
                % (i + 1, values[i], values[i + 1]))
    return lambda k, prev: INF if k >= values[-1] else bisect_right(values, k)


def _cumulative_table_rule(values):
    """Explicit finite F values, then +inf past the table."""
    return lambda k, prev: values[k - 1] if k <= len(values) else INF


def _dominating_rule(g):
    """F(1)=1, F(2)=2, F(k)=max(F(k-1)+1, g(k)+1) for k >= 3.

    The profile that makes the wheel reach g(k)+1 layers while the clique
    number is still k.  Each value is made from the one before it, so a new
    F(k) costs one step, not k.
    """
    return lambda k, prev: max(prev + 1, g(k) + 1) if k >= 3 else k


_POLY_RE = re.compile(r"^poly:(\d+)$")


def _parse_g(text):
    """A polynomial spec: 'poly:<d>' for k^d or 'coeffs:c0,c1,...'."""
    m = _POLY_RE.match(text)
    if m:
        d = int(m.group(1))
        return lambda k: k ** d
    if text.startswith("coeffs:"):
        coeffs = [int(c) for c in text[len("coeffs:"):].split(",")]
        return lambda k: sum(c * k ** e for e, c in enumerate(coeffs))
    raise SlowFunctionError("cannot parse polynomial spec %r" % text)


def _ints(text):
    return tuple(int(v) for v in text.split(","))


def parse_f_spec(text):
    """Parse the textual grammar for slow functions.

    Accepted forms::

        identity                 f(i) = i
        cap:<c>                  f(i) = min(i, c)
        table:<v1,v2,...>        explicit values, last one repeated
        cumulative:<v1,v2,...>   finite F values, then infinity
        cumulative:poly:<d>      F(k) = max(F(k-1)+1, k^d+1) for k >= 3
        question84:<g-spec>      F(k) = max(F(k-1)+1, g(k)+1) for k >= 3

    The returned f's ``descriptor`` is a spec of this grammar for f.
    """
    text = text.strip()
    if text == "identity":
        rule = lambda k, prev: k
    elif text.startswith("cap:"):
        c = int(text[4:])
        if c < 3:
            raise SlowFunctionError("cap must be >= 3, got %d" % c)
        rule = lambda k, prev: INF if k >= c else k
        text = "cap:%d" % c
    elif text.startswith("table:"):
        rule = _slow_table_rule(_ints(text[len("table:"):]))
    elif text.startswith("cumulative:poly:"):
        rule = _dominating_rule(_parse_g(text[len("cumulative:"):]))
    elif text.startswith("cumulative:"):
        rule = _cumulative_table_rule(_ints(text[len("cumulative:"):]))
    elif text.startswith("question84:"):
        rule = _dominating_rule(_parse_g(text[len("question84:"):]))
    else:
        raise SlowFunctionError("cannot parse f spec %r" % text)
    return SlowFunction(CumulativeFunction(rule), text)
