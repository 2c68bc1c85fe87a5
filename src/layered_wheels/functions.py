"""Slow clique-growth functions and their cumulative counterparts.

A *slow* function f controls how fast cliques may grow from one layer of a
wheel to the next: f(1)=1, f(2)=2, f(3)=3 and f(i) <= f(i+1) <= f(i)+1.
Its *cumulative* function F(k) = sup{i >= 1 | f(i) <= k} counts how many
layers stay within clique budget k; it may be infinite.  F always satisfies

    F(1)=1, F(2)=2, F(k+1) >= F(k)+1        (the star property)

and conversely any F with the star property defines a slow function via
f(i) = min{k >= 1 | F(k) >= i}.
"""

from __future__ import annotations

import math
import re

INF = math.inf


class SlowFunctionError(ValueError):
    pass


class CumulativeFunctionError(ValueError):
    pass


class SlowFunction:
    """A slow function with a machine-representable tail.

    Three tail behaviours cover everything the generator needs:

    * ``"constant"``  -- repeat the last explicit value forever,
    * ``"increment"`` -- keep growing by one per step (identity-like),
    * a backing :class:`CumulativeFunction` -- evaluate through F.
    """

    def __init__(self, values=(1, 2, 3), tail="constant", descriptor=None,
                 cumulative=None):
        if cumulative is None:
            values = tuple(int(v) for v in values)
            if len(values) < 3 or values[:3] != (1, 2, 3):
                raise SlowFunctionError(
                    "a slow function must start with f(1)=1, f(2)=2, f(3)=3, "
                    "got %r" % (values[:3],))
            for i in range(len(values) - 1):
                if not values[i] <= values[i + 1] <= values[i] + 1:
                    raise SlowFunctionError(
                        "slow step violated at i=%d: f=%d, f'=%d"
                        % (i + 1, values[i], values[i + 1]))
            if tail not in ("constant", "increment"):
                raise SlowFunctionError("unknown tail %r" % (tail,))
        self.values = tuple(values) if cumulative is None else ()
        self.tail = tail if cumulative is None else "cumulative"
        self._cumulative = cumulative
        self._cache = {}
        self.descriptor = descriptor or self._default_descriptor()

    def _default_descriptor(self):
        if self._cumulative is not None:
            return "cumulative-of:%s" % self._cumulative.descriptor
        if self.tail == "increment" and self.values == (1, 2, 3):
            return "identity"
        if self.tail == "constant":
            c = self.values[-1]
            if self.values == tuple(range(1, c + 1)):
                return "cap:%d" % c
            return "table:" + ",".join(str(v) for v in self.values)
        return "table+increment:" + ",".join(str(v) for v in self.values)

    def __call__(self, i):
        if i < 1:
            raise SlowFunctionError("f is only defined for i >= 1, got %d" % i)
        if self._cumulative is not None:
            got = self._cache.get(i)
            if got is None:
                # f(i) = min{k | F(k) >= i}; F(k) >= k guarantees termination
                k = 1
                while self._cumulative(k) < i:
                    k += 1
                got = self._cache[i] = k
            return got
        if i <= len(self.values):
            return self.values[i - 1]
        if self.tail == "constant":
            return self.values[-1]
        return self.values[-1] + (i - len(self.values))

    def __repr__(self):
        return "SlowFunction(%s)" % self.descriptor

    @classmethod
    def identity(cls):
        return cls((1, 2, 3), tail="increment", descriptor="identity")

    @classmethod
    def capped(cls, c):
        if c < 3:
            raise SlowFunctionError("cap must be >= 3, got %d" % c)
        return cls(tuple(range(1, c + 1)), tail="constant",
                   descriptor="cap:%d" % c)

    @classmethod
    def from_table(cls, values):
        return cls(tuple(values), tail="constant")

    def cumulative(self):
        """The cumulative function F(k) = sup{i | f(i) <= k}."""
        if self._cumulative is not None:
            return self._cumulative
        return CumulativeFunction(self._sup_rule,
                                  descriptor="cumulative-of:%s" % self.descriptor)

    def _sup_rule(self, k):
        if self.tail == "constant" and k >= self.values[-1]:
            return INF
        if self.tail == "increment" and k >= self.values[-1]:
            return len(self.values) + (k - self.values[-1])
        # k below the last explicit value: sup lies inside the table
        sup = 0
        for i, v in enumerate(self.values, start=1):
            if v <= k:
                sup = i
        return sup


class CumulativeFunction:
    """F: k -> number of layers with clique budget <= k (possibly infinite).

    Values are produced by ``rule`` and validated lazily against the star
    property; infinity is absorbing.
    """

    def __init__(self, rule, descriptor="custom"):
        self._rule = rule
        self.descriptor = descriptor
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
                value = self._rule(j)
                if value is not INF:
                    value = int(value)
                if value < prev + 1:
                    raise CumulativeFunctionError(
                        "star property violated: F(%d)=%s but F(%d)=%s"
                        % (j - 1, prev, j, value))
            self._cache.append(value)
        return self._cache[k - 1]

    def __repr__(self):
        return "CumulativeFunction(%s)" % self.descriptor

    @classmethod
    def from_table(cls, values):
        """Explicit finite values, then +inf past the table."""
        values = tuple(values)

        def rule(k):
            if k <= len(values):
                return values[k - 1]
            return INF

        return cls(rule, descriptor="table:%s:inf"
                   % ",".join(str(v) for v in values))

    @classmethod
    def dominating(cls, g, descriptor="dominating"):
        """F(1)=1, F(2)=2, F(k)=max(F(k-1)+1, g(k)+1) for k >= 3.

        The profile that makes the wheel reach g(k)+1 layers while the
        clique number is still k.
        """

        def rule(k):
            if k == 1:
                return 1
            if k == 2:
                return 2
            return max(rule(k - 1) + 1, g(k) + 1)

        return cls(rule, descriptor=descriptor)


def slow_from_cumulative(F):
    """Slow function defined by f(i) = min{k | F(k) >= i}.

    Raises if F violates the star property (checked lazily on evaluation,
    F(1)/F(2) eagerly).
    """
    if not isinstance(F, CumulativeFunction):
        raise CumulativeFunctionError("expected a CumulativeFunction")
    return SlowFunction(cumulative=F,
                        descriptor="cumulative-of:%s" % F.descriptor)


def cumulative_from_slow(f):
    """Cumulative function of a slow function; inverse of slow_from_cumulative."""
    if not isinstance(f, SlowFunction):
        raise SlowFunctionError("expected a SlowFunction")
    return f.cumulative()


_POLY_RE = re.compile(r"^poly:(\d+)$")


def _parse_g(text):
    """A polynomial spec: 'poly:<d>' for k^d or 'coeffs:c0,c1,...'."""
    m = _POLY_RE.match(text)
    if m:
        d = int(m.group(1))
        return (lambda k: k ** d), text
    if text.startswith("coeffs:"):
        coeffs = [int(c) for c in text[len("coeffs:"):].split(",")]
        return (lambda k: sum(c * k ** e for e, c in enumerate(coeffs))), text
    raise SlowFunctionError("cannot parse polynomial spec %r" % text)


def parse_f_spec(text):
    """Parse the textual grammar for slow functions.

    Accepted forms::

        identity                 f(i) = i
        cap:<c>                  f(i) = min(i, c)
        table:<v1,v2,...>        explicit values, last one repeated
        cumulative:<v1,v2,...>   finite F values, then infinity
        cumulative:poly:<d>      F(k) = max(F(k-1)+1, k^d+1) for k >= 3
        question84:<g-spec>      F(k) = max(F(k-1)+1, g(k)+1) for k >= 3
    """
    text = text.strip()
    if text == "identity":
        return SlowFunction.identity()
    if text.startswith("cap:"):
        return SlowFunction.capped(int(text[4:]))
    if text.startswith("table:"):
        values = tuple(int(v) for v in text[len("table:"):].split(","))
        f = SlowFunction.from_table(values)
        f.descriptor = text
        return f
    if text.startswith("cumulative:"):
        body = text[len("cumulative:"):]
        if body.startswith("poly:"):
            g, _ = _parse_g(body)
            F = CumulativeFunction.dominating(g, descriptor=body)
        else:
            values = tuple(int(v) for v in body.split(","))
            F = CumulativeFunction.from_table(values)
        f = slow_from_cumulative(F)
        f.descriptor = text
        return f
    if text.startswith("question84:"):
        g, _ = _parse_g(text[len("question84:"):])
        F = CumulativeFunction.dominating(g, descriptor=text)
        f = slow_from_cumulative(F)
        f.descriptor = text
        return f
    raise SlowFunctionError("cannot parse f spec %r" % text)
