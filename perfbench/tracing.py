"""Call accounting for the traced run, kept entirely outside the package.

Spans are taken around the calls the benchmark makes into each layer
(``Tracer.span``) and around every scheme ``encode``/``decode`` through
``TracedScheme``.  A traced pass makes millions of decode calls, so spans
are aggregated per name (count and seconds) instead of being stored one
by one.  The proxies only ever run on the main thread: the traced pass
calls the library with its default of one worker, and the CLI's own
thread pool builds its schemes without a proxy.
"""

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

from mvcode import MvcScheme, quorum_bridge


class Untraced:
    """The no-op stand-in the untraced passes use: no proxy, no span."""

    def wrap(self, scheme):
        return scheme

    def bridged(self, inner, c_w, c_r):
        return quorum_bridge(inner, c_w, c_r)

    def span(self, name):
        return nullcontext()

    def note(self, name, count):
        """Count work done inside a span (attempts, decodes)."""


class Tracer(Untraced):
    """Per-name seconds and counts.

    ``seconds[span]`` is the time inside spans of that name and
    ``calls[(span, what)]`` counts the scheme calls made while it was open.
    A scheme call at depth 0 is a boundary call: the span's own code made
    it, so its time is subtracted to give the span's self time.  Deeper
    calls are the inner scheme of a quorum bridge.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.count = defaultdict(int)
        self.calls = defaultdict(int)
        self.boundary_s = defaultdict(float)
        self.scheme_s = defaultdict(float)
        self.scheme_calls = defaultdict(int)
        self.current = None
        self.depth = 0

    def wrap(self, scheme):
        return TracedScheme(scheme, self)

    def bridged(self, inner, c_w, c_r):
        return self.wrap(quorum_bridge(self.wrap(inner), c_w, c_r))

    @contextmanager
    def span(self, name):
        outer = self.current
        self.current = name
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - start
            self.count[name] += 1
            self.current = outer

    def note(self, name, count):
        self.count[name] += count

    def add(self, name, seconds, count=1):
        """Record a span measured by the caller (a microbenchmark loop)."""
        self.seconds[name] += seconds
        self.count[name] += count

    def _record(self, scheme_name, what, seconds):
        self.scheme_s[scheme_name, what] += seconds
        self.scheme_calls[scheme_name, what] += 1
        if self.depth == 0:
            self.calls[self.current, what] += 1
            self.boundary_s[self.current, what] += seconds
        else:
            self.calls[self.current, "inner_" + what] += 1

    def self_seconds(self, span):
        return self.seconds[span] - sum(
            self.boundary_s[span, what] for what in ("encode", "decode")
        )


class TracedScheme(MvcScheme):
    """Delegates to a scheme and times each encode and decode call.

    Results pass through untouched, so a traced run must reproduce the
    untraced run's reports exactly; the benchmark checks that it does.
    """

    def __init__(self, inner, tracer):
        super().__init__(inner.model, inner.n, inner.c)
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer

    def encode(self, server, received, versions):
        tracer = self._tracer
        tracer.depth += 1
        start = perf_counter()
        try:
            return self.inner.encode(server, received, versions)
        finally:
            elapsed = perf_counter() - start
            tracer.depth -= 1
            tracer._record(self.name, "encode", elapsed)

    def decode(self, T, state, symbols):
        tracer = self._tracer
        tracer.depth += 1
        start = perf_counter()
        try:
            return self.inner.decode(T, state, symbols)
        finally:
            elapsed = perf_counter() - start
            tracer.depth -= 1
            tracer._record(self.name, "decode", elapsed)

    def worst_case_cost(self):
        return self.inner.worst_case_cost()
