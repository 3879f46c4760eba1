"""Spans and counters around the calls groupdet's modules make into each other.

The tracer edits no file of the package. In a fresh process, before the
program runs, it replaces the names one module imports from the next (for
example ``groupdet.search.group_determinant`` or
``groupdet.divisibility.bareiss_det``) with wrappers that time each call.

A scan makes millions of calls, so spans are aggregated in memory as they
close: one record per (parent span, span) pair holding the number of calls
and the total nanoseconds. A span's self time is its total minus the totals
of the spans whose parent it is. The records are written out when the run
ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from groupdet import cli, cyclotomic, determinant, divisibility, factorization, search

# (owner, attribute, span name). install() adds the theorem2 suite's spans.
SPANS = (
    (cli, "search_values", "search.search_values"),
    (search, "group_determinant", "determinant.group_determinant"),
    (search.SearchReport, "save", "search.report_write"),
    (determinant, "build_group_matrix", "determinant.build"),
    (determinant, "bareiss_det", "determinant.bareiss"),
    (factorization, "character_sums", "factorization.character_sums"),
    (factorization, "dedekind_product", "factorization.dedekind"),
    (factorization, "direct_product_factors", "factorization.direct_product_factors"),
    (factorization, "laquer_factors", "factorization.laquer"),
)
# Counted, not timed: a cyclotomic product takes about a microsecond.
COUNTERS = (
    (cyclotomic.CyclotomicInt, "__mul__", "cyclotomic.mul"),
    (cyclotomic.CyclotomicInt, "__rmul__", "cyclotomic.mul"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.ns: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[str] = [""]
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        calls, ns, stack, clock = self.calls, self.ns, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            key = (stack[-1], name)
            stack.append(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[key] += clock() - t0
                calls[key] += 1
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        if self._originals:
            return
        # The theorem2 suite builds its matrices inline. Replay the public
        # build_group_matrix on the same inputs (column 0 of the group
        # matrix is the twisted assignment of H) so the build cost shows on
        # verify too. Its bareiss_det calls share the determinant span name
        # and are told apart by their parent span.
        build = self.span("determinant.build", determinant.build_group_matrix)
        bareiss = self.span("determinant.bareiss", divisibility.bareiss_det)
        run_suite = self.span("divisibility.suite", cli.run_divisibility_suite)
        groups = []

        def suite(H, *args, **kwargs):
            groups.append(H)
            return run_suite(H, *args, **kwargs)

        def bareiss_with_build(matrix):
            build(groups[-1], [row[0] for row in matrix])
            return bareiss(matrix)

        self._replace(cli, "run_divisibility_suite", suite)
        self._replace(divisibility, "bareiss_det", bareiss_with_build)
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self.span(name, getattr(owner, attr)))
        for owner, attr, name in COUNTERS:
            self._replace(owner, attr, self.counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own output checks without counting them."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _replace(self, owner, attr, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def records(self) -> dict:
        return {
            "spans": [
                {"parent": p, "name": n, "calls": self.calls[(p, n)], "ns": self.ns[(p, n)]}
                for p, n in sorted(self.calls)
            ],
            "counts": dict(self.counts),
        }
