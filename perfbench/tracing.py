"""In-memory spans recorded around module-level calls, and their statistics.

A span is one call into a layer: its name, start and end on
``time.perf_counter``, the span that was open when it began (its
parent), and a few attributes read from the call's arguments or result.
Spans are recorded by replacing a module attribute with a wrapper for
the duration of a ``Tracer.instrument`` block, so only call sites that
look the name up at call time are seen.
"""

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = None
    parent: int = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Where to record a span: ``module.attribute`` becomes span ``name``.

    ``attrs(args, kwargs, result)`` returns extra attributes for the
    span; ``per_item`` records one span per item the call yields instead
    of one for the call.
    """

    module: str
    attribute: str
    name: str
    attrs: object = None
    per_item: bool = False


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.absent = []
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index, attrs=None):
        span = self.spans[index]
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)
        self._open.remove(index)

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def _wrap(self, fn, hook):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            index = self.begin(hook.name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, _safe_attrs(hook, args, kwargs, result))

        @functools.wraps(fn)
        def per_item(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                index = self.begin(hook.name)
                try:
                    item = next(items)
                except StopIteration:
                    self.end(index, {"exhausted": True})
                    return
                except BaseException:
                    self.end(index)
                    raise
                self.end(index, _safe_attrs(hook, args, kwargs, item))
                yield item

        return per_item if hook.per_item else call

    @contextlib.contextmanager
    def instrument(self, hooks):
        """Replace each hooked attribute by a recording wrapper, then restore.

        A module or attribute that does not exist is noted in
        ``self.absent`` and its span is simply never recorded.
        """
        saved = []
        try:
            for hook in hooks:
                try:
                    module = importlib.import_module(hook.module)
                    original = getattr(module, hook.attribute)
                except (ImportError, AttributeError):
                    self.absent.append(f"{hook.module}.{hook.attribute}")
                    continue
                saved.append((module, hook.attribute, original))
                setattr(module, hook.attribute, self._wrap(original, hook))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)


def _safe_attrs(hook, args, kwargs, result):
    if hook.attrs is None:
        return None
    try:
        return hook.attrs(args, kwargs, result)
    except Exception:  # a changed signature loses attributes, not the run
        return None


def children(spans):
    """Index lists of each span's direct children."""
    out = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            out[span.parent].append(index)
    return out


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    kids = children(spans)
    out = []
    for span, mine in zip(spans, kids):
        covered = 0.0
        reach = span.start
        for child in sorted((spans[i] for i in mine), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def percentile(values, p):
    """Linearly interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)


def tail_percentile(count, candidates=TAIL_CANDIDATES, beyond=10):
    """Highest candidate percentile with at least ``beyond`` samples above it.

    Returns None when even the lowest candidate has too few.
    """
    best = None
    for p in candidates:
        # the tolerance absorbs the rounding of 100 - 99.9
        if count * (100.0 - p) >= beyond * 100.0 - 1e-6:
            best = p
    return best
