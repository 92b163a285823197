"""Timing wrappers around the public functions of each program layer.

:func:`instrument` swaps each target below for a wrapper that records a
span (name, start, end, parent) into a :class:`Tracer`, and restores the
originals on exit.  Module-level functions are wrapped where they are
looked up (the importing module's namespace, e.g. the trainer's and the
service's ``build_user_centric_graph``), methods on their class.  The
wrappers return what the wrapped function returns, unchanged.

A span's self time is its duration minus the durations of its direct
children.  The spans in :data:`CONTAINERS` wrap whole entry points (a
request, an update, an epoch, an evaluation), so their self time is work
inside the entry point that no layer wrapper measured; summed over every
other span, self time is the time spent inside the layers themselves,
which is what ``bench.coverage_share`` compares with the traced wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


#: spans around whole entry points; their self time is not layer time
CONTAINERS = frozenset({"serve.recommend", "serve.update", "engine.epoch",
                        "eval.evaluate"})


@dataclass
class SpanRecord:
    """One finished span; ``parent`` indexes :attr:`Tracer.spans`."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    self_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span store plus per-call observations of the wrappers."""

    spans: List[SpanRecord] = field(default_factory=list)
    #: values the wrappers read off arguments and results, by name
    observations: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    _open: List[Tuple[int, float]] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else None
        record = SpanRecord(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._open.append((index, 0.0))
        try:
            yield
        finally:
            record.end = time.perf_counter()
            _, child_seconds = self._open.pop()
            record.self_seconds = record.seconds - child_seconds
            if self._open:
                top, seconds = self._open[-1]
                self._open[-1] = (top, seconds + record.seconds)

    def count(self, name: str) -> int:
        return sum(1 for record in self.spans if record.name == name)

    def seconds(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        return [record.seconds for record in self.spans
                if record.name == name]

    def self_seconds(self) -> float:
        """Time spent inside the layers: self time summed over every span
        but the :data:`CONTAINERS`."""
        return sum(record.self_seconds for record in self.spans
                   if record.name not in CONTAINERS)

    def observe(self, name: str, value: float) -> None:
        self.observations[name].append(float(value))


# ----------------------------------------------------------------------
# Observers: read the work done off a wrapped call's arguments/result
# ----------------------------------------------------------------------

def _observe_graph(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observe("sampling.edges", result.total_edges())


def _observe_incremental(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observe("ppr.push_ops", result.push_ops)
    tracer.observe("ppr.changed_rows", result.changed_users.size)


def _observe_densified(tracer: Tracer, args, kwargs, result) -> None:
    estimate = args[1] if len(args) > 1 else kwargs["estimate"]
    tracer.observe("ppr.densified_rows", estimate.shape[0])


def _observe_update(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observe("serve.invalidated", result["cache_invalidated"])


#: (span name, module path, attribute path, observer).  An attribute path
#: ``Class.method`` wraps the method on the class; a plain name wraps the
#: module-level binding the program looks up at call time.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("graph.ckg_build", "repro.graph", "CollaborativeKG.build", None),
    ("graph.add_interactions", "repro.graph",
     "CollaborativeKG.add_interactions", None),
    # the trainer's solver under the default TrainConfig (power, RAM)
    ("ppr.precompute", "repro.core.trainer", "personalized_pagerank_batch",
     None),
    ("ppr.precompute", "repro.serve.service", "forward_push_batch", None),
    ("ppr.precompute", "repro.serve.service", "forward_push_sharded", None),
    ("ppr.incremental", "repro.serve.service", "incremental_push",
     _observe_incremental),
    # the per-chunk kernel of both incremental paths, called once for
    # every chunk of score rows densified; it reads the rows it was given
    ("ppr.delta_chunk", "repro.ppr.push", "_apply_delta_chunk",
     _observe_densified),
    ("ppr.delta_chunk", "repro.storage.sharded", "_apply_delta_chunk",
     _observe_densified),
    ("storage.select", "repro.ppr", "SparsePPRScores.select", None),
    ("storage.select", "repro.storage", "ShardedPPRScores.select", None),
    ("sampling.build", "repro.core.trainer", "build_user_centric_graph",
     _observe_graph),
    ("sampling.build", "repro.serve.service", "build_user_centric_graph",
     _observe_graph),
    ("core.propagate", "repro.core.model", "KUCNet.propagate", None),
    ("core.score_items", "repro.core.model", "KUCNet.score_all_items", None),
    ("autodiff.backward", "repro.autodiff", "Tensor.backward", None),
    ("autodiff.adam_step", "repro.autodiff", "Adam.step", None),
    ("engine.epoch", "repro.engine", "Engine.run_epoch", None),
    ("eval.rank", "repro.eval.protocol", "rank_items", None),
    ("eval.rank", "repro.serve.service", "rank_items", None),
    ("serve.recommend", "repro.serve", "RecommendationService.recommend",
     None),
    ("serve.update", "repro.serve", "RecommendationService.add_interactions",
     _observe_update),
)


def _wrap(tracer: Tracer, name: str, fn: Callable,
          observer: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observer is not None:
            observer(tracer, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the ``with`` block."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for name, module_path, attribute, observer in TARGETS:
            owner: Any = importlib.import_module(module_path)
            *owners, leaf = attribute.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # Read the raw attribute (vars) so a classmethod is re-wrapped
            # as a classmethod instead of as its bound method.
            original = vars(owner)[leaf]
            if isinstance(original, classmethod):
                patched: Any = classmethod(
                    _wrap(tracer, name, original.__func__, observer))
            else:
                patched = _wrap(tracer, name, original, observer)
            restore.append((owner, leaf, original))
            setattr(owner, leaf, patched)
        yield tracer
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)
