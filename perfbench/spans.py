"""Outside-in tracing: wrap flowsmith's public layer functions where callers look them up.

Callers import by name (``from .agents import retrieve``), so a layer is
wrapped at every module attribute its callers read, not only at its home
module.  Before patching, every site must still hold the home module's
function; a rename or a new import path fails loudly instead of timing
nothing.  Every patch is restored when the ``installed`` block ends.

A span records its layer name, start, end, parent span and episode id
(the goal id of the enclosing ``run_episode`` call).  Spans stay in
memory and are written out by the caller at the end of a run.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Layer -> the module attributes its callers read ("module.attr" under flowsmith).
SPAN_SITES: dict[str, tuple[str, ...]] = {
    "corpus.generate": ("corpus.generate",),
    "corpus.split": ("corpus.split",),
    "corpus.make_novel_goals": ("corpus.make_novel_goals",),
    "corpus.save_corpus": ("corpus.save_corpus",),
    "corpus.load_corpus": ("evaluation.load_corpus",),
    "agents.build_agents": ("evaluation.build_agents",),
    "evaluation.run_episodes": ("evaluation.run_episodes",),
    "evaluation.run_episode": ("evaluation.run_episode",),
    "agents.eliminate_and_refresh": ("evaluation.eliminate_and_refresh",),
    "agents.retrieve": ("orchestrator.retrieve",),
    "orchestrator.decompose": ("orchestrator.decompose", "repair.decompose"),
    "orchestrator.compose": ("orchestrator.compose", "repair.compose"),
    "orchestrator.verify": ("orchestrator.verify", "repair.verify"),
    "repair.repair_loop": ("repair.repair_loop",),
    "repair.diagnose": ("repair.diagnose",),
    "repair.apply": ("repair.apply",),
    "workflow.diff": ("workflow.diff",),
    "workflow.validate": ("workflow.validate",),
    "evaluation.write_atomic": ("evaluation.write_atomic",),
}

# Layers called too often for a span each: only their calls are counted.
COUNT_SITES: dict[str, tuple[str, ...]] = {
    "goals.similarity": ("agents.similarity", "orchestrator.similarity", "repair.similarity"),
    "agents.select": ("orchestrator.select", "repair.select"),
    "agents.update_life": ("orchestrator.update_life",),
}

# The boundaries the end-to-end metrics are timed at, with tracing off.
E2E_LAYERS = ("evaluation.run_episodes", "evaluation.run_episode",
              "agents.eliminate_and_refresh")


def _observe_run_episode(counts: Counter, result, args) -> None:
    counts["orchestrator.candidates"] += len(result.episode.candidates)


def _observe_refresh(counts: Counter, log, args) -> None:
    counts["agents.membership_changes"] += len(log.archived) + len(log.revived) + len(log.spawned)


def _observe_retrieve(counts: Counter, result, args) -> None:
    counts["agents.retrieve.returned"] += len(result)
    counts["agents.retrieve.scanned"] += len(args[0].active)


def _observe_repair_loop(counts: Counter, result, args) -> None:
    counts["repair.repair_loop.passed"] += int(result[1].passed)


OBSERVERS = {
    "evaluation.run_episode": _observe_run_episode,
    "agents.eliminate_and_refresh": _observe_refresh,
    "agents.retrieve": _observe_retrieve,
    "repair.repair_loop": _observe_repair_loop,
}


def resolve(site: str):
    """(module, attribute name) for a ``module.attr`` site under flowsmith."""
    module_name, attr = site.split(".")
    return importlib.import_module(f"flowsmith.{module_name}"), attr


def home_function(layer: str):
    module, attr = resolve(layer)
    return getattr(module, attr)


def check_sites(layers) -> None:
    """Raise unless every site of every layer holds the layer's home function."""
    for layer in layers:
        home = home_function(layer)
        for site in SPAN_SITES.get(layer, ()) + COUNT_SITES.get(layer, ()):
            module, attr = resolve(site)
            if getattr(module, attr, None) is not home:
                raise LookupError(f"{site} is not {layer}: the wrap list is stale")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    episode: str | None


class Tracer:
    """Spans for ``span_layers`` and call counts for ``count_layers``."""

    def __init__(self, span_layers=E2E_LAYERS, count_layers=()):
        self.span_layers = tuple(span_layers)
        self.count_layers = tuple(count_layers)
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._episode: str | None = None

    @classmethod
    def full(cls) -> "Tracer":
        return cls(tuple(SPAN_SITES), tuple(COUNT_SITES))

    @contextmanager
    def installed(self):
        check_sites(self.span_layers + self.count_layers)
        patches = []
        try:
            for layer in self.span_layers:
                wrapper = self._span_wrapper(layer, home_function(layer))
                patches.extend(self._patch(SPAN_SITES[layer], wrapper))
            for layer in self.count_layers:
                wrapper = self._count_wrapper(layer, home_function(layer))
                patches.extend(self._patch(COUNT_SITES[layer], wrapper))
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    @staticmethod
    def _patch(sites, wrapper):
        done = []
        for site in sites:
            module, attr = resolve(site)
            done.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        return done

    def _span_wrapper(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(layer)
        is_episode = layer == "evaluation.run_episode"
        tracer = self

        def wrapper(*args, **kwargs):
            if is_episode:
                tracer._episode = args[1].goal.id
            span = Span(layer, perf_counter(), 0.0, stack[-1] if stack else None,
                        tracer._episode)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[layer + ".raised"] += 1
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if is_episode:
                    tracer._episode = None
            if observe is not None:
                observe(counts, result, args)
            return result

        return wrapper

    def _count_wrapper(self, layer: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def durations(self, layer: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == layer]

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Layer -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the time its child spans
        cover; children never overlap, since the engine runs on one thread.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: dict[str, list] = {}
        for span, child in zip(self.spans, covered):
            entry = out.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.end - span.start
            entry[2] += span.end - span.start - child
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "episode": span.episode,
                    "start": span.start - origin, "end": span.end - origin,
                }) + "\n")
