"""In-memory spans around the calls the benchmark makes into each layer.

:meth:`Tracer.install` wraps public functions and methods of the program's
modules from outside: a module-level function is replaced in every loaded
``repro`` module that bound it by name (``from x import f`` copies), a
method on its class.  :meth:`Tracer.uninstall` puts the originals back, so
an untraced pass runs the program's own code with nothing in between.  The
program's source is not touched; spans inside the program are a separate,
later change.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: str | None
    data: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _check_counts(check) -> dict:
    return {
        "conflicts": check.conflicts,
        "decisions": check.decisions,
        "propagations": check.propagations,
        "clauses": check.num_clauses,
    }


def _absorbed(source: str):
    return lambda count: {source: count}


def _hit(value) -> dict:
    return {"hit": value is not None}


#: (module, attribute or Class.method, span name, result -> span data)
TARGETS = (
    ("repro.api.engine", "Engine.run", "api.run", None),
    ("repro.api.engine", "Engine.close", "api.close", None),
    ("repro.api.resources", "ResourceManager.absorb_from_family", "api.absorb",
     _absorbed("family")),
    ("repro.api.resources", "ResourceManager.absorb_from_store", "api.absorb",
     _absorbed("store")),
    ("repro.codes.registry", "build_code", "codes.build", None),
    ("repro.verifier.encodings", "accurate_correction_formula", "verifier.formula", None),
    ("repro.verifier.encodings", "precise_detection_formula", "verifier.formula", None),
    ("repro.vc.pipeline", "compile_triple", "vc.compile_triple", None),
    ("repro.smt.interface", "SolveSession.assert_formula", "smt.encode", None),
    ("repro.smt.interface", "SolveSession.add_guard", "smt.encode", None),
    ("repro.smt.interface", "SolveSession.add_weight_guard", "smt.encode", None),
    ("repro.smt.interface", "SolveSession.add_weight_lower_guard", "smt.encode", None),
    ("repro.smt.interface", "SolveSession.check", "smt.check", _check_counts),
    ("repro.smt.solver", "SATSolver.solve", "smt.solve", None),
    ("repro.store.clause_store", "ClauseStore.load", "store.load", _hit),
    ("repro.store.clause_store", "ClauseStore.checkpoint_load", "store.load", _hit),
    ("repro.store.clause_store", "ClauseStore.family_candidates", "store.family_candidates", None),
    ("repro.store.clause_store", "ClauseStore.store_meta", "store.write", None),
    ("repro.store.clause_store", "ClauseStore.checkpoint_save", "store.write", None),
    ("repro.store.clause_store", "ClauseStore.checkpoint_delete", "store.write", None),
    ("repro.service.client", "ServiceClient.submit_stream", "service.submit", None),
)


class Tracer:
    """Records spans (name, start, end, parent, task id) in a list.

    Each thread keeps its own stack of open spans, so spans from concurrent
    client threads nest correctly.  A call that re-enters the layer whose
    span is innermost opens no second span, so a layer's time is never
    counted twice.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_task(self, task: str | None) -> None:
        """Tag the spans this thread opens from now on with ``task``."""
        self._local.task = task

    def open(self, name: str, start: float | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name, time.perf_counter() if start is None else start, 0.0, parent,
            getattr(self._local, "task", None),
        )
        self.spans.append(span)  # list.append is atomic under the GIL
        index = len(self.spans) - 1
        # The index of our own span: concurrent appends from another thread
        # can land between the append and len(), so search back for it.
        while self.spans[index] is not span:
            index -= 1
        stack.append(index)
        return index

    def close(self, index: int, end: float | None = None) -> None:
        self.spans[index].end = time.perf_counter() if end is None else end
        self._stack().pop()

    def record(self, name: str, start: float, end: float, parent: int | None,
               task: str | None) -> None:
        """Add a span measured by the caller's own clock readings."""
        self.spans.append(Span(name, start, end, parent, task))

    def _wrap(self, original, name: str, observe):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and tracer.spans[stack[-1]].name == name:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    tracer.spans[index].data = observe(result)
                return result
            finally:
                tracer.close(index)

        return traced

    # -- installing --------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for module_name, attribute, name, observe in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(original, name, observe))
                continue
            original = getattr(module, attribute)
            traced = self._wrap(original, name, observe)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and \
                        getattr(loaded, attribute, None) is original:
                    self._patch(loaded, attribute, original, traced)

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- reading spans ---------------------------------------------------
def total(spans: list[Span], name: str) -> float:
    return sum(span.seconds for span in spans if span.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def data_sum(spans: list[Span], name: str, key: str) -> int:
    return sum((span.data or {}).get(key, 0) for span in spans if span.name == name)


def self_times(all_spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Per span name, the summed duration of the spans in
    ``all_spans[first:last]`` minus the time their direct children cover."""
    times: dict[str, float] = {}
    for span in all_spans[first:last]:
        times[span.name] = times.get(span.name, 0.0) + span.seconds
        if span.parent is not None and span.parent >= first:
            parent = all_spans[span.parent].name
            times[parent] = times.get(parent, 0.0) - span.seconds
    return times
