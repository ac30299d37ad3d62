"""In-memory span tracing of datascale's layers, installed from outside.

The tracer replaces the public functions that one datascale module calls in
another (``fitting.fit_single`` as seen by ``analysis`` and ``cli``,
``corpus.read_pairs`` as seen by ``cli``, ...) with wrappers that record a
span per call: name, start, end and the index of the enclosing span.  The
CLI's own ``main`` and ``cmd_*`` functions are wrapped too, so every command
is one span tree.  Calls inside a module are not wrapped, which keeps the
per-line helpers of the corpus reader and writer out of the trace.

Generator functions (``read_pairs``, ``corrupt_chars``, ``delete_words``)
are consumed inside their span and handed on as lists, so the time of each
stage of a streamed corpus command is attributed to that stage alone.

``src/`` is not edited: :meth:`Tracer.install` patches module attributes and
:meth:`Tracer.uninstall` restores them.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "observations", "fitting", "analysis", "reports", "corpus")


class Tracer:
    def __init__(self, package):
        self.package = package
        # Each span is [name, start, end, parent index (-1 at the root), info].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, materialise):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if materialise:
                    out = list(out)
            finally:
                span[1], span[2] = start, time.perf_counter()
                stack.pop()
            span[4] = _info(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the cross-module public functions of every layer module."""
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        qualified = {module.__name__: layer for layer, module in modules.items()}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or attr.startswith("_"):
                    continue
                owner = qualified.get(fn.__module__)
                if owner is None:
                    continue
                own_entry = owner == "cli" and layer == "cli" and (
                    attr == "main" or attr.startswith("cmd_")
                )
                if owner == layer and not own_entry:
                    continue
                wrapper = self._wrap(
                    f"{owner}.{fn.__name__}", fn, inspect.isgeneratorfunction(fn)
                )
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def export(self, origin: float) -> list[list]:
        """Spans as ``[name, start_s, end_s, parent]`` relative to ``origin``."""
        return [[n, s - origin, e - origin, p] for n, s, e, p, _ in self.spans]


def _info(out):
    """Counts a span keeps from its return value (rows, pairs, iterations)."""
    if isinstance(out, list):
        return {"items": len(out)}
    if isinstance(out, str):
        return {"chars": len(out)}
    if isinstance(out, int) and not isinstance(out, bool):
        return {"value": out}
    rows = getattr(out, "rows", None)
    if isinstance(rows, list):
        return {"items": len(rows)}
    if hasattr(out, "converged"):
        return {"converged": bool(out.converged), "n_iters": getattr(out, "n_iters", None)}
    return None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def children(spans: list[list]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        out[span[3]].append(i)
    return out


def subtree(kids: dict[int, list[int]], root: int) -> list[int]:
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids.get(i, ()))
    return out
