"""Span tracer that wraps a library's public functions from the outside.

``Tracer.install`` replaces every module-level binding of each traced
function (``polyagg.mdp.build_polytope`` and the re-exports
``polyagg.harness.build_polytope``, ``polyagg.build_polytope`` alike) with a
wrapper that records one span per call: name, start, end, parent span and
the instance being run.  Callers inside the library look their callees up
through module globals or module attributes, so nested calls become child
spans.  ``uninstall`` restores the original bindings.

Spans stay in memory as plain lists ``[name, start, end, parent, instance,
extra]`` and are written out by the caller at the end.  A span's self time
is its duration minus the durations of its direct children; because calls
nest and do not overlap in a single thread, the self times of all spans
add up to the summed durations of the root spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

NAME, START, END, PARENT, INSTANCE, EXTRA = range(6)


class Tracer:
    """Records spans around the functions named in ``targets``.

    ``targets`` maps a qualified name (``"polyagg.mdp.build_polytope"``) to
    ``None`` or a hook ``hook(args, kwargs, result) -> extra`` whose return
    value is stored with the span; when the call raises, the hook gets
    ``result=None`` and ``extra`` gains the exception's type under
    ``"error"``.  Hooks run after the span has ended, so their time lands in
    the parent's self time; keep them cheap.  Names that cannot be resolved
    are listed in ``absent`` instead of failing.
    """

    def __init__(self, targets: dict, package: str):
        self.targets = dict(targets)
        self.package = package
        self.spans: list[list] = []
        self.instance = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == self.package
                                           or name.startswith(self.package + "."))]
        for qualname, hook in self.targets.items():
            module_name, _, attr = qualname.rpartition(".")
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, hook)
            for mod in modules:
                bound = [key for key, value in vars(mod).items() if value is original]
                for key in bound:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.instance, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                extra = hook(args, kwargs, None) if hook is not None else None
                span[EXTRA] = {**(extra or {}), "error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if hook is not None:
                span[EXTRA] = hook(args, kwargs, result)
            return result

        return wrapper


def public_functions(module) -> list[str]:
    """Qualified names of the public functions a module defines itself."""
    return sorted(
        f"{module.__name__}.{name}"
        for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def ancestors(spans, index: int):
    """Indices of the spans enclosing ``spans[index]``, innermost first."""
    parent = spans[index][PARENT]
    while parent >= 0:
        yield parent
        parent = spans[parent][PARENT]
