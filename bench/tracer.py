"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.install`` replaces the
public functions of each ``posbounds`` module (and the names other modules
imported from it) with wrappers, so a span opens at every call that crosses
into a module.  Calls that stay inside the module of the innermost open span
are not recorded, so ``<module>.calls`` counts boundary crossings.

A span is ``[module, name, start_ns, end_ns, parent, op, failed]``; ``parent``
is the index of the enclosing span or -1.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import inspect
import time

# Helpers called from hot loops (binomials per polynomial evaluation,
# rounding per box point).  Their time stays in the caller's self time.
UNTRACED = frozenset({"binom", "elem_sym", "floor_q", "ceil_q"})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, module: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([module, name, time.perf_counter_ns(), 0, parent, self.op, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name.split(".", 1)[0], name)
        try:
            yield
        except BaseException:
            self.spans[idx][6] = True
            raise
        finally:
            self._close(idx)

    def _wrap(self, fn, module: str, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == module:
                return fn(*args, **kwargs)
            idx = self._open(module, name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][6] = True
                raise
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Wrap every public posbounds function reachable as a module
        attribute, plus ``BoundReport.to_json``."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in UNTRACED
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("posbounds.")
                ):
                    continue
                owner = obj.__module__.split(".", 1)[1]
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, owner, f"{owner}.{obj.__name__}"))
            report_cls = vars(mod).get("BoundReport")
            if report_cls is not None and "to_json" in vars(report_cls) and not hasattr(
                report_cls.to_json, "__wrapped__"
            ):
                self._saved.append((report_cls, "to_json", report_cls.to_json))
                report_cls.to_json = self._wrap(report_cls.to_json, "report", "report.to_json")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def adopt(self, child_spans: list[list], parent: int, op: int) -> None:
        """Append spans recorded in a child process under span ``parent``."""
        base = len(self.spans)
        for module, name, start, end, cparent, _op, failed in child_spans:
            self.spans.append(
                [module, name, start, end, parent if cparent < 0 else base + cparent, op, failed]
            )


def self_times(spans: list[list]) -> dict[str, dict]:
    """Per module: spans (calls), self nanoseconds and failed spans.

    Self time is a span's duration minus the durations of its child spans.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_ns[span[4]] += span[3] - span[2]
    out: dict[str, dict] = {}
    for idx, span in enumerate(spans):
        rec = out.setdefault(span[0], {"calls": 0, "self_ns": 0, "failed": 0})
        rec["calls"] += 1
        rec["self_ns"] += span[3] - span[2] - child_ns[idx]
        rec["failed"] += span[6]
    return out
