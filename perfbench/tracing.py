"""Spans around calls into latperm's public functions, recorded from outside.

``from .x import y`` copies a function into every module that imports it, so
a function is wrapped in each namespace that holds it; ``restore`` puts the
originals back. Spans stay in memory until the benchmark writes them out.
A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent: the library's thread
pools are started from the main thread and it waits for them.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
from dataclasses import dataclass, field
from time import perf_counter, thread_time

from workloads import latperm

import latperm.entropy as entropy
import latperm.fkdet as fkdet
import latperm.groupring as groupring
import latperm.patterns as patterns
import latperm.permanent as permanent

cli = latperm.cli
NAMESPACES = (latperm, cli, entropy, fkdet, groupring, patterns, permanent)
_PLAN_CALLERS = (permanent, entropy)
# the work counters use the unwrapped functions
_ORIG_DILATE = groupring.dilate
_ORIG_INTERIOR = groupring.interior


@dataclass(eq=False)
class Span:
    id: int
    parent: int | None
    job: str
    name: str
    thread: int
    t0: float = 0.0
    t1: float = 0.0
    cpu: float = 0.0  # CPU time of the calling thread during the call
    overhead: float = 0.0  # time spent in the tracer around this call
    error: str | None = None
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("id", "parent", "job", "name", "thread", "t0", "t1",
                 "cpu", "overhead", "error", "counts")}


def _bits(lv) -> int:
    if isinstance(lv.linear, int):
        return abs(lv.linear).bit_length()
    return max(0, math.floor(lv.log / math.log(2)) + 1) if math.isfinite(lv.log) else 0


def _window_counts(args, lv) -> dict:
    f, F, mode = args["f"], args["F"], args["mode"]
    A = args["A"] if args["A"] is not None else f.support()
    required = len(_ORIG_INTERIOR(F, A)) if mode == "admissible" else 0
    return {"sites": len(F), "targets": len(_ORIG_DILATE(F, A)),
            "required": required, "result_bits": _bits(lv)}


def _torus_counts(args, lv) -> dict:
    return {"sites": args["quotient"].size, "result_bits": _bits(lv)}


def _transfer_counts(args, _result) -> dict:
    exps = [p[0] for p in args["f"].terms]
    return {"states": 1 << (max(exps) - min(exps))}


def _mahler_counts(args, _result) -> dict:
    f, cfg = args["f"], args["cfg"]
    grids = [cfg.grid << i for i in range(cfg.refinements + 1)]
    return {"cells": sum(g ** f.dim for g in grids) * len(f.terms)}


# (module, function, work counter); groupring functions are wrapped only
# where permanent and entropy look them up, patterns functions are counted
TRACED = (
    (cli, "main", None),
    (entropy, "estimate_report", None),
    (entropy, "upper_estimates", None),
    (entropy, "torus_estimates", None),
    (entropy, "transfer_matrix", _transfer_counts),
    (entropy, "transfer_pressure", None),
    (permanent, "window_permanent", _window_counts),
    (permanent, "torus_permanent", _torus_counts),
    (permanent, "det_identity_check", None),
    (fkdet, "mahler_measure", _mahler_counts),
    (fkdet, "mahler_measure_roots", None),
    (fkdet, "evaluate_family", None),
    (groupring, "dilate", None),
    (groupring, "interior", None),
    (groupring, "project", None),
    (groupring, "separated_on_quotient", None),
    (patterns, "enumerate_injective", None),
    (patterns, "enumerate_with_image", None),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Wraps the TRACED functions while installed and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._lock = threading.Lock()
        self._next_id = 0
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, name, counter in TRACED:
            orig = getattr(module, name)
            wrapper = self._wrap(f"{_layer(module)}.{name}", orig, counter,
                                 module is patterns)
            places = _PLAN_CALLERS if module is groupring else NAMESPACES
            for ns in places:
                if getattr(ns, name, None) is orig:
                    self._patched.append((ns, name, orig))
                    setattr(ns, name, wrapper)

    def restore(self) -> None:
        for ns, name, orig in reversed(self._patched):
            setattr(ns, name, orig)
        self._patched.clear()

    def _open(self, name: str) -> tuple[Span, list[int]]:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and ident != self._main else None
            span = Span(self._next_id, parent, self.job, name, ident)
            self._next_id += 1
            self.spans.append(span)
        stack.append(span.id)
        return span, stack

    def _wrap(self, name, fn, counter, generator):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            span, stack = self._open(name)
            cpu0 = thread_time()
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.t1 = perf_counter()
                span.cpu = thread_time() - cpu0
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            if generator:
                result = _counted(result, span)
            span.overhead = perf_counter() - enter - (span.t1 - span.t0)
            return result

        return wrapper


def _counted(items, span: Span):
    span.counts["items"] = 0
    for item in items:
        span.counts["items"] += 1
        yield item
