"""Span tracing of the library's layers, from the benchmark's own code.

The tracer wraps public functions of ``minplus`` modules and records one
span per call: name, start, end, parent span and product id, kept in memory
and written out when the run ends. Every module-level binding of a wrapped
function is patched, so a call made through ``from .basic import
build_segments`` in another module is traced too. A function that no longer
exists is skipped and reads as zero calls.

Span names have the form ``<engine>.<module>.<function>``, where the engine
is the one whose product was running when the call happened (``setup`` while
inputs are made). Each product is one root span ``<engine>.product`` that
the library's spans nest under.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One traced function and what a change to it should move.

    ``moves`` is the end-to-end metric it feeds; ``mechanism`` the workloads
    where it does real work; ``bypass`` those where it should stay flat.
    """

    engine: str
    module: str
    function: str
    moves: str
    mechanism: str
    bypass: str

    @property
    def name(self) -> str:
        return f"{self.engine}.{self.module}.{self.function}"


LAYERS = (
    Layer("setup", "workloads", "make_pairs", "setup_s", "all", "-"),
    Layer("setup", "matrix", "generate_bd", "setup_s", "walk-128, walk-64", "valley-256"),
    Layer("setup", "matrix", "validate_bd", "setup_s", "walk-128", "-"),
    Layer("naive", "oracle", "minplus_naive", "naive_s", "all", "-"),
    Layer("basic", "basic", "basic_minplus", "basic_s", "walk-128", "valley-256"),
    Layer("basic", "blocking", "candidate_sets", "basic_s", "walk-64", "-"),
    Layer("basic", "basic", "handle_small_candidates", "basic_s", "valley-256", "walk-128"),
    Layer("basic", "basic", "sample_r", "basic_s", "walk-128, walk-64", "valley-256"),
    Layer("basic", "basic", "build_segments", "basic_s", "walk-128, walk-64", "valley-256"),
    Layer("basic", "basic", "find_collisions", "basic_s", "walk-128, walk-64", "valley-256"),
    Layer("recursive", "recursive", "recursive_minplus", "recursive_s", "walk-128", "-"),
    Layer("recursive", "blocking", "candidate_sets", "recursive_s", "walk-64", "-"),
    Layer("recursive", "blocking", "refine_candidates", "recursive_s, recursive_peak_mib", "valley-256", "walk-64"),
    Layer("recursive", "basic", "build_segments", "recursive_s", "valley-256, walk-128", "-"),
    Layer("recursive", "recursive", "allocate_top", "recursive_s", "valley-256, walk-128", "-"),
    Layer("recursive", "recursive", "allocate_recursive", "recursive_s", "valley-256", "walk-64, walk-128"),
    Layer("recursive", "recursive", "collisions_incremental", "recursive_s", "valley-256", "walk-64, walk-128"),
    Layer("recursive", "recursive", "finish_tail", "recursive_s", "valley-256", "walk-64, walk-128"),
)

# layers whose peak allocation is reported next to their self time
PEAK_LAYERS = (
    "basic.blocking.candidate_sets",
    "basic.basic.handle_small_candidates",
    "recursive.blocking.candidate_sets",
    "recursive.blocking.refine_candidates",
    "recursive.recursive.finish_tail",
)

_MIB = 1 << 20


class Tracer:
    """Records spans while active; patches and restores the wrapped functions."""

    def __init__(self, modules: dict):
        # modules maps the short module name ("basic") to the module object
        self.modules = modules
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, product, peak_bytes]
        self._stack: list[int] = []
        self._saved_peak: list[int] = []
        self.engine = None
        self.product = None
        self.track_memory = False
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        targets = {(lay.module, lay.function) for lay in LAYERS}
        for mod_name, fn_name in sorted(targets):
            mod = self.modules.get(mod_name)
            orig = getattr(mod, fn_name, None) if mod is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(orig, mod_name, fn_name)
            for other in self._binding_modules():
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._patches.append((other, attr, orig))
                        setattr(other, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
        return False

    def _binding_modules(self) -> list:
        """Every loaded ``minplus`` module plus the modules passed in."""
        found = {id(m): m for m in self.modules.values()}
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "minplus" or name.startswith("minplus.")):
                found[id(mod)] = mod
        return list(found.values())

    def _wrap(self, fn, mod_name: str, fn_name: str):
        tracer = self
        suffix = f".{mod_name}.{fn_name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.engine is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            span = [tracer.engine + suffix, 0, 0, stack[-1] if stack else -1, tracer.product, 0]
            spans.append(span)
            stack.append(idx)
            mem = tracer.track_memory
            if mem:
                base, peak = tracemalloc.get_traced_memory()
                if tracer._saved_peak:
                    tracer._saved_peak[-1] = max(tracer._saved_peak[-1], peak)
                tracer._saved_peak.append(0)
                tracemalloc.reset_peak()
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                if mem:
                    peak = max(tracer._saved_peak.pop(), tracemalloc.get_traced_memory()[1])
                    span[5] = peak - base
                    if tracer._saved_peak:
                        tracer._saved_peak[-1] = max(tracer._saved_peak[-1], peak)

        return traced

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def product_scope(self, engine: str, product, track_memory: bool = False):
        """Record the product as one root span ``<engine>.product`` and
        attribute the spans recorded inside to ``engine`` and ``product``;
        with ``track_memory`` each span also records its tracemalloc peak."""
        self.engine, self.product, self.track_memory = engine, product, track_memory
        root = [f"{engine}.product", 0, 0, -1, product, 0]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root[1] = time.perf_counter_ns()
        try:
            yield self
        finally:
            root[2] = time.perf_counter_ns()
            self.engine = self.product = None
            self.track_memory = False
            self._stack.clear()
            self._saved_peak.clear()

    def _child_ns(self) -> list[int]:
        child_ns = [0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        return child_ns

    def self_times(self) -> dict[tuple, dict[str, list[int]]]:
        """Per product: span name -> [self_ns, calls, peak_bytes]."""
        child_ns = self._child_ns()
        out: dict[tuple, dict[str, list[int]]] = {}
        for i, (name, t0, t1, _, product, peak) in enumerate(self.spans):
            rec = out.setdefault(product, {}).setdefault(name, [0, 0, 0])
            rec[0] += (t1 - t0) - child_ns[i]
            rec[1] += 1
            rec[2] = max(rec[2], peak)
        return out

    def unbalanced_products(self) -> list[tuple]:
        """Products whose spans do not nest: not exactly one root, a span
        outside its parent's interval or product, or children that together
        outlast their parent (negative self time). Where none of these
        holds, every span equals its self time plus its children's."""
        child_ns = self._child_ns()
        roots: dict[tuple, int] = {}
        bad = set()
        for i, (_, t0, t1, parent, product, _) in enumerate(self.spans):
            if parent < 0:
                roots[product] = roots.get(product, 0) + 1
            else:
                _, p0, p1, _, parent_product, _ = self.spans[parent]
                if parent_product != product or t0 < p0 or t1 > p1:
                    bad.add(product)
            if (t1 - t0) - child_ns[i] < 0:
                bad.add(product)
        bad.update(k for k, n in roots.items() if n != 1)
        return sorted(bad, key=repr)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, t0, t1, parent, product, peak in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1, "parent": parent,
                                     "product": product, "peak_bytes": peak}) + "\n")


def mib(nbytes: int) -> float:
    return nbytes / _MIB
