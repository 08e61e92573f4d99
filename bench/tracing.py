"""Tracing for the benchmark's traced run.

Two kinds of record are kept, both in memory until the run ends:

* spans, one per verdict (and one per round and for set-up), recorded around
  the benchmark's own calls: name, start, end and parent span;
* boundary statistics, aggregated per function: calls, items yielded (for
  generators), inclusive time and self time.  Self time is inclusive time
  minus the time spent in boundaries nested inside the call.

Boundaries are timed by rebinding, for the traced run only, each name that
one ``qciore`` module imports from another (``REBOUND``), plus the benchmark's
own calls into public functions (``BENCH_CALLS``).  Nothing is rebound within
a module, so recursion such as ``structures.eval_formula`` calling itself
stays unwrapped.  The one within-module name rebound is
``search.enumerate_structures``, the generator that ``find_countermodel`` and
``soundness_harness`` iterate; it is timed inside each ``next()``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from types import SimpleNamespace

# (module, attribute): every function a qciore module imports from another
# qciore module, and search.enumerate_structures (see the module docstring).
REBOUND = (
    ("qciore.matrix3", "parse_formula"),
    ("qciore.structures", "free_vars"),
    ("qciore.structures", "make_triple"),
    ("qciore.structures", "triple_from_map"),
    ("qciore.structures", "triple_op"),
    ("qciore.hilbert", "free_vars"),
    ("qciore.hilbert", "is_free_for"),
    ("qciore.hilbert", "is_tautology3"),
    ("qciore.hilbert", "replace_some_matches"),
    ("qciore.hilbert", "substitute"),
    ("qciore.search", "all_triples"),
    ("qciore.search", "assignments_over"),
    ("qciore.search", "enumerate_formulas"),
    ("qciore.search", "enumerate_structures"),
    ("qciore.search", "eval_formula"),
    ("qciore.search", "free_vars"),
    ("qciore.search", "instantiate"),
    ("qciore.search", "is_valid_in"),
    ("qciore.search", "make_structure"),
    ("qciore.search", "make_triple"),
    ("qciore.search", "possibly_free"),
    ("qciore.search", "schema_metavariables"),
    ("qciore.search", "substitute"),
    ("qciore.modeltheory", "assignments_over"),
    ("qciore.modeltheory", "enumerate_formulas"),
    ("qciore.modeltheory", "eval_formula"),
    ("qciore.modeltheory", "free_vars"),
    ("qciore.modeltheory", "make_structure"),
    ("qciore.modeltheory", "make_triple"),
    ("qciore.modeltheory", "sentence_trichotomy"),
    ("qciore.cli", "all_twist_pairs"),
    ("qciore.cli", "all_twist_triples"),
    ("qciore.cli", "check_proof_sequence"),
    ("qciore.cli", "classical_equality"),
    ("qciore.cli", "dagger"),
    ("qciore.cli", "ddagger"),
    ("qciore.cli", "elementary_equiv_bounded"),
    ("qciore.cli", "elementary_sub_bounded"),
    ("qciore.cli", "enumerate_formulas"),
    ("qciore.cli", "eval_formula"),
    ("qciore.cli", "find_countermodel"),
    ("qciore.cli", "formula_to_str"),
    ("qciore.cli", "free_vars"),
    ("qciore.cli", "is_substructure"),
    ("qciore.cli", "is_valid_in"),
    ("qciore.cli", "lifted_quantifier"),
    ("qciore.cli", "make_structure"),
    ("qciore.cli", "make_triple"),
    ("qciore.cli", "pair_op"),
    ("qciore.cli", "parse_formula"),
    ("qciore.cli", "sentence_trichotomy"),
    ("qciore.cli", "tarski_conditions"),
    ("qciore.cli", "twist_triple_op"),
)

# (module, function): the public functions the workloads call themselves.
BENCH_CALLS = (
    ("qciore.syntax", "enumerate_formulas"),
    ("qciore.syntax", "parse_formula"),
    ("qciore.structures", "assignments_over"),
    ("qciore.structures", "eval_formula"),
    ("qciore.structures", "formula_triple"),
    ("qciore.search", "enumerate_structures"),
    ("qciore.search", "find_countermodel"),
    ("qciore.search", "soundness_harness"),
    ("qciore.hilbert", "check_proof_sequence"),
    ("qciore.matrix3", "is_tautology3"),
    ("qciore.modeltheory", "induced_substructure"),
    ("qciore.modeltheory", "tarski_conditions"),
    ("qciore.modeltheory", "elementary_sub_bounded"),
    ("qciore.modeltheory", "elementary_equiv_bounded"),
    ("qciore.cli", "parse_proof"),
    ("qciore.cli", "main"),
)


def boundary_name(fn) -> str:
    """``module.function`` of the defining module, without the package."""
    return "%s.%s" % (fn.__module__.removeprefix("qciore."), fn.__name__)


def plain_api() -> SimpleNamespace:
    """The functions of ``BENCH_CALLS``, unwrapped, by function name."""
    return SimpleNamespace(
        **{
            name: getattr(importlib.import_module(mod), name)
            for mod, name in BENCH_CALLS
        }
    )


class Tracer:
    """Spans and per-boundary statistics for one traced run."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[dict] = []
        self._children: list[float] = []  # nested boundary time, per open call
        self._depth: dict[str, int] = {}
        self._open_spans: list[int] = []
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        )
        self._open_spans.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._open_spans.pop()]["end"] = time.perf_counter()

    # -- boundaries --------------------------------------------------------

    def _stat(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0}
        return st

    def _enter(self, name: str) -> float:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._children.append(0.0)
        return time.perf_counter()

    def _exit(self, st: dict, name: str, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        nested = self._children.pop()
        st["self_s"] += elapsed - nested
        self._depth[name] -= 1
        if self._depth[name] == 0:  # count a boundary re-entered through another module once
            st["total_s"] += elapsed
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, fn):
        """A timing wrapper for ``fn``; generators are timed inside each ``next()``."""
        name = boundary_name(fn)
        st = self._stat(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st["calls"] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        t0 = self._enter(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._exit(st, name, t0)
                        st["items"] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st["calls"] += 1
            t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(st, name, t0)

        return wrapper

    def api(self) -> SimpleNamespace:
        """``plain_api()`` with every function wrapped."""
        return SimpleNamespace(
            **{name: self.wrap(fn) for name, fn in vars(plain_api()).items()}
        )

    def install(self) -> None:
        """Rebind every ``REBOUND`` attribute to a wrapper of its original."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for mod, attr in REBOUND:
                module = importlib.import_module(mod)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every rebound attribute back to its original object."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
