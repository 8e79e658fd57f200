"""Tracing ``ergofilt`` from outside: spans, matvec counts and allocation peaks.

``Tracer.installed(modules)`` replaces the functions of each program module,
in that module's own namespace, with wrappers that record a span (name,
start, end, parent, run id) around every call. The program reaches its layers
through module attributes (``filters.chebyshev_apply``, ``markov.make_chain``)
or module globals (``gibbs_distribution`` inside ``chains``), so the wrappers
see the real call tree, and no program file changes.

In a counting run the wrapped ``markov.make_chain`` returns the chain with
its n-by-n arrays replaced by ``CountingOperator`` views. Every product taken
with such an operator is charged, column by column, to the innermost open
span, and the top-level span of each filter records its ``tracemalloc`` peak.
Counting runs are kept apart from timing runs, so neither the counting views
nor ``tracemalloc`` slow the spans whose times are reported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time
import tracemalloc
from collections import defaultdict
from typing import NamedTuple

import numpy as np

MODULES = ("cli", "harness", "chains", "markov", "densela", "filters")
FILTERS = ("ergodic", "bernstein", "chebyshev", "legendre")
FILTER_GROUPS = tuple(f"filters.{name}" for name in FILTERS)

# Private functions wrapped as well, because their time belongs to a named layer.
PRIVATE_WRAPPED = ("cli._config_from_args", "cli._parse_signal")

# Wrapped function -> the group its self time and calls are charged to.
# Filter functions named ``<filter>_*`` go to ``filters.<filter>``; anything
# else goes to ``<module>.other``.
GROUPS = {
    "cli.cli_main": "cli.main_self",
    "cli.main": "cli.main_self",
    "cli.build_parser": "cli.parse",
    "cli.parse_args": "cli.parse",
    "cli._config_from_args": "cli.parse",
    "cli._parse_signal": "cli.parse",
    "harness.run_experiment": "harness.run_experiment_self",
    "harness.generate_signal": "harness.generate_signal",
    "harness.metadata_comment": "harness.emit",
    "harness.emit_csv": "harness.emit",
    "harness.emit_json": "harness.emit",
    "chains.build_cycle_walk": "chains.build",
    "chains.build_glauber_cycle": "chains.build",
    "chains.gibbs_distribution": "chains.gibbs",
    "chains.glauber_energy": "chains.gibbs",
    "chains.cycle_lambda_low": "chains.lambda_low",
    "chains.glauber_lambda_low": "chains.lambda_low",
    "chains.glauber_m_matrix": "chains.lambda_low",
    "markov.validate_chain": "markov.validate",
    "markov.make_chain": "markov.make_chain",
    "markov.laplacian": "markov.make_chain",
    "densela.symmetric_eigen": "densela.eigen",
    "filters.triangle": "filters.bernstein",
    "filters.max_abs_error": "filters.max_abs_error",
}

# Per-layer metrics: name -> (unit, how the figure is obtained).
PER_LAYER = {
    "chains.build_s": ("s", "measured"),
    "chains.gibbs_s": ("s", "measured"),
    "chains.lambda_low_s": ("s", "measured"),
    "markov.validate_s": ("s", "measured"),
    "markov.make_chain_s": ("s", "measured"),
    "markov.operator_bytes": ("B", "computed from array sizes"),
    "densela.eigen_s": ("s", "measured"),
    "densela.eigen_calls": ("count", "counted"),
    **{
        f"filters.{name}.{metric}": spec
        for name in FILTERS
        for metric, spec in (
            ("apply_s", ("s", "measured")),
            ("calls", ("count", "counted")),
            ("matvecs", ("count", "counted")),
            ("s_per_matvec", ("s/matvec", "measured time / counted matvecs")),
            ("peak_alloc_mb", ("MiB", "measured by tracemalloc")),
        )
    },
    "filters.bytes_per_matvec": ("B/matvec", "computed from operator size"),
    "filters.max_abs_error_s": ("s", "measured"),
    "harness.generate_signal_s": ("s", "measured"),
    "harness.emit_s": ("s", "measured"),
    "harness.run_experiment_self_s": ("s", "measured"),
    "cli.parse_s": ("s", "measured"),
    "cli.main_self_s": ("s", "measured"),
    "trace.overhead_s": ("s", "measured: traced minus untraced run, median over adjacent rounds"),
}


def group_of(qualname: str) -> str:
    if qualname in GROUPS:
        return GROUPS[qualname]
    module, name = qualname.split(".", 1)
    if module == "filters":
        for filt in FILTERS:
            if name.startswith(filt + "_"):
                return f"filters.{filt}"
    return f"{module}.other"


class CountingOperator(np.ndarray):
    """View of a chain's n-by-n array that reports every product it enters.

    A product with m columns counts as m matvecs. Elementwise results of the
    same shape (``2 L - c I``, ``I - L/2``) stay counting operators, so the
    operators a filter derives from the chain are counted too.
    """

    def __array_finalize__(self, obj):
        self.tracer = getattr(obj, "tracer", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(x.view(np.ndarray) if isinstance(x, CountingOperator) else x for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, CountingOperator) else x for x in kwargs["out"]
            )
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            left, right = inputs[0], inputs[1]
            if isinstance(left, CountingOperator):
                columns = 1 if np.ndim(right) == 1 else np.shape(right)[-1]
                self.tracer.count_product(columns, left.nbytes)
            elif isinstance(right, CountingOperator):
                columns = 1 if np.ndim(left) == 1 else np.shape(left)[0]
                self.tracer.count_product(columns, right.nbytes)
            return result
        if method == "__call__" and isinstance(result, np.ndarray) and result.shape == self.shape:
            return counting_view(result, self.tracer)
        return result


def counting_view(array: np.ndarray, tracer: "Tracer") -> CountingOperator:
    view = array.view(CountingOperator)
    view.tracer = tracer
    return view


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    run_id: int
    counting: bool
    name: str
    group: str
    start: float
    end: float
    self_s: float  # end - start minus the time covered by child spans
    top: bool  # the parent span belongs to another group


class _Open:
    __slots__ = ("span_id", "parent_id", "name", "group", "top", "alloc", "start", "child_s")


class Tracer:
    """Records spans of wrapped program calls; one root ``cli.cli_main`` span per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counting = False  # the next runs hand out counting operators
        self.runs = {False: 0, True: 0}  # runs seen, by counting flag
        self.matvecs = defaultdict(int)  # group -> matvecs
        self.matvec_bytes = defaultdict(int)  # group -> operator bytes x matvecs
        self.peak_alloc = defaultdict(int)  # group -> largest tracemalloc peak of a top-level span
        self.operator_bytes = 0  # n-by-n bytes held by the chains built in counting runs
        self._stack: list[_Open] = []
        self._next_id = 0
        self._run_id = 0

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap the public functions (and ``PRIVATE_WRAPPED``) of each module."""
        after = {"cli.build_parser": self._after_build_parser, "markov.make_chain": self._after_make_chain}
        patched = []
        try:
            for short, module in modules.items():
                for name, fn in list(vars(module).items()):
                    qualname = f"{short}.{name}"
                    if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                        continue
                    if name.startswith("_") and qualname not in PRIVATE_WRAPPED:
                        continue
                    setattr(module, name, self.wrap(qualname, fn, after.get(qualname)))
                    patched.append((module, name, fn))
            yield self
        finally:
            for module, name, fn in reversed(patched):
                setattr(module, name, fn)

    def wrap(self, qualname: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(qualname)
            try:
                result = fn(*args, **kwargs)
                return after(result) if after is not None else result
            finally:
                self._exit(frame)

        return traced

    def _after_build_parser(self, parser):
        parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
        return parser

    def _after_make_chain(self, chain):
        if not self.counting:
            return chain
        operators = {
            f.name: getattr(chain, f.name)
            for f in dataclasses.fields(chain)
            if isinstance(getattr(chain, f.name), np.ndarray) and getattr(chain, f.name).ndim == 2
        }
        self.operator_bytes += sum(array.nbytes for array in operators.values())
        return dataclasses.replace(
            chain, **{name: counting_view(array, self) for name, array in operators.items()}
        )

    # -- spans and counts ----------------------------------------------------

    def _enter(self, name: str) -> _Open:
        frame = _Open()
        frame.span_id = self._next_id
        self._next_id += 1
        frame.name = name
        frame.group = group_of(name)
        if self._stack:
            parent = self._stack[-1]
            frame.parent_id = parent.span_id
            frame.top = parent.group != frame.group
        else:
            frame.parent_id = None
            frame.top = True
            self._run_id += 1
            self.runs[self.counting] += 1
        frame.alloc = self.counting and frame.top and frame.group in FILTER_GROUPS
        if frame.alloc:
            tracemalloc.start()
        frame.child_s = 0.0
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Open):
        end = time.perf_counter()
        self._stack.pop()
        if frame.alloc:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_alloc[frame.group] = max(self.peak_alloc[frame.group], peak)
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child_s += duration
        self.spans.append(
            Span(
                frame.span_id, frame.parent_id, self._run_id, self.counting, frame.name,
                frame.group, frame.start, end, duration - frame.child_s, frame.top,
            )
        )

    def count_product(self, columns: int, operator_bytes: int):
        group = self._stack[-1].group if self._stack else "untraced"
        self.matvecs[group] += columns
        self.matvec_bytes[group] += columns * operator_bytes

    # -- results -------------------------------------------------------------

    def groups(self) -> dict[str, dict[str, float]]:
        """Per group, over timing runs: self seconds and top-level calls per run."""
        runs = max(self.runs[False], 1)
        self_s, calls = defaultdict(float), defaultdict(int)
        for span in self.spans:
            if not span.counting:
                self_s[span.group] += span.self_s
                calls[span.group] += span.top
        return {g: {"self_s": self_s[g] / runs, "calls": calls[g] / runs} for g in sorted(self_s)}

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Every ``PER_LAYER`` metric, per run: times and calls from timing
        runs, matvecs, bytes and peaks from counting runs."""
        groups = self.groups()
        counting_runs = max(self.runs[True], 1)

        def self_s(group):
            return groups.get(group, {}).get("self_s", 0.0)

        metrics = {
            f"{group}_s": self_s(group)
            for group in (
                "chains.build", "chains.gibbs", "chains.lambda_low", "markov.validate",
                "markov.make_chain", "densela.eigen", "filters.max_abs_error",
                "harness.generate_signal", "harness.emit", "harness.run_experiment_self",
                "cli.parse", "cli.main_self",
            )
        }
        metrics["markov.operator_bytes"] = self.operator_bytes / counting_runs
        metrics["densela.eigen_calls"] = groups.get("densela.eigen", {}).get("calls", 0.0)
        for group in FILTER_GROUPS:
            apply_s = self_s(group)
            matvecs = self.matvecs[group] / counting_runs
            metrics[f"{group}.apply_s"] = apply_s
            metrics[f"{group}.calls"] = groups.get(group, {}).get("calls", 0.0)
            metrics[f"{group}.matvecs"] = matvecs
            metrics[f"{group}.s_per_matvec"] = apply_s / matvecs if matvecs else 0.0
            metrics[f"{group}.peak_alloc_mb"] = self.peak_alloc[group] / 2**20
        filter_matvecs = sum(self.matvecs[g] for g in FILTER_GROUPS)
        metrics["filters.bytes_per_matvec"] = (
            sum(self.matvec_bytes[g] for g in FILTER_GROUPS) / filter_matvecs if filter_matvecs else 0.0
        )
        metrics["trace.overhead_s"] = overhead_s
        return metrics
