"""Span tracing of cyclat's public entry points, from outside the package.

``Tracer.install()`` replaces every binding of each traced function or
method — in the defining module, in every module that imported it by name,
and on its class — with a wrapper that records one span per call.  A span
is kept in memory as ``(name, start, end, parent, job)`` and written out by
``Tracer.write_spans`` when the run ends.  ``Tracer.uninstall()`` puts the
original objects back, so untraced and traced passes run in one process.

Self time of a span is its duration minus the duration of the traced spans
it directly encloses.  Bookkeeping done after a call returns (counters such
as multiply-adds or coefficient bits) is timed and charged to
``trace.bookkeeping`` instead of to the caller.  The per-layer self times,
the harness's own time inside jobs (``bench.self_s``) and that bucket tile
the traced job time.  ``trace.accounted_frac`` is the layers' share of
the traced job time less bookkeeping, which exists only under tracing, so
cyclat or harness time spent outside every traced function shows as a drop
in it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# Traced targets: (span name, module, attribute path).  The span name's
# first component is the layer.  Names listed in REPORTED get per-function
# metrics; the rest are traced so that their time lands in their own layer
# rather than in whichever caller happened to be traced.
TARGETS = (
    ("intmat.mat_mul", "cyclat.intmat", "mat_mul"),
    ("intmat.mat_pow", "cyclat.intmat", "mat_pow"),
    ("intmat.row_hnf", "cyclat.intmat", "row_hnf"),
    ("intmat.snf", "cyclat.intmat", "snf"),
    ("intmat.solve_exact", "cyclat.intmat", "solve_exact"),
    ("intmat.kernel", "cyclat.intmat", "kernel"),
    ("intmat.hnf_p_saturated", "cyclat.intmat", "hnf_p_saturated"),
    ("intmat.unimodular_inverse", "cyclat.intmat", "unimodular_inverse"),
    ("intmat.col_hnf", "cyclat.intmat", "col_hnf"),
    ("intmat.snf_diagonal", "cyclat.intmat", "snf_diagonal"),
    ("intmat.express_in_colspan", "cyclat.intmat", "express_in_colspan"),
    ("intmat.rank", "cyclat.intmat", "rank"),
    ("intmat.det_mod", "cyclat.intmat", "det_mod"),
    ("lattices.norm_matrix", "cyclat.lattices", "GammaLattice.norm_matrix"),
    ("lattices.relative_norm_matrix", "cyclat.lattices", "GammaLattice.relative_norm_matrix"),
    ("lattices.action_power", "cyclat.lattices", "GammaLattice.action_power"),
    ("lattices.random_unimodular_change", "cyclat.lattices", "random_unimodular_change"),
    ("lattices.mab_lattice", "cyclat.lattices", "mab_lattice"),
    ("lattices.permutation_lattice", "cyclat.lattices", "permutation_lattice"),
    ("lattices.direct_sum", "cyclat.lattices", "direct_sum"),
    ("cohomology.tate_h1", "cyclat.cohomology", "tate_h1"),
    ("cohomology.up_map", "cyclat.cohomology", "up_map"),
    ("cohomology.down_map", "cyclat.cohomology", "down_map"),
    ("cohomology.yakovlev_diagram", "cyclat.cohomology", "yakovlev_diagram"),
    ("finmod.module_init", "cyclat.finmod", "FiniteGammaModule.__init__"),
    ("finmod.minimized", "cyclat.finmod", "FiniteGammaModule.minimized"),
    ("finmod.map_init", "cyclat.finmod", "GammaMap.__init__"),
    ("finmod.recognize_standard_sum", "cyclat.finmod", "recognize_standard_sum"),
    ("finmod.quotient_order_log", "cyclat.finmod", "FiniteGammaModule.quotient_order_log"),
    ("finmod.gamma_generator_indices", "cyclat.finmod", "gamma_generator_indices"),
    ("finmod.image_order_log", "cyclat.finmod", "GammaMap.image_order_log"),
    ("diagrams.check", "cyclat.diagrams", "_check_diagram"),
    ("diagrams.isomorphic", "cyclat.diagrams", "_isomorphism_search"),
    ("diagrams.hom_system", "cyclat.diagrams", "_build_hom_system"),
    ("diagrams.subtract_library", "cyclat.diagrams", "subtract_library"),
    ("diagrams.library_diagram", "cyclat.diagrams", "library_diagram"),
    ("sunits.recover_structure", "cyclat.sunits", "recover_structure"),
    ("sunits.predict_diagram", "cyclat.sunits", "predict_diagram"),
    ("primes.is_prime", "cyclat.primes", "is_prime"),
    ("primes.find_qualifying", "cyclat.primes", "find_qualifying"),
    ("primes.density_report", "cyclat.primes", "density_report"),
    ("cli.main", "cyclat.cli", "main"),
)

LAYERS = ("intmat", "lattices", "cohomology", "finmod", "diagrams", "sunits", "primes", "cli")

# (span name, report calls, report self_s)
REPORTED = (
    ("intmat.mat_mul", True, True),
    ("intmat.mat_pow", True, True),
    ("intmat.row_hnf", True, True),
    ("intmat.snf", True, True),
    ("intmat.solve_exact", True, True),
    ("intmat.kernel", True, True),
    ("intmat.hnf_p_saturated", True, True),
    ("intmat.unimodular_inverse", True, True),
    ("lattices.norm_matrix", True, True),
    ("lattices.relative_norm_matrix", True, True),
    ("lattices.action_power", True, True),
    ("lattices.random_unimodular_change", True, True),
    ("cohomology.tate_h1", True, True),
    ("cohomology.up_map", True, True),
    ("cohomology.down_map", True, True),
    ("cohomology.yakovlev_diagram", True, True),
    ("finmod.module_init", True, True),
    ("finmod.minimized", True, True),
    ("finmod.map_init", True, True),
    ("finmod.recognize_standard_sum", True, True),
    ("diagrams.check", True, True),
    ("diagrams.isomorphic", True, True),
    ("diagrams.hom_system", True, True),
    ("diagrams.subtract_library", True, True),
    ("diagrams.library_diagram", True, True),
    ("sunits.recover_structure", True, True),
    ("sunits.predict_diagram", True, True),
    ("primes.is_prime", True, True),
    ("primes.find_qualifying", True, False),
    ("primes.density_report", True, False),
    ("cli.main", True, False),
)

_COEFF_RESULTS = {
    "intmat.row_hnf",
    "intmat.snf",
    "intmat.solve_exact",
    "intmat.hnf_p_saturated",
}

JOB_SPAN = "bench.job"
MAX_SPANS = 2_000_000  # about 56 MB of span columns


def per_layer_spec():
    """(metric name, unit, better) for every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.self_s", "s", "lower"))
        for name, calls, self_s in REPORTED:
            if name.split(".", 1)[0] != layer:
                continue
            if calls:
                spec.append((f"{name}.calls", "count", "lower"))
            if self_s:
                spec.append((f"{name}.self_s", "s", "lower"))
        if layer == "intmat":
            spec += [
                ("intmat.mat_mul.madds", "count", "lower"),
                ("intmat.mat_mul.nonzero_frac", "frac", "higher"),
                ("intmat.max_coeff_bits", "bits", "lower"),
            ]
        elif layer == "diagrams":
            spec += [
                ("diagrams.iso_yes", "count", "higher"),
                ("diagrams.iso_no", "count", "higher"),
                ("diagrams.iso_unknown", "count", "lower"),
            ]
        elif layer == "sunits":
            spec.append(("sunits.resolved_frac", "frac", "higher"))
    spec += [
        ("bench.self_s", "s", "lower"),
        ("trace.bookkeeping_s", "s", "lower"),
        ("trace.accounted_frac", "frac", "higher"),
        ("trace_overhead_frac", "frac", "lower"),
    ]
    return spec


def _max_bits(obj):
    """Largest entry bit length over a matrix or a tuple of matrices."""
    if isinstance(obj, tuple):
        return max((_max_bits(part) for part in obj), default=0)
    best = 0
    for row in obj:
        if row:
            best = max(best, max(row), -min(row))
    return best.bit_length()


def _resolve(module_name, path):
    """(owner, attribute, original) for a dotted attribute path."""
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """In-memory span recorder with per-name aggregates and counters."""

    def __init__(self):
        self.names = [JOB_SPAN] + [name for name, _, _ in TARGETS]
        # span columns; spans past MAX_SPANS are aggregated but not kept
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.dropped = 0
        self._stack = []  # frames [span index, start, time in child spans, name index]
        self.job_id = -1
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.bookkeeping = 0.0
        self.counters = {
            "madds": 0,
            "left_entries": 0,
            "left_nonzero": 0,
            "max_coeff_bits": 0,
            "iso_yes": 0,
            "iso_no": 0,
            "iso_unknown": 0,
            "resolved": 0,
        }
        self._patches = []

    # -- span recording ---------------------------------------------------

    def _enter(self, name_id):
        start = time.perf_counter()
        index = len(self.span_name)
        if index < MAX_SPANS:
            self.span_name.append(name_id)
            self.span_start.append(start)
            self.span_end.append(start)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_job.append(self.job_id)
        else:
            index = -1
            self.dropped += 1
        self._stack.append([index, start, 0.0, name_id])
        return index

    def _exit(self, index, end, extra=0.0):
        _, start, child, name_id = self._stack.pop()
        if index >= 0:
            self.span_end[index] = end
        duration = end - start
        self.calls[name_id] += 1
        self.self_time[name_id] += duration - child
        if self._stack:
            self._stack[-1][2] += duration + extra

    def job(self, job_id, fn):
        """Run fn() as the root span of one job."""
        self.job_id = job_id
        index = self._enter(0)
        try:
            return fn()
        finally:
            self._exit(index, time.perf_counter())

    def _wrapper(self, name, fn):
        name_id = self.names.index(name)
        enter, exit_ = self._enter, self._exit
        perf = time.perf_counter
        counters = self.counters

        if name == "intmat.mat_mul":

            def after(args, result):
                a, b = args[0], args[1]
                rows = len(a)
                inner = len(a[0]) if rows else 0
                cols = len(b[0]) if b else 0
                counters["madds"] += rows * inner * cols
                counters["left_entries"] += rows * inner
                counters["left_nonzero"] += sum(len(row) - row.count(0) for row in a)

        elif name in _COEFF_RESULTS:

            def after(args, result):
                bits = _max_bits(result)
                if bits > counters["max_coeff_bits"]:
                    counters["max_coeff_bits"] = bits

        elif name == "diagrams.isomorphic":

            def after(args, result):
                key = "iso_" + result[0].name.lower()
                counters[key] += 1

        elif name == "sunits.recover_structure":

            def after(args, result):
                if result.status == "Resolved":
                    counters["resolved"] += 1

        else:
            after = None

        tracer = self

        def wrapper(*args, **kwargs):
            index = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(index, perf())
                raise
            end = perf()
            if after is None:
                exit_(index, end)
                return result
            after(args, result)
            extra = perf() - end
            tracer.bookkeeping += extra
            exit_(index, end, extra)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        """Patch every binding of every target; raises if a target is missing."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for m in list(sys.modules.values()) if m is not None]
        try:
            for name, module_name, path in TARGETS:
                owner, attr, original = _resolve(module_name, path)
                wrapper = self._wrapper(name, original)
                if isinstance(owner, type):
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    namespace = getattr(module, "__dict__", None)
                    if not isinstance(namespace, dict):
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def totals(self):
        """{span name: (calls, self seconds)} over everything recorded."""
        return {
            name: (self.calls[i], self.self_time[i]) for i, name in enumerate(self.names)
        }

    def span_count(self):
        return len(self.span_name)

    def write_spans(self, path):
        """Write the kept spans as gzipped JSON lines: a header, then one array per span.

        Fields are name index, start and end (perf_counter seconds), parent
        span index (-1 at a job root) and job index within the pass.
        """
        header = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "job"],
            "dropped": self.dropped,
        }
        columns = zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(header) + "\n")
            for name_id, start, end, parent, job in columns:
                handle.write(f"[{name_id},{start:.7f},{end:.7f},{parent},{job}]\n")


def layer_metrics(totals, counters, bookkeeping, traced_passes, overhead):
    """Per-layer metric values, each averaged per pass of the job list.

    ``traced_passes`` are the wall times of the traced passes; ``overhead``
    is the traced over untraced pass time, minus 1.
    """
    passes = len(traced_passes)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (
            sum(s for name, (_, s) in totals.items() if name.split(".", 1)[0] == layer)
            / passes
        )
    for name, calls, self_s in REPORTED:
        count, seconds = totals[name]
        if calls:
            values[f"{name}.calls"] = count / passes
        if self_s:
            values[f"{name}.self_s"] = seconds / passes
    entries = counters["left_entries"]
    values["intmat.mat_mul.madds"] = counters["madds"] / passes
    values["intmat.mat_mul.nonzero_frac"] = (
        counters["left_nonzero"] / entries if entries else 0.0
    )
    values["intmat.max_coeff_bits"] = counters["max_coeff_bits"]
    for key in ("iso_yes", "iso_no", "iso_unknown"):
        values[f"diagrams.{key}"] = counters[key] / passes
    recover_calls = totals["sunits.recover_structure"][0]
    values["sunits.resolved_frac"] = (
        counters["resolved"] / recover_calls if recover_calls else 0.0
    )
    values["bench.self_s"] = totals[JOB_SPAN][1] / passes
    values["trace.bookkeeping_s"] = bookkeeping / passes
    layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.accounted_frac"] = layer_sum * passes / (sum(traced_passes) - bookkeeping)
    values["trace_overhead_frac"] = overhead
    return {name: values[name] for name, _, _ in per_layer_spec()}
