"""Spans and work counts around the package's public functions.

The benchmark installs wrappers from outside the package. Modules import
functions by name (`experiment` holds its own reference to
`genuinize_perturbed`, `cli` to `train_gmm`, ...), so a wrapper replaces
every module attribute that *is* the original function, not just the
definition site. Feature extractors are reached through the registry, so
`lfcc` is wrapped with `register_extractor`. A target that no longer exists
is skipped and its metrics are simply absent from the report.

Spans nest per thread. A span opened on a thread with no open span (a
worker thread of the matrix pool) is parented to the outermost span open on
the thread that started tracing. Self time is a span's duration minus the
union of its children's intervals, so overlapping children in two worker
threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import sys
import threading
import time
from collections import defaultdict

from wavespoof.errors import ToolError

# One E-step over n rows of width f against k components runs four
# (n x f) by (f x k) GEMMs: the quadratic term, the cross term, and the
# two weighted sums. Each is 2*n*f*k flops.
_ESTEP_GEMMS = 4


class Tracer:
    """In-memory span recorder with per-layer work counters."""

    def __init__(self):
        self.spans = []  # [id, name, parent, start, end]
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one [id, name, parent, start, end] span around a block."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else self._root
        with self._lock:
            span = [len(self.spans), name, parent, time.perf_counter(), None]
            self.spans.append(span)
        if self._root is None:
            self._root = span[0]
        stack.append(span)
        try:
            yield span
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            if self._root == span[0]:
                self._root = None

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def layer_totals(self) -> dict:
        """{name: (calls, self seconds)} over all closed spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[2] is not None and span[4] is not None:
                children[span[2]].append((span[3], span[4]))
        totals = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span[4] is None:
                continue
            covered = 0.0
            reach = span[3]
            for start, end in sorted(children[span[0]]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            entry = totals[span[1]]
            entry[0] += 1
            entry[1] += (span[4] - span[3]) - covered
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}


# -- work counters ----------------------------------------------------------


def _rows(features) -> int:
    return int(getattr(features, "frames", features).shape[0])


def _count_read(tracer, args, kwargs, result):
    tracer.add("waveform.read_wav.bytes", 2 * len(result))


def _count_write(tracer, args, kwargs, result):
    w = args[1] if len(args) > 1 else kwargs["w"]
    tracer.add("waveform.write_wav.bytes", 2 * len(w))


def _genuinize_counter(mode):
    def count(tracer, args, kwargs, result):
        tracer.add(f"genuinize.{mode}.samples", len(result))

    return count


def _count_lfcc(tracer, args, kwargs, result):
    tracer.add("features.lfcc.frames", result.frames.shape[0])


def _count_train(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs["features"]
    n = _rows(rows)
    iters = 0 if result.loglik_trace is None else len(result.loglik_trace)
    tracer.add("gmm.train_gmm.rows", n)
    tracer.add("gmm.train_gmm.em_iters", iters)
    flops = _ESTEP_GEMMS * 2 * n * result.num_features * result.num_components * iters
    tracer.add("gmm.estep_gflop_computed", flops / 1e9)


def _count_score(tracer, args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["features"]
    tracer.add("gmm.score_trial.rows", _rows(rows))


# (layer, defining module, attribute, counter or None)
TARGETS = (
    ("waveform.read_wav", "wavespoof.waveform", "read_wav", _count_read),
    ("waveform.write_wav", "wavespoof.waveform", "write_wav", _count_write),
    ("pmf.estimate_pmf", "wavespoof.pmf", "estimate_pmf", None),
    ("pmf.cdf_from_pmf", "wavespoof.pmf", "cdf_from_pmf", None),
    ("vad.energy_vad", "wavespoof.vad", "energy_vad", None),
    ("genuinize.perturbed", "wavespoof.genuinize", "genuinize_perturbed",
     _genuinize_counter("perturbed")),
    ("genuinize.random", "wavespoof.genuinize", "genuinize_random", _genuinize_counter("random")),
    ("gmm.train_gmm", "wavespoof.gmm", "train_gmm", _count_train),
    ("gmm.score_trial", "wavespoof.gmm", "score_trial", _count_score),
    ("gmm.eer_from_scores", "wavespoof.gmm", "eer_from_scores", None),
)

# Work counters of each layer. They read 0 when the layer exists but is
# never called, so every workload reports the same metric names.
_COUNTERS = {
    "waveform.read_wav": ("waveform.read_wav.bytes",),
    "waveform.write_wav": ("waveform.write_wav.bytes",),
    "genuinize.perturbed": ("genuinize.perturbed.samples",),
    "genuinize.random": ("genuinize.random.samples",),
    "features.lfcc": ("features.lfcc.frames",),
    "gmm.train_gmm": ("gmm.train_gmm.rows", "gmm.train_gmm.em_iters", "gmm.train_gmm.reseeds",
                      "gmm.estep_gflop_computed"),
    "gmm.score_trial": ("gmm.score_trial.rows",),
}


def _wrap(tracer: Tracer, layer: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return traced


class _ReseedCounter(logging.Handler):
    """Counts EM re-seed warnings from the gmm logger."""

    def __init__(self, tracer: Tracer):
        super().__init__(level=logging.WARNING)
        self._tracer = tracer

    def emit(self, record):
        if "re-seeding" in record.getMessage():
            self._tracer.add("gmm.train_gmm.reseeds", 1)


class Instrumentation:
    """Installs wrappers for one traced run and removes them afterwards."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.layers = []
        self._undo = []

    def _patch(self, owner, name, value):
        original = getattr(owner, name)
        self._undo.append(lambda: setattr(owner, name, original))
        setattr(owner, name, value)

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "wavespoof" or name.startswith("wavespoof."))]
        for layer, module_name, attr, count in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = _wrap(self.tracer, layer, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
            self.layers.append(layer)
        self._wrap_extractor()
        self._wrap_memo()
        if "gmm.train_gmm" in self.layers:
            gmm_logger = logging.getLogger("wavespoof.gmm")
            handler = _ReseedCounter(self.tracer)
            gmm_logger.addHandler(handler)
            self._undo.append(lambda: gmm_logger.removeHandler(handler))
        for layer in self.layers:
            for counter in _COUNTERS.get(layer, ()):
                self.tracer.add(counter, 0)
        return self

    def _wrap_extractor(self):
        features = sys.modules.get("wavespoof.features")
        try:
            original = features.get_extractor("lfcc")
        except (AttributeError, ToolError):
            return
        features.register_extractor(
            "lfcc", _wrap(self.tracer, "features.lfcc", original, _count_lfcc)
        )
        self._undo.append(lambda: features.register_extractor("lfcc", original))
        self.layers.append("features.lfcc")

    def _wrap_memo(self):
        # The matrix runner memoizes every stage (waveforms, target CDFs,
        # treated audio, features, models) through one helper. A call that
        # runs its build function is a miss, any other call a hit. Two
        # threads that miss the same key both build it: the duplicate work
        # that useful_build_frac exposes.
        runner = getattr(sys.modules.get("wavespoof.experiment"), "_MatrixRunner", None)
        original = getattr(runner, "_memo", None)
        if original is None:
            return
        tracer = self.tracer

        @functools.wraps(original)
        def memo(self, store, key, build):
            built = []

            def counted():
                built.append(True)
                return build()

            value = original(self, store, key, counted)
            tracer.add("experiment.cache_misses" if built else "experiment.cache_hits", 1)
            return value

        self._patch(runner, "_memo", memo)
        tracer.add("experiment.cache_hits", 0)
        tracer.add("experiment.cache_misses", 0)

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False

    def report(self) -> dict:
        """Per-layer calls, self seconds and work counts for this run."""
        out = {}
        totals = self.tracer.layer_totals()
        for layer in self.layers:
            calls, self_s = totals.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        for key, value in self.tracer.counts.items():
            out[key] = value
        return out
