"""In-memory spans around the public functions of each echodoa layer.

A span is opened at the place where the calling module looks a name
up: the benchmark's own calls go through the defining module
(``signal_sim.to_baseband``), calls between layers go through the
caller's module globals (``doa_music.detect_echo_window`` is the name
``estimate_doa_music`` resolves). Installing the tracer swaps those
module attributes for timing wrappers; removing it puts the originals
back. No file of the package is touched.

Each span records its name, the module it was looked up in (``site``),
start, end, parent span, the benchmark operation it belongs to, and a
few attributes taken from the call (batch size, outcome status, file
size). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from dataclasses import dataclass, field


def _batch(args, kwargs, result):
    return {"batch": int(args[2].shape[0])}


def _records_in(args, kwargs, result):
    return {"records": len(args[0])}


def _records_out(args, kwargs, result):
    return {"records": len(result.records)}


def _status(args, kwargs, result):
    return {"status": result.status}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _bytes_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module looked up in, attribute, span name, attribute extractor)
PATCH_POINTS = (
    # benchmark -> signal_sim (stream input generation and baseband)
    ("echodoa.signal_sim", "synthesize_echo", "signal_sim.synthesize_echo", None),
    ("echodoa.signal_sim", "add_awgn", "signal_sim.add_awgn", None),
    ("echodoa.signal_sim", "to_baseband", "signal_sim.to_baseband", None),
    # datasets -> signal_sim (record generation)
    ("echodoa.datasets", "synthesize_echo", "signal_sim.synthesize_echo", None),
    ("echodoa.datasets", "add_awgn", "signal_sim.add_awgn", None),
    ("echodoa.datasets", "to_baseband", "signal_sim.to_baseband", None),
    ("echodoa.datasets", "detect_echo_window", "signal_sim.detect_echo_window", None),
    # MUSIC pipeline and its callers
    ("echodoa.doa_music", "estimate_doa_music", "doa_music.estimate_doa_music", _status),
    ("echodoa.evaluation", "estimate_doa_music", "doa_music.estimate_doa_music", _status),
    ("echodoa.doa_music", "detect_echo_window", "signal_sim.detect_echo_window", None),
    ("echodoa.doa_music", "pseudospectrum", "doa_music.pseudospectrum", None),
    ("echodoa.triangulation", "fuse_doa_with_ranges",
     "triangulation.fuse_doa_with_ranges", None),
    # CNN inference and training
    ("echodoa.neural", "predict_doa", "neural.predict_doa", _status),
    ("echodoa.evaluation", "predict_doa", "neural.predict_doa", _status),
    ("echodoa.neural.training", "detect_echo_window", "signal_sim.detect_echo_window", None),
    ("echodoa.neural.training", "baseband_to_input", "neural.baseband_to_input", None),
    ("echodoa.neural.training", "prepare_inputs", "neural.prepare_inputs", _records_in),
    ("echodoa.neural.training", "backward", "neural.backward", _batch),
    ("echodoa.neural.training", "adam_step", "neural.adam_step", None),
    ("echodoa.neural", "train", "neural.train", None),
    ("echodoa.neural", "save_checkpoint", "neural.save_checkpoint", None),
    ("echodoa.neural", "load_checkpoint", "neural.load_checkpoint", None),
    # research workflow
    ("echodoa.datasets", "generate_dataset", "datasets.generate_dataset", _records_out),
    ("echodoa.datasets", "save_dataset", "datasets.save_dataset", _bytes_written),
    ("echodoa.datasets", "load_dataset", "datasets.load_dataset", _bytes_read),
    ("echodoa.datasets", "split", "datasets.split", None),
    ("echodoa.evaluation", "evaluate", "evaluation.evaluate", None),
    ("echodoa.evaluation", "snr_crossover", "evaluation.snr_crossover", None),
)


@dataclass
class Span:
    name: str
    site: str
    op: int
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; ``install``/``remove`` swap the module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[str] = []        # op id -> kind ("music", "cnn", ...)
        self._op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def begin_op(self, kind: str) -> None:
        """Attribute the spans that follow to a new operation of ``kind``."""
        self.ops.append(kind)
        self._op = len(self.ops) - 1

    def _wrap(self, fn, name, site, extract):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name=name, site=site, op=self._op,
                        parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extract is not None:
                span.attrs.update(extract(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for module_name, attr, name, extract in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, module_name, extract))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span_cost(self, calls: int = 2000, rounds: int = 5) -> float:
        """Seconds one span adds to a call: a wrapped no-op against a bare one.

        Best of ``rounds`` timings of ``calls`` calls each; the spans of
        the wrapped calls go to a throwaway tracer.
        """
        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "noop", "", None)

        def per_call(fn):
            best = math.inf
            for _ in range(rounds):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, time.perf_counter() - t0)
            return best / calls

        return per_call(wrapped) - per_call(noop)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]
