"""Per-layer metrics from the spans of a traced run, and the full-sweep
extrapolation that checks the per-record baselines quoted in ROADMAP.md.

``.ms`` is the median duration of one call, ``.self_ms``/``.self_s`` the
median of duration minus direct children, ``ms_per_record`` and
``mb_per_s`` are totals over totals. Warm-up spans from set-up are left
out; the checkpoint save and load spans of set-up are kept.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from echodoa import neural

from phases import BATCH

EVALUATION_SITE = "echodoa.evaluation"


def backward_flops(spec: neural.NetworkSpec, batch: int) -> int:
    """Floating-point operations of one ``backward`` call, computed from shapes.

    Counts two operations per multiply-add of the GEMMs: the forward
    pass, the weight gradients of every stage and layer, and the input
    gradients of every layer but the first convolution. A convolution
    row offset whose taps all fall in the row padding does no work;
    time padding counts as work, as a dense GEMM does it.
    """
    pad = (spec.kernel_rows - 1) // 2
    rows, time = spec.input_rows, spec.input_time
    in_maps = 1
    conv = []
    for pool_rows, pool_time in spec.pool_schedule():
        covered = sum(max(0, min(rows, rows + pad - dr) - max(0, pad - dr))
                      for dr in range(spec.kernel_rows))
        conv.append(covered * batch * time * spec.kernel_time * in_maps
                    * spec.feature_maps)
        rows //= pool_rows
        time //= pool_time
        in_maps = spec.feature_maps
    widths = (spec.flattened_size, *spec.dense_widths, 1)
    dense = sum(batch * a * b for a, b in zip(widths, widths[1:]))
    macs = 3 * sum(conv) - conv[0] + 3 * dense
    return 2 * macs


def per_layer(tracer, home, home_seconds) -> dict:
    """Every per-layer metric as ``{name: (value, sample count)}``.

    ``home_seconds`` is the time the units of the home kind took.
    """
    spans = defaultdict(list)                     # name -> [(span, self seconds)]
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span.op < 0 or tracer.ops[span.op] != "warmup":
            spans[span.name].append((span, self_s))

    def pick(name, keep=None):
        return [(s, t) for s, t in spans[name] if keep is None or keep(s)]

    def median_ms(name, keep=None, self_time=False):
        rows = pick(name, keep)
        return statistics.median((t if self_time else s.duration) for s, t in rows) * 1e3, len(rows)

    def ratio(name, keep=None):
        rows = pick(name, keep)
        return sum(s.attrs.get("status") == "converged" for s, _ in rows) / len(rows), len(rows)

    def per_record_ms(name, keep=None, count=lambda s: 1):
        rows = pick(name, keep)
        return (sum(s.duration for s, _ in rows) * 1e3 / sum(count(s) for s, _ in rows),
                len(rows))

    def mb_per_s(name):
        rows = pick(name)
        return (sum(s.attrs["bytes"] for s, _ in rows) / 1e6
                / sum(s.duration for s, _ in rows), len(rows))

    in_eval = lambda s: s.site == EVALUATION_SITE
    full_batch = lambda s: s.attrs.get("batch") == BATCH
    cnn_ops = {i for i, kind in enumerate(tracer.ops) if kind == "cnn"}
    detect_in_cnn = sum(1 for s, _ in spans["signal_sim.detect_echo_window"]
                        if s.op in cnn_ops)
    backward_ms, backward_n = median_ms("neural.backward", full_batch)
    train_self, train_n = median_ms("neural.train", self_time=True)

    values = {
        "signal_sim.to_baseband.ms": median_ms("signal_sim.to_baseband"),
        "signal_sim.synthesize_echo.ms": median_ms("signal_sim.synthesize_echo"),
        "signal_sim.add_awgn.ms": median_ms("signal_sim.add_awgn"),
        "signal_sim.detect_echo_window.ms": median_ms("signal_sim.detect_echo_window"),
        "signal_sim.detect_echo_window.calls_per_echo": (
            detect_in_cnn / len(cnn_ops), len(cnn_ops)),
        "doa_music.estimate_doa_music.ms": median_ms("doa_music.estimate_doa_music"),
        "doa_music.pseudospectrum.ms": median_ms("doa_music.pseudospectrum"),
        "doa_music.converged_ratio": ratio("doa_music.estimate_doa_music"),
        "triangulation.fuse_doa_with_ranges.ms": median_ms(
            "triangulation.fuse_doa_with_ranges"),
        "neural.predict_doa.ms": median_ms("neural.predict_doa"),
        "neural.predict_doa.self_ms": median_ms("neural.predict_doa", self_time=True),
        "neural.predict_doa.gate_pass_ratio": ratio("neural.predict_doa"),
        "neural.baseband_to_input.ms": median_ms("neural.baseband_to_input"),
        "neural.backward.ms": (backward_ms, backward_n),
        "neural.backward.gflops": (
            backward_flops(neural.NetworkSpec(), BATCH) / backward_ms / 1e6, backward_n),
        "neural.adam_step.ms": median_ms("neural.adam_step"),
        "neural.prepare_inputs.ms_per_record": per_record_ms(
            "neural.prepare_inputs", count=lambda s: s.attrs["records"]),
        "neural.train.self_s": (train_self / 1e3, train_n),
        "neural.save_checkpoint.ms": median_ms("neural.save_checkpoint"),
        "neural.load_checkpoint.ms": median_ms("neural.load_checkpoint"),
        "datasets.generate_dataset.ms_per_record": per_record_ms(
            "datasets.generate_dataset", count=lambda s: s.attrs["records"]),
        "datasets.save_dataset.mb_per_s": mb_per_s("datasets.save_dataset"),
        "datasets.load_dataset.mb_per_s": mb_per_s("datasets.load_dataset"),
        "datasets.split.ms": median_ms("datasets.split"),
        "evaluation.evaluate.music.ms_per_record": per_record_ms(
            "doa_music.estimate_doa_music", in_eval),
        "evaluation.evaluate.cnn.ms_per_record": per_record_ms(
            "neural.predict_doa", in_eval),
        "evaluation.snr_crossover.ms": median_ms("evaluation.snr_crossover"),
        "trace.overhead_pct": overhead_pct(tracer, home, home_seconds),
    }
    return values


def overhead_pct(tracer, kind, seconds):
    """Time the spans added to the units of ``kind``, in % of the time without them.

    The spans are counted, and each is priced at the measured cost of a
    wrapped no-op call; timing traced against untraced units instead
    would drown an overhead well under 1% in the noise between them.
    """
    ops = {i for i, k in enumerate(tracer.ops) if k == kind}
    spans = sum(1 for s in tracer.spans if s.op in ops)
    added = spans * tracer.span_cost()
    return 100.0 * added / (seconds - added), spans


# the default `echodoa sweep`: 13 angles x 11 SNRs x 40 records, 12 epochs
FULL_RECORDS = 5720
FULL_EPOCHS = 12
FULL_TRAIN_FRACTION = 0.8
# per-record costs quoted in ROADMAP.md item 1 (ms) and its derived totals (s)
ROADMAP_MS = {
    "synthesize_echo": 0.6, "add_awgn": 0.46, "to_baseband": "1.6-1.9",
    "detect_echo_window": 0.05, "estimate_doa_music": 0.38, "predict_doa": 7.5,
    "predict_doa_forward": 4.8, "generate_per_record": 2.0, "backward_batch64": 660.0,
}
ROADMAP_FULL_S = {"generate": 11.0, "train": 660.0}


def extrapolate(metrics, passes) -> dict:
    """Full default sweep from the traced per-layer costs of this run."""
    value = lambda name: metrics[name]["value"]
    full_train = math.ceil(FULL_RECORDS * FULL_TRAIN_FRACTION)
    full_val = FULL_RECORDS - full_train
    steps = FULL_EPOCHS * math.ceil(full_train / BATCH)
    # train() self time is mostly the per-epoch validation forward pass
    val_ms_per_record = statistics.median(
        value("neural.train.self_s") * 1e3 / ((p.records - p.train_records) * p.epochs)
        for p in passes)
    train_s = (steps * (value("neural.backward.ms") + value("neural.adam_step.ms"))
               + FULL_RECORDS * value("neural.prepare_inputs.ms_per_record")
               + FULL_EPOCHS * full_val * val_ms_per_record) / 1e3
    generate_s = FULL_RECORDS * value("datasets.generate_dataset.ms_per_record") / 1e3
    evaluate_s = full_val * (value("evaluation.evaluate.music.ms_per_record")
                             + value("evaluation.evaluate.cnn.ms_per_record")) / 1e3
    return {
        "full_sweep": {"records": FULL_RECORDS, "epochs": FULL_EPOCHS,
                       "train_steps": steps, "held_out": full_val},
        "extrapolated_s": {"generate": generate_s, "train": train_s,
                           "evaluate": evaluate_s,
                           "total": generate_s + train_s + evaluate_s},
        "roadmap_s": ROADMAP_FULL_S,
        "measured_ms": {
            "synthesize_echo": value("signal_sim.synthesize_echo.ms"),
            "add_awgn": value("signal_sim.add_awgn.ms"),
            "to_baseband": value("signal_sim.to_baseband.ms"),
            "detect_echo_window": value("signal_sim.detect_echo_window.ms"),
            "estimate_doa_music": value("doa_music.estimate_doa_music.ms"),
            "predict_doa": value("neural.predict_doa.ms"),
            "predict_doa_forward": value("neural.predict_doa.self_ms"),
            "generate_per_record": value("datasets.generate_dataset.ms_per_record"),
            "backward_batch64": value("neural.backward.ms"),
        },
        "roadmap_ms": ROADMAP_MS,
    }
