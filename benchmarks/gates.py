"""Correctness gates run before any timing; a failed gate voids the run.

Two more gates need the timed units and are checked in ``run.py``:
bit-identical ``cnn_val_loss`` across the sweep passes of one seed, in
this process and in a fresh interpreter, and the MUSIC hit rate at high
SNR.
"""

from __future__ import annotations

import math

from echodoa import doa_music, neural, signal_sim

from phases import CHECK_SNR_DB, Context, Tally, echo_blocks, synthesize

GRID_STEP_DEG = doa_music.MusicOptions().grid_step_deg
# a grid-quantized top peak shifts the other members of an aliased set
# by up to a few grid steps once mapped back through asin
AMBIGUITY_TOL_DEG = 2 * GRID_STEP_DEG
CAST_TOL_DEG = 1e-3
CAST_SAMPLES = 8
GRAD_TOL = 1e-4


def _noiseless_music(config, spacing_wl, doa_deg):
    geometry = signal_sim.ArrayGeometry.pair(spacing_wl * signal_sim.wavelength(config))
    wave = signal_sim.synthesize_echo(signal_sim.SourceScenario(doa_deg, 1.0),
                                      geometry, config)
    return doa_music.estimate_doa_music(signal_sim.to_baseband(wave, config),
                                        geometry, config)


def music_exact() -> tuple[bool, float]:
    est = _noiseless_music(signal_sim.SimConfig(), 0.5, 30.0)
    err = abs(est.angle_deg - 30.0)
    return est.status == doa_music.CONVERGED and err <= GRID_STEP_DEG / 2, err


def aliased_ambiguity() -> tuple[bool, float]:
    est = _noiseless_music(signal_sim.SimConfig(), 1.5, 30.0)
    err = min(abs(a - 30.0) for a in est.ambiguity_deg)
    ok = (est.status == doa_music.CONVERGED and len(est.ambiguity_deg) > 1
          and err <= AMBIGUITY_TOL_DEG)
    return ok, err


def cast_agreement(ctx: Context, seed: int) -> tuple[bool, float]:
    """float32 ``predict_doa`` against a float64 forward of the same weights."""
    spec = ctx.checkpoint.spec
    echoes = [e for e in next(echo_blocks(seed)) if e.snr_db >= CHECK_SNR_DB]
    worst = 0.0
    compared = 0
    for echo in echoes[:CAST_SAMPLES]:
        base = signal_sim.to_baseband(synthesize(ctx, echo), ctx.config)
        est = neural.predict_doa(ctx.checkpoint, base)
        if est.status != doa_music.CONVERGED:
            continue
        rows = neural.baseband_to_input(base, spec)
        ref = float(neural.forward(spec, ctx.checkpoint.params, rows[None])[0])
        worst = max(worst, abs(est.angle_deg - ref * neural.ANGLE_SCALE_DEG))
        compared += 1
    return compared > 0 and worst <= CAST_TOL_DEG, worst


def gradients() -> tuple[bool, float]:
    report = neural.grad_check(neural.REDUCED_SPEC)
    return report.max_rel_error < GRAD_TOL, report.max_rel_error


def run_gates(ctx: Context, seed: int, tally: Tally) -> dict:
    """All pre-timing gates; each counts as one attempted operation."""
    checks = {
        "music_noiseless_30deg_err_deg": music_exact,
        "aliased_ambiguity_err_deg": aliased_ambiguity,
        "predict_float32_vs_float64_deg": lambda: cast_agreement(ctx, seed),
        "grad_check_max_rel_error": gradients,
    }
    results = {}
    for name, check in checks.items():
        tally.attempted += 1
        try:
            ok, value = check()
        except Exception as exc:      # a crashing gate is a failed gate
            ok, value = False, math.nan
            tally.fail(f"gate {name}: {type(exc).__name__}: {exc}")
        else:
            if not ok:
                tally.fail(f"gate {name}: {value}")
        results[name] = {"passed": ok, "value": value}
    return results
