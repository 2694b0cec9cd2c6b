"""One set-up in a fresh interpreter, timed for ``setup_s``.

Usage: ``python3 benchmarks/cold_setup.py SEED WORKDIR [--sweep]``. It
is started by ``run.py``, whose environment pins BLAS to one thread.

The clock covers importing echodoa and ``phases.setup``, so one-time
costs of a process (first BLAS calls, module-level and lazily filled
caches) count, as they would in a fresh ``echodoa`` command. numpy and
scipy are imported before the clock starts. With ``--sweep``, one sweep
pass follows, outside the clock, and its validation loss is reported
for the cross-process determinism gate. Prints one JSON line.
"""

import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401
import scipy.signal  # noqa: F401

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main() -> int:
    seed, workdir = int(sys.argv[1]), Path(sys.argv[2])
    t0 = time.perf_counter()
    from phases import Tally, setup, sweep_pass
    ctx = setup(seed, workdir)
    out = {"setup_s": time.perf_counter() - t0}
    if "--sweep" in sys.argv[3:]:
        tally = Tally()
        found = sweep_pass(ctx, seed, tally)
        out["val_loss"] = found.val_loss if found else None
        out["failures"] = tally.reasons
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
