"""Fixed reference work that touches no rangegov code: the host's yardstick.

On a shared host the same op takes up to 1.6x longer for minutes at a time,
and CPU time rises with wall time, so the slowdown is in the machine, not in
the program. run.py times this work just before every set-up repetition and
every op (as a child process, `python3 bench/calibrate.py`, for set-up and
the CLI workloads; as `work()` inside the analytics-hot worker) and scales
each of those times to the speed at which the yardstick takes its reference
time. It does what the ops do, in the same proportions: interpreter start
and numpy import (child form), float-to-Decimal conversion, JSON text in and
out, and numpy arithmetic.
"""
import gc
import json
from decimal import Decimal

import numpy as np

_Q12 = Decimal("0.000000000001")


def work() -> int:
    """About 0.05 s of work in small chunks, so it adds little to peak RSS.

    The cyclic collector is off meanwhile: with it on, the time would depend
    on how many objects the calling process holds, that is on the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> int:
    total = 0
    for k in range(40):
        values = 100.0 + np.sin(np.arange(k * 200, (k + 1) * 200) * 0.37)
        decimals = [Decimal(repr(float(v))).quantize(_Q12) for v in values]
        text = json.dumps({"rows": [{"i": i, "v": str(d)} for i, d in enumerate(decimals)]},
                          sort_keys=True, indent=2)
        rows = json.loads(text)["rows"]
        back = np.array([float(r["v"]) for r in rows])
        total += len(rows) + int(np.count_nonzero(np.diff(np.cumsum(back)) > 0))
    return total


if __name__ == "__main__":
    work()
