"""Time one fresh set-up of bmobell: the import plus one small call into each layer.

Run as a script from the checkout root, it prints the seconds taken.  The
calls fill the cached quadrature rules and make the first seminorm scan
pick its pair kernel, so every later call in the process is warm.  This
module imports nothing heavy before the clock starts.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def touch_layers(B, cli):
    pa = B.Params(1.0, 3.0)
    B.m_fn(1.0, 1.0, 0.5)
    B.k_fn(1.0, 1.0, 1.5)
    B.classify(pa, (0.0, 1.0, 0.5))
    B.bellman2d(pa, 0.0, 1.0, "upper")
    B.value(pa, (0.3, 0.8, 0.7))
    B.value_batch(pa, [[0.3, 0.8, 0.7], [1.4, 2.9, 1.58]])
    B.bmo_norm(B.random_step_fn(1, 4, 1.0), 3)
    B.moments(B.build_ladder(2, 0.1, 1), 3.0)
    B.sharp_constant(1.0, 3.0)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["constant", "--p", "1", "--r", "3"])


def main() -> None:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import bmobell
    import bmobell.cli

    touch_layers(bmobell, bmobell.cli)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
