"""One fresh-interpreter start of a workload, for the ``setup_s`` metric.

Imports ``qindirect.cli``, does the workload's program-side set-up and runs
its first item, then prints one JSON line with: the ``time.monotonic()``
reading when the item returned (a clock all processes share on Linux, so
the parent can subtract its own reading from before the start), the seconds
spent drawing inputs (which the parent subtracts too), the speed of the
reference loop measured right after the item, and the output check.
Usage: ``python3 coldstart.py <workload> <seed>``.
"""

import json
import sys
import time

import env

env.use_checkout_source()

from workloads import WORKLOADS, load_package  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = WORKLOADS[name](seed, load_package())
    t0 = time.perf_counter()
    draws = wl.setup_draws()
    raw = wl.draw(0)
    draw_s = time.perf_counter() - t0
    wl.setup(draws)
    out = wl.run(wl.prepare(raw))
    done = time.monotonic()
    from reference import Reference
    ref = Reference()
    ref.iterate(20)  # first calls of a fresh process run slow
    rate = ref.rate()
    print(json.dumps({"done": done, "draw_s": draw_s, "rate": rate,
                      "check": wl.check(raw, out)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
