"""One reference measurement of a large ``magazine`` (about 10 MiB).

    python3 exchbench/reference.py

Enforces one generated magazine (``ARTICLES`` articles, seed ``SEED``)
once per driver, timed, then once per driver under tracemalloc, and
checks every output against the expected document.  Prints one JSON object.  This is a one-off figure for the
README, not part of the benchmark's runs.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

ARTICLES = 18000
SEED = 1


def main() -> int:
    from exchbench.library import MIB, OK, Library

    library = Library("magazine", SEED, session=False, units=ARTICLES)
    size = library.work.nbytes / MIB
    out = {"articles": ARTICLES, "input_mib": size}
    for route, op in (("dom", library.dom), ("stream", library.stream)):
        gc.collect()
        started = time.perf_counter()
        status = op()
        seconds = time.perf_counter() - started
        gc.collect()
        tracemalloc.start()
        try:
            traced_status = op()
            peak = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
        out[route] = {"seconds": seconds, "mb_s": size / seconds, "peak_mib": peak,
                      "correct": status == OK and traced_status == OK}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
