"""Child process of a library run: the tracemalloc peak of one pass.

    python3 exchbench/peak.py --workload magazine --seed 1 --route json

Sets the workload up as a run does, then enforces its document once
(``json``: the DOM pass, ``stream``: the streamed pass) under
tracemalloc and prints ``{"peak_mib": ..., "status": ...}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]


def main(argv=None) -> int:
    from exchbench.library import MIB, Library

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("magazine", "digest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--route", required=True, choices=("json", "stream"))
    args = parser.parse_args(argv)
    library = Library(args.workload, args.seed, session=False)
    gc.collect()
    tracemalloc.start()
    try:
        status = library.dom() if args.route == "json" else library.stream()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps({"peak_mib": peak / MIB, "status": status}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
