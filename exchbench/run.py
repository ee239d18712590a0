"""Run one benchmark workload and print its metrics as one JSON line.

    python3 exchbench/run.py --workload magazine --seed 1 --seconds 15 --trace 0

Workloads are ``magazine``, ``digest`` and ``gateway`` (see README.md).
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The program is imported from the
``src`` directory next to this one; no ``REPRO_*`` variable is read, so
the program's defaults are what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

WORKLOADS = ("magazine", "digest", "gateway")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    import repro

    source = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        parser.error("repro was imported from %s, not from %s" % (repro.__file__, source))

    if args.workload == "gateway":
        from exchbench import gateway as workload
    else:
        from exchbench import library as workload
    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if "samples" in result:
        print("samples per route: %s" % result["samples"], file=sys.stderr)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
