"""Set-up probe: a fresh process that imports sjkit, builds the workload's
inputs, performs the first operation and prints ``ready``.

The benchmark starts it several times and times each start up to ``ready``.
The probe then times the reference block (reference.py) for a short while
and prints its median in ns, so that the set-up time can be scaled by the
speed of the same process on the same host moments later.

    python3 perfbench/probe.py --workload single-call --seed 1
"""

from __future__ import annotations

import argparse

import common

common.pin_environment()

REF_WINDOW_S = 0.06


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sk = common.import_sjkit()
    import workloads

    workloads.setup(sk, args.workload, args.seed)
    print("ready", flush=True)

    import reference

    print(reference.Reference().window(REF_WINDOW_S), flush=True)


if __name__ == "__main__":
    main()
