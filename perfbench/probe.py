"""One set-up measurement in a fresh interpreter, so that importing mvsc is
paid again: import mvsc, then load and normalize the workload's inputs and
build each starting state. Writing the inputs is not timed.

    python3 perfbench/probe.py <workload> '<params json>' <seed> <workdir>

Prints one JSON object: {"import_s": ..., "setup_s": ...}.
"""

import json
import sys
import time
from pathlib import Path

import bootstrap


def main(argv: list[str]) -> int:
    name, params, seed, workdir = argv
    bootstrap.pin_process()
    start = time.perf_counter()
    bootstrap.import_mvsc()
    import mvsc.solver  # noqa: F401  (the set-up calls mvsc.solver.initialize)
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    workload = WORKLOADS[name](**json.loads(params))
    workload.prepare(int(seed), Path(workdir))
    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
