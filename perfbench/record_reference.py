"""Record reference.json: the outputs each workload produces for every
input seed the benchmark can make (seed % REFERENCE_SEEDS).

    python3 perfbench/record_reference.py [--workload NAME ...]

Run from the root of a source checkout at the commit whose outputs are the
reference. Each (workload, seed) runs one iteration in a fresh measured
process, exactly as the benchmark does, and keeps the outputs it reports:
per-scenario EERs and the digest of the results CSV without its `seconds`
column for the matrix workloads; the digest of each CLI step's output tree
for batch-genuinize. Entries for workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from run import REFERENCE_FILE, REFERENCE_SEEDS, WORKLOAD_NAMES, run_worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    root = Path.cwd()
    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    for name in args.workload or WORKLOAD_NAMES:
        entries = {}
        for seed in range(REFERENCE_SEEDS):
            result = run_worker(
                root, root / ".perfbench_work" / "record",
                ["--workload", name, "--seed", str(seed), "--seconds", "1", "--record"],
                time.monotonic() + 600,
            )
            iteration = result["iterations"][0]
            if iteration["failed"]:
                raise SystemExit(f"{name} seed {seed}: {iteration['failed']} operations failed")
            entries[str(seed)] = iteration["record"]
            print(f"{name} seed {seed}: {iteration['wall_s']:.2f} s", flush=True)
        reference[name] = entries
        REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
