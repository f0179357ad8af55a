"""The fixed-seed sweeps of ``make fuzz-smoke``, one summary line each.

Runs every sweep through ``python -m repro fuzz --json`` and prints the
sweep's flags followed by its JSON summary (iterations, steps, action
and fault counts, queries checked) with the host-dependent ``seconds``
dropped.  The output depends only on the code, so ``make fuzz-smoke``
diffs it against the committed ``benchmarks/fuzz_smoke.expected``: a
change to the fuzzer, the fault layer or anything they drive that moves
a summary turns the step red and names the sweep.  A deliberate move
refreshes that file in the same diff and says which line moved and why.

On an invariant violation the failing sweep's one-line repro command
(printed by ``repro fuzz`` on stderr) passes through and the script
exits 1.

Usage::

    PYTHONPATH=src python benchmarks/fuzz_smoke.py > fuzz_smoke.out
"""

import json
import subprocess
import sys

#: 200 default-config iterations plus chord, majority-quorum,
#: hostile-rate and LSM-backend sweeps
SWEEPS = (
    "--seed 0 --iterations 200",
    "--seed 1000 --iterations 60 --overlay chord",
    "--seed 5000 --iterations 60 --write-quorum majority",
    "--seed 9000 --iterations 40 --crash-rate 0.15 --drop-rate 0.45"
    " --delay-rate 0.1 --duplicate-rate 0.1",
    "--seed 3000 --iterations 60 --store-backend lsm",
)


def main():
    for flags in SWEEPS:
        run = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", *flags.split(), "--json"],
            stdout=subprocess.PIPE,
            text=True,
        )
        if run.returncode:
            return run.returncode
        summary = json.loads(run.stdout)
        del summary["seconds"]
        print("%s %s" % (flags, json.dumps(summary, sort_keys=True)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
