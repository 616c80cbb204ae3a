"""Record reference values for the pooled cases that have no closed form.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json from the package under src/.  The
committed file was recorded at the commit that introduced the benchmark;
re-record only when a change is meant to move these values, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import REFERENCE_PATH, load_arclab, pool_cases  # noqa: E402


def main():
    cases = pool_cases(load_arclab())
    values = {key: thunk() for key, thunk in sorted(cases.items())}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(values)} reference values written to {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
