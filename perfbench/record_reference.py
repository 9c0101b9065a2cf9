"""Record the digests of canonical forms that every run checks.

Run from the root of a checkout after a change that is meant to alter a
canonical form (an abstraction result or a CFG rendering):

    python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SEED = 7


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import REFERENCE_FILE
    from perfbench.workloads import WORKLOADS, digest

    out = {"seed": REFERENCE_SEED}
    for name, wl in WORKLOADS.items():
        corpus = wl.corpus(random.Random(REFERENCE_SEED), wl.reference_size)
        out[name] = digest(wl.reference_forms(corpus))
    REFERENCE_FILE.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
