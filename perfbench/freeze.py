"""Record the default seed's inputs and outputs under perfbench/frozen/.

    python3 perfbench/freeze.py

Writes the `region` workload's greedy codes with `write_code`, a manifest of
their parameters, and the SHA-256 digests of every `figures` job output.  The
benchmark checks its default-seed run against these files.  Each frozen code
reproduces its `region` jobs by hand:

    insdel-lab verify theorem --code perfbench/frozen/greedy_seed0_0.code --list-size 2
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
import workloads


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    lib = run.import_library()
    seed = workloads.DEFAULT_SEED
    workloads.FROZEN.mkdir(exist_ok=True)
    manifest = []
    for index, code in enumerate(workloads.greedy_codes(lib, seed)):
        path = workloads.FROZEN / f"greedy_seed{seed}_{index}.code"
        lib.codes.write_code(code, path)
        distance = workloads.min_distance(sorted(w.symbols for w in code.codewords))
        manifest.append(
            {
                "file": path.name,
                "q": code.q,
                "n": code.n,
                "size": code.size,
                "distance": distance,
                "delta": str(Fraction(distance, 2 * code.n)),
                "list_sizes": list(workloads.REGION_LIST_SIZES),
            }
        )
    (workloads.FROZEN / "greedy_seed0.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    digests = {
        name: workloads.output_digest(call())
        for name, call, _, _ in workloads.figure_calls(lib, seed)
    }
    workloads.FIGURE_DIGESTS.write_text(
        json.dumps(digests, indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
