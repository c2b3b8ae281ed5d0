"""Write bench/expected.json: the outputs the benchmark's checks compare with.

    python3 bench/record_expected.py

Run it from the repository root on the commit whose outputs later commits
must reproduce.  It runs one pass of every workload at the default seed and
records each value the checks look up: exact ex/z values, glue_family and
symmetric-graph certificates, and digests of the seeded outputs.  The checks
that need no record (OEIS tables, witness re-checks, cap verification,
relabelling invariance) must already pass here, or nothing is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, run_pass

sys.path.insert(0, str(ROOT / "src"))

from edgeglue import canon, graphs  # noqa: E402
from workloads import DEFAULT_SEED, SYMMETRIC, WORKLOADS, Ledger  # noqa: E402


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    recorded = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.setup(DEFAULT_SEED, str(OUT_DIR))
        ledger = Ledger({}, record=True)
        try:
            res = run_pass(workload.jobs(inputs, 0), ledger)
        finally:
            workload.cleanup(inputs)
        if ledger.problems:
            print("\n".join(ledger.problems[:20]), file=sys.stderr)
            return 1
        recorded[name] = ledger.expected
        print(f"{name}: {res.attempted} jobs, {len(ledger.expected)} recorded values, {res.wall:.1f} s")
    # the pipeline sees the symmetric graphs under one fixed relabelling; the
    # unrelabelled graphs must give the same certificates
    for name, (n, edges, _) in SYMMETRIC.items():
        form = canon.canonical_form(graphs.LabeledGraph(n, edges)).bytes.decode()
        if form != recorded["pipeline"][f"canonical_form {name}"]:
            print(f"{name}: certificate depends on the labelling", file=sys.stderr)
            return 1
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
