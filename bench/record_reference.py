"""Record bench/reference.json: the sha256 of every call's output in one pass
of each workload at the default seed.

    python3 bench/record_reference.py

The benchmark then requires byte-identical output at the default seed.  Record
only from a commit whose outputs are the intended ones; a call whose output
fails its property checks is not recorded and the script exits 1.
"""

import json
import sys

import harness
import workloads
from run import WORK, _import_ewm_cli


def main() -> int:
    cli = _import_ewm_cli()
    reference, bad = {}, 0
    for name in workloads.NAMES:
        calls = workloads.build(name, workloads.DEFAULT_SEED, WORK / f"reference-{name}")
        results = harness.run_pass(cli.run_command, calls)
        for r in results:
            if not r.ok:
                print(f"{name}/{r.call.label}: {r.reason}", file=sys.stderr)
                bad += 1
        reference[name] = {r.call.label: r.digest for r in results}
    if bad:
        return 1
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
