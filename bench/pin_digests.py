"""Pin the SHA-256 of every invocation's stdout at the default seed.

    python3 bench/pin_digests.py

Rewrites bench/digests.json from the current sources.  It refuses to pin
when any invocation fails its other checks.  Re-pin only when a change to
the CLI's output is intended.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = importlib.import_module("suplat.cli")
    pinned = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".bench-inputs-", dir=run.ROOT) as work:
            calls = workloads.build(workload, run.DEFAULT_SEED, Path(work))
            digests = {}
            for call in calls:
                _, code, out, err = run.invoke(cli, call.argv)
                found = run.problems(call, code, out, err, None)
                if found:
                    print(f"error: {call.key}: {'; '.join(found)}", file=sys.stderr)
                    return 1
                digests[call.key] = hashlib.sha256(out.encode()).hexdigest()
        pinned[workload] = digests
    run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
