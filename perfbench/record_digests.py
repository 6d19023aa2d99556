"""Record the answer digests the benchmark compares against.

    python3 perfbench/record_digests.py

Runs every query of every workload over the whole instance pool, at both
scales, re-verifies each answer with the independent checks, and writes
``perfbench/digests.json``.  Run it only on a commit whose answers are
known good: later runs treat any other answer as a failure.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run._import_library()
    os.environ.pop("OHG_MAX_SUBSETS", None)
    import checker
    import workloads

    digests, problems = {}, []
    for scale in workloads.SCALES:
        for name, cls in workloads.WORKLOADS.items():
            workdir = run.WORK / f"record-{name}"
            workdir.mkdir(parents=True, exist_ok=True)
            os.chdir(workdir)
            try:
                load = cls(0, scale, everything=True)
                load.begin_round()
                for query in load.round:
                    if query.prepare is not None:
                        query.prepare()
                    answer = query.call()
                    found = query.check(answer)
                    if found:
                        problems.append(f"{query.key}: {'; '.join(found)}")
                    digests[query.key] = checker.digest(query.canon(answer))
            finally:
                run._cleanup(workdir)
            print(f"{scale:5s} {name:15s} {len(load.round):5d} queries")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=0) + "\n")
    print(f"{len(digests)} digests written to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
