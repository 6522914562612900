"""Record reference.json, the gate's summary of every workload's output.

Usage, from the repository root:

    python3 bench/record_reference.py

Each workload runs twice in one worker; the recording is refused unless both
runs are byte-identical and every branch passes the dense check.  Record
again only for a change that is meant to alter results.
"""

import json
import shutil
import sys
from pathlib import Path

import gate
import worker
from workloads import SELFTEST, WORKLOADS


def main():
    root = Path.cwd()
    reference = {}
    for w in [*WORKLOADS.values(), SELFTEST]:
        workdir = root / worker.WORK_ROOT / "record" / w.name
        jobs = worker.launch(root, w.name, 0, False, 0, workdir)["jobs"]
        summary = gate.summarize(w, workdir / "job0", jobs[0]["stdout"])
        problems, _ = gate.check_run(w, jobs, workdir / "job0", summary)
        shutil.rmtree(workdir)
        if problems:
            print("%s: not recorded:\n  %s" % (w.name, "\n  ".join(problems)), file=sys.stderr)
            return 1
        reference[w.name] = summary
        print("%s: recorded" % w.name)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
