"""Record one benchmark run per workload in ``bench/BENCH_<workload>.json``.

    python3 bench/record.py

For each workload of ``perfbench/workloads.py`` in turn it runs
``perfbench/run.py --workload W --seed 1 --seconds 40 --trace 0`` from the
root of the checkout, and writes the run's last two lines, its environment
record and its result, with three figures the run does not record: the
checkout's git commit, the value of PYTHONDONTWRITEBYTECODE (without a
bytecode cache every command compiles the package, which moves
``setup_s``) and the minor page faults of the run and its children.  A run
that exits nonzero stops the script, and its workload keeps its last file.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_ARGS = ["--seed", "1", "--seconds", "40", "--trace", "0"]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def assemble(stdout, sha, dont_write_bytecode, minor_faults):
    """The bench file's document: a run's last two lines and three figures."""
    record, result = [json.loads(line) for line in stdout.splitlines()[-2:]]
    return {
        "git_sha": sha,
        "PYTHONDONTWRITEBYTECODE": dont_write_bytecode,
        "child_minor_faults": minor_faults,
        "record": record,
        "result": result,
    }


def main():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    sha = git_sha()
    for name in sorted(WORKLOADS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", name]
            + RUN_ARGS,
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if run.returncode != 0:
            print("run.py --workload %s exited %d" % (name, run.returncode), file=sys.stderr)
            return 1
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        doc = assemble(run.stdout, sha, os.environ.get("PYTHONDONTWRITEBYTECODE"), faults)
        with open(os.path.join(HERE, "BENCH_%s.json" % name), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("%s: %s" % (name, json.dumps(doc["result"]["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
