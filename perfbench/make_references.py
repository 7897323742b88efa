"""Write references.json: every theory total and oracle value of the workloads.

    python3 perfbench/make_references.py

Run from the root of a checkout.  The committed file was taken from the
code the benchmark was introduced with; rewriting it from a later commit
would let a changed value pass the check, so do that only when a value is
meant to change, and say why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from run import HERE, ROOT, child_env
from workloads import WORKLOADS, make_config


def reference_rows(name):
    doc, _ = make_config(name, 0, vary=False)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        argv = [sys.executable, "-m", "wignerfluct.cli", WORKLOADS[name]["command"],
                "--config", config]
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, check=True)
    record = json.loads(proc.stdout)
    if WORKLOADS[name]["command"] == "theory":
        rows = [{"theory": row} for row in record["theory"][str(WORKLOADS[name]["N"])]]
    else:
        rows = record["runs"][0]["pairs"]
    out = []
    for row in rows:
        ref = {"theory": [row["theory"]["total"]["re"], row["theory"]["total"]["im"]]}
        if "oracle" in row:
            ref["oracle"] = [row["oracle"]["re"], row["oracle"]["im"]]
        out.append(ref)
    return out


def main():
    refs = {name: reference_rows(name) for name in WORKLOADS}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
