"""Benchmark of the wignerfluct CLI on three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/wignerfluct``.  One
closed-loop client issues the workload's CLI command (``python3 -m
wignerfluct.cli``) one at a time, each in a fresh interpreter, until the
next command would end after S seconds; the first command always runs.
BLAS and OpenMP use one thread.  Every command's output is checked against
the references in ``references.json`` and against compare's own verdict.
Before the loop, ``child.py setup`` runs SETUP_REPEATS times, each in a
fresh interpreter.

With ``--trace 0`` the metrics are ``wall_s`` (median command wall time),
``setup_s`` (median time of ``import wignerfluct``, ``cli.parse_config``
and one family build per N) and ``peak_rss_mb`` (the largest peak resident
memory of a workload command).  The run itself stays small and does not
load numpy, because a child's peak counts its parent's memory at exec.

With ``--trace 1`` untraced and traced commands alternate; the metrics are
the per-layer figures of ``tracer.layer_metrics`` (medians over the
traced commands) and ``trace.overhead_s``, the traced median wall time
minus the untraced one.

The last line of standard output is the result object; the line before it
is a record with the environment, every sample and ``fail_frac``.  The run
exits with 2, printing no result, when the checkout has no program.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_output, load_references, make_config  # noqa: E402

SETUP_REPEATS = 7
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Start no command after NO_START_S, and kill one still running at KILL_S,
# so that a run ends well within 180 seconds.
NO_START_S = 120.0
KILL_S = 170.0


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, timeout, workdir):
    """(wall seconds, exit code, stdout, peak RSS in KiB) of one fresh interpreter.

    A child still running after ``timeout`` seconds is killed, and its exit
    code is then negative.
    """
    err_path = os.path.join(workdir, "stderr.txt")
    start = time.perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable] + argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=err, text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # wait4: this child's own rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:  # interrupted: stop and reap the child
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        with open(err_path) as fh:
            sys.stderr.write(fh.read()[-2000:])
    return wall, proc.returncode, out, usage.ru_maxrss


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed, setup):
    return {
        "git_sha": git_sha(),
        "python": setup.get("python"),
        "numpy": setup.get("numpy"),
        "blas": setup.get("blas"),
        "thread_pins": THREAD_PINS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload_seed": seed,
    }


def summary(values):
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": len(values),
        "values": values,
    }


def measure(name, seed, seconds, traced, workdir):
    spec = WORKLOADS[name]
    refs = load_references()[name]
    doc, order = make_config(name, seed)
    config = os.path.join(workdir, "config.json")
    with open(config, "w") as fh:
        json.dump(doc, fh)
    cli_args = [spec["command"], "--config", config]
    began = time.perf_counter()
    checked = wrong = 0

    child = os.path.join(HERE, "child.py")
    setups = []
    for _ in range(SETUP_REPEATS):
        _, code, out, _ = run_child([child, "setup", config], 60, workdir)
        checked += 1
        if code != 0:
            wrong += 1
            continue
        setups.append(json.loads(out))
    if not setups:
        raise RuntimeError("every set-up run failed")

    walls = {"plain": [], "traced": []}
    peak_kb = 0
    layers = []
    kinds = ["plain", "traced"] if traced else ["plain"]
    spans = os.path.join(workdir, "spans.json")
    deadline = time.perf_counter() + seconds
    for kind in itertools.cycle(kinds):
        timeout = began + KILL_S - time.perf_counter()
        if kind == "plain":
            wall, code, out, rss = run_child(["-m", "wignerfluct.cli"] + cli_args, timeout, workdir)
            peak_kb = max(peak_kb, rss)
        else:
            wall, code, out, _ = run_child([child, "trace", spans] + cli_args, timeout, workdir)
            if code >= 0 and os.path.exists(spans):
                with open(spans) as fh:
                    layers.append(layer_metrics(json.load(fh)))
                os.remove(spans)
        walls[kind].append(wall)
        n_checked, n_wrong = check_output(name, order, code, out, refs)
        checked += n_checked
        wrong += n_wrong
        now = time.perf_counter()
        typical = statistics.median(walls["plain"] + walls["traced"])
        if all(walls[k] for k in kinds) and (
            now + typical > deadline or now - began > NO_START_S
        ):
            break

    setup_s = [s["setup_s"] for s in setups]
    record = {
        "workload": name,
        "command": spec["command"],
        "client": "closed loop, 1 client, 1 command at a time, fresh interpreter each",
        "env": environment(seed, setups[0]),
        "setup_s": summary(setup_s),
        "wall_s": summary(walls["plain"]),
        "checked": checked,
        "wrong": wrong,
        "fail_frac": wrong / checked,
    }
    if traced:
        record["traced_wall_s"] = summary(walls["traced"])
        metrics = {}
        for key, (_, unit) in (layers[0].items() if layers else ()):
            metrics[key] = {"value": statistics.median(m[key][0] for m in layers), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls["traced"]) - statistics.median(walls["plain"]),
            "unit": "s",
        }
    else:
        metrics = {
            "wall_s": {"value": record["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": wrong == 0, "attempted": checked, "failed": wrong, "metrics": metrics}
    return record, result


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds: the running child is killed, workdir removed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wignerfluct", "cli.py")):
        print("no program: %s has no src/wignerfluct" % ROOT, file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        record, result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
