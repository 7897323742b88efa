"""One fresh interpreter of the benchmark.

    python3 perfbench/child.py setup CONFIG
        Times ``import wignerfluct``, ``cli.parse_config`` and one family
        build per N, and prints it as JSON with the library versions.
    python3 perfbench/child.py trace SPANS_OUT CLI_ARG...
        Runs ``wignerfluct.cli.main(CLI_ARG...)`` with the tracer installed,
        writes the spans to SPANS_OUT and exits with the CLI's exit code.

``src`` must be on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import json
import platform
import sys
import time


def setup(config):
    start = time.perf_counter()
    import wignerfluct.cli as cli

    cfg = cli.parse_config(config)
    for n in cfg.n_list:
        cfg.family(n)
    seconds = time.perf_counter() - start

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }))
    return 0


def trace(spans_out, cli_args):
    import wignerfluct.cli as cli
    from tracer import Tracer  # found beside this script

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2]))
    if mode == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    sys.exit("unknown mode %r" % mode)
