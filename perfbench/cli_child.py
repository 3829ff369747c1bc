"""Run one kummer-asym CLI request in this fresh interpreter and time it.

Usage (PYTHONPATH must hold the package's src directory):

    python3 perfbench/cli_child.py verify --nmax 10
    python3 perfbench/cli_child.py --trace verify --nmax 10

The request is timed from the cold import of the CLI to the end of its main,
between two speed calibrations (speed.py) taken in this process: a child
runs for as little as 0.1 s, and the machine's speed can change between
the parent's calibrations and the child's run.  Nothing the package may
import is imported before the timing starts.  With --trace the request
runs under the tracer.  The CLI's own output comes back with the timing as
one JSON line: {"returncode", "stdout", "stderr", "seconds", "calibrations",
"summary"}; summary is null without --trace.
"""

import contextlib
import io
import sys
import time

from speed import calibration_s


def main(argv) -> int:
    traced = argv[:1] == ["--trace"]
    argv = argv[traced:]
    if traced:
        from tracing import Tracer, install_probes

        tracer = Tracer()
    before = calibration_s()
    t0 = time.perf_counter()
    from kummer_asym import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if traced:
            install_probes(tracer)
            try:
                returncode = tracer.call("cli", cli.main, argv)
            finally:
                tracer.restore()
        else:
            returncode = cli.main(argv)
    seconds = time.perf_counter() - t0
    after = calibration_s()
    import json  # after the timing: the CLI may import it itself

    print(json.dumps({"returncode": returncode, "stdout": stdout.getvalue(),
                      "stderr": stderr.getvalue(), "seconds": seconds,
                      "calibrations": [before, after],
                      "summary": tracer.summary() if traced else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
