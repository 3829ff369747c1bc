"""Benchmark of kummer-asym: seeded sweeps and exact tables, end to end and per layer.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload sweep-dd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Workloads.  All load comes from this one process, closed loop, one client:
a cell or request starts only when the previous one has finished; there are
no threads and at most one child process at a time.

  sweep-dd      decay_sweep cells (3 variants x 3 t x 3 N) in Precision.dd():
                one balanced block of 24 of the 96 acceptance-axis cells,
                repeated in seeded order; the U quadrature and mpmath
                arithmetic.
  sweep-double  the same kind of cells in Precision.double(), all 96 of the
                product, repeated in seeded order; per-point overhead, and
                most of the known failures (5 pi/2, integer b).
  exact-tables  CLI requests (verify, coeffs AB|ab, temme at K 8..20) in
                seeded order, each in a fresh interpreter; the exact
                ratpoly/olver/temme path.

``--trace 0`` times the workload for ``--seconds`` (whole repetitions of its
unit of cells, or whole rounds of requests; see run_cells) and reports the
end-to-end metrics.  Each time is scaled to the machine's nominal speed by
calibrations taken just before and after the item (speed.py); the raw
figures are printed beside them.  ``--trace 1``
runs a fixed seeded list twice, untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  ``--smoke`` runs every workload
in both modes on a tiny input set, untimed.

Outputs are checked off the timed path: sweep rows against references that
record.py computed with mpmath (reference.py), within a stated per-mode
tolerance; CLI output against recorded digests and the verify PASS lines.
Lines starting with '#' report the environment, every metric by its workload
name and unit, and failure diagnostics; the last line is one JSON object with
the keys correct, attempted, failed and metrics.

Two failure counts.  ``fail_frac`` is every sweep row that raised or came out
wrong, and every CLI request that failed, over the attempts: the known holes
(arg z = 5 pi/2, integer b, the quietly wrong rows of known_wrong.json) show
there.  ``failed`` in the JSON line counts only the attempts that came out
worse than when the benchmark was written: a row that raises or is wrong
where the recorded run (data/known_errors.json, data/known_wrong.json) was
right, or a failed request.  It is 0 on the commit that recorded them.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import mpmath
import mpmath.libmp

from reference import config_key, deviation, load_recorded
from speed import SpeedProbe, bracket_factor
from tracing import Tracer, install_probes, layer_metrics, merge_summaries
from workloads import K_GRID, cell_units, request_rounds

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
DATA = HERE / "data"

WORKLOADS = ("sweep-dd", "sweep-double", "exact-tables")

# Relative accuracy an ok sweep row must reach against the reference.  1e-6
# is the kernels' own cancellation-guard limit; dd values leave the package
# as doubles (LogComplex), so dd is held to 1e-9.
TOLERANCE = {"double": 1e-6, "dd": 1e-9}

REQUEST_TIMEOUT_S = 150

# exact-tables: a request that took less than REPEAT_BELOW_S (nominal) is sent
# until it has REPEATS runs, and each request counts with its median.  A
# short request can run at either of the machine's two speeds (speed.py), and
# the median and tail of a round sit on requests of 0.3 to 0.7 s; repeating
# them costs about 10 s a run, repeating the long ones would cost 35 s.
REPEAT_BELOW_S = 1.0
REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

VERIFY_IDENTITIES = (
    "recursion-resubstitution", "lowered-recursion", "shifted-equals-lowered",
    "normalizer-reciprocal", "lowered-equals-iterated",
    "odd-ratio-coefficients-vanish", "slope-bridge", "origin-bridge",
)

SWEEP_SETUP = """
from kummer_asym.expansion import expansion_tables
from kummer_asym.special.types import Precision
Precision.{mode}().ctx
expansion_tables()
"""

CLI_SETUP = """
import kummer_asym.cli
"""


def timed_child_code(body: str) -> str:
    """Python source that runs `body` cold and prints its seconds and the
    speed calibrations taken right before and after it (speed.py)."""
    return "\n".join([
        "import sys, time",
        f"sys.path.insert(0, {str(HERE)!r})",
        "from speed import calibration_s",
        "before = calibration_s()",
        "t0 = time.perf_counter()",
        body.strip(),
        "seconds = time.perf_counter() - t0",
        "print(seconds, before, calibration_s())",
    ])


@dataclass(frozen=True)
class Plan:
    """Input sizes of one run; SMOKE shrinks every one of them."""

    setup_repeats: int = 7
    unit_cells: int = 96
    t_values: tuple = (10.0, 20.0, 40.0)
    orders: tuple = (1, 2, 3)
    trace_cells: tuple = (("dd", 8), ("double", 96))
    k_grid: tuple = K_GRID
    trace_k_grid: tuple = (8, 12)


FULL = Plan()
SMOKE = Plan(setup_repeats=1, unit_cells=2, t_values=(10.0, 20.0), orders=(1,),
             trace_cells=(("dd", 2), ("double", 2)),
             k_grid=(2,), trace_k_grid=(3,))


# -- environment and helpers ---------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("KUMMER_ASYM_PRECISION", None)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def median_setup(body: str, repeats: int):
    """Median over fresh interpreters of the time `body` takes:
    (nominal-speed seconds, raw seconds)."""
    raw, scaled = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", timed_child_code(body)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S, check=True)
        seconds, *calibrations = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * bracket_factor(calibrations))
    return statistics.median(scaled), statistics.median(raw)


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, count); with ten samples or fewer there is no
    such percentile and the maximum is returned at 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- sweeps ---------------------------------------------------------------

def load_known_holes():
    """Sweep rows that failed when the benchmark was written: the ok rows that
    were quietly wrong (a set of labels) and the rows that raised (label ->
    exception class).  They count in fail_frac but not as failed operations;
    only a wrong row outside the first makes a run incorrect.
    """
    wrong = json.loads((DATA / "known_wrong.json").read_text())["rows"]
    errors = json.loads((DATA / "known_errors.json").read_text())["rows"]
    return set(wrong), errors


class RowChecker:
    """Checks sweep rows against the recorded references as cells finish.

    Only counts and the failed configs are kept, so a long run does not
    hold every result in memory (which would show in peak_rss_mb).
    """

    def __init__(self, mode: str, known_wrong: set, known_errors: dict):
        self.mode = mode
        self.tol = TOLERANCE[mode]
        self.references = load_recorded(DATA / "references.json")
        self.known_wrong = known_wrong
        self.known_errors = known_errors
        self.statuses = Counter()
        self.wrong = Counter()
        self.unexpected = []
        self.new_errors = []
        self.failing = {}

    def add(self, result):
        for row in result.rows:
            self.statuses[row.status] += 1
            cfg = row.config
            key = config_key(cfg.variant, cfg.b, cfg.z.r, cfg.z.theta, cfg.u_theta,
                             cfg.t, cfg.order)
            label = f"{self.mode}|{key}"
            if row.status != "ok":
                self.failing[cfg] = None
                if label not in self.known_errors:
                    self.new_errors.append((label, row.status))
                continue
            lhs, rhs = self.references[key]
            miss = max(deviation(row.result.lhs, lhs), deviation(row.result.rhs, rhs))
            if not miss <= self.tol:
                known = label in self.known_wrong
                self.wrong["known" if known else "new"] += 1
                if not known:
                    self.unexpected.append((label, miss))

    @property
    def attempted(self) -> int:
        return sum(self.statuses.values())

    @property
    def holes(self) -> int:
        """Rows that raised or came out wrong: the numerator of fail_frac."""
        return self.attempted - self.statuses["ok"] + sum(self.wrong.values())

    @property
    def failed(self) -> int:
        """Rows that came out worse than when the benchmark was written."""
        return len(self.new_errors) + self.wrong["new"]


def run_cells(units, prec, plan: Plan, checker: RowChecker, probe=None, seconds=None):
    """Run whole units of cells; with `seconds`, start another unit only while
    it is expected, at the mean unit time so far, to end within `seconds`.

    Each result goes to `checker`; `probe` calibrates between cells and once
    more at the end.  Returns (cell, raw seconds, calibration mark taken
    before it, or None without a probe) for every cell run.
    """
    from kummer_asym.expansion import decay_sweep

    timed = []
    start = time.perf_counter()
    for done, unit in enumerate(units, 1):
        grids = [(cell, cell.configs(prec, plan.t_values, plan.orders))
                 for cell in unit[:plan.unit_cells]]
        for cell, grid in grids:
            mark = None if probe is None else probe.mark()
            t0 = time.perf_counter()
            result = decay_sweep(grid)
            timed.append((cell, time.perf_counter() - t0, mark))
            checker.add(result)
            if probe is not None:
                probe.tick()
        elapsed = time.perf_counter() - start
        if seconds is not None and elapsed * (done + 1) / done > seconds:
            break
    if probe is not None:
        probe.calibrate()
    return timed


def per_cell_median(timed, seconds) -> list:
    """Median time of each distinct cell over its repetitions in the run.

    A run repeats its unit a number of times that depends on the machine's
    speed; the distinct cells do not, so the latency percentiles are taken
    over them and their slowest cells always sit at the same percentile.
    """
    by_cell = {}
    for (cell, _, _), s in zip(timed, seconds):
        by_cell.setdefault(cell, []).append(s)
    return [statistics.median(v) for v in by_cell.values()]


def diagnose(failing) -> Counter:
    """Re-evaluate each failed config once; name the class, message and the
    wrapped kernel it escaped from (decay_sweep keeps only the class name)."""
    from kummer_asym import expansion

    found = Counter()
    tracer = Tracer()
    install_probes(tracer)
    try:
        for cfg in failing:
            try:
                expansion.evaluate_sides(cfg)
            except Exception as exc:  # recorded and reported, never fatal
                kernel = getattr(exc, "_perfbench_origin", "expansion")
                found[(type(exc).__name__, kernel, str(exc))] += 1
            else:
                found[("none", "-", "succeeded on re-evaluation")] += 1
    finally:
        tracer.restore()
    return found


def traced_sweep(seed: int, mode: str, prec, plan: Plan, checker: RowChecker):
    """Per-layer metrics: the cold table build, then a fixed list of cells,
    each run untraced and at once again traced, so that both runs of a cell
    see the machine in the same state."""
    from kummer_asym import expansion
    from kummer_asym.expansion import decay_sweep

    tracer = Tracer()
    install_probes(tracer)
    try:
        prec.ctx
        expansion.expansion_tables()
    finally:
        tracer.restore()
    cells = itertools.chain.from_iterable(cell_units(seed, mode))
    untraced_s = traced_s = 0.0
    n = dict(plan.trace_cells)[mode]
    for cell in itertools.islice(cells, n):
        grid = cell.configs(prec, plan.t_values, plan.orders)
        t0 = time.perf_counter()
        decay_sweep(grid)
        t1 = time.perf_counter()
        install_probes(tracer)
        try:
            result = tracer.call("cell", decay_sweep, grid)
        finally:
            tracer.restore()
        t2 = time.perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        checker.add(result)
    metrics = layer_metrics(tracer.summary())
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.items"] = n
    return metrics


def sweep_workload(args, mode: str, plan: Plan):
    from kummer_asym import expansion
    from kummer_asym.special.types import Precision

    prec = Precision.from_mode(mode)
    checker = RowChecker(mode, *load_known_holes())
    if args.trace:
        metrics = traced_sweep(args.seed, mode, prec, plan, checker)
    else:
        setup_s, setup_raw = median_setup(SWEEP_SETUP.format(mode=mode),
                                          plan.setup_repeats)
        prec.ctx
        expansion.expansion_tables()
        probe = SpeedProbe()
        timed = run_cells(cell_units(args.seed, mode), prec, plan, checker, probe,
                          seconds=args.seconds)
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        raw_s = [s for _, s, _ in timed]
        cell_s = [s * probe.bracket_factor(mark) for _, s, mark in timed]
        factor = sum(cell_s) / sum(raw_s)
    attempted, failed = checker.attempted, checker.failed
    fail_frac = checker.holes / attempted
    counts = {"cells": metrics["trace.items"] if args.trace else len(timed),
              "configs": attempted, "requests": 0}
    print(f"# counts {json.dumps(counts)}")
    print(f"# rows {json.dumps(dict(checker.statuses))} wrong_ok_rows "
          f"{json.dumps(dict(checker.wrong))} tolerance {checker.tol:g}")
    for key, miss in checker.unexpected[:20]:
        print(f"# unexpected-wrong-row {key} deviation {miss:.3g}")
    for key, status in checker.new_errors[:20]:
        print(f"# unexpected-error-row {key} status {status}")
    correct = not checker.unexpected
    if args.trace:
        metrics["run.fail_frac"] = fail_frac
        return correct, attempted, failed, metrics, {}

    for (cls, kernel, message), n in sorted(diagnose(checker.failing).items(),
                                            key=lambda item: -item[1]):
        print(f"# diagnostic count={n} class={cls} kernel={kernel} message={message}")
    latency = per_cell_median(timed, cell_s)
    raw_latency = per_cell_median(timed, raw_s)
    tail_s, tail_pct, n = tail(latency)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": attempted / sum(cell_s),
        "latency_ms_p50": 1e3 * statistics.median(latency),
        "latency_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": rss,
    }
    report = {
        "setup_s": (setup_s, f"s (raw {setup_raw:.4g})"),
        "points_per_s": (metrics["throughput_per_s"], f"1/s (raw {attempted / sum(raw_s):.4g})"),
        "cell_ms_p50": (metrics["latency_ms_p50"],
                        f"ms (raw {1e3 * statistics.median(raw_latency):.4g})"),
        "cell_ms_tail": (metrics["latency_ms_tail"],
                         f"ms (p{tail_pct:.1f} of n={n} cells, {len(cell_s) // n} run(s) "
                         f"each; raw {1e3 * tail(raw_latency)[0]:.4g})"),
        "fail_frac": (fail_frac, "frac"),
        "peak_rss_mb": (rss, "MB"),
        "speed_factor": (factor, "nominal/actual speed"),
    }
    return correct, attempted, failed, metrics, report


# -- exact tables -----------------------------------------------------------

def check_request(argv, returncode: int, stdout: bytes, digests: dict):
    """None when the output is right, otherwise the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    if argv[0] == "verify":
        lines = stdout.decode().splitlines()
        passed = {m.group(1) for m in map(re.compile(r"^([a-z-]+): PASS \(").match, lines) if m}
        if any(": FAIL" in line for line in lines) or passed != set(VERIFY_IDENTITIES):
            return "verify did not pass every identity"
        if lines[-1] != "all identity checks passed":
            return "verify summary line missing"
        return None
    expected = digests.get(" ".join(argv))
    if expected is None:
        return "no recorded digest"
    if hashlib.sha256(stdout).hexdigest() != expected:
        return "output differs from the recorded digest"
    return None


def run_request(argv, traced: bool):
    """One CLI request in a fresh interpreter, under cli_child.py.

    Returns (returncode, stdout, stderr, raw seconds, nominal-speed seconds,
    trace summary or None).  The seconds are the child's own, scaled by its
    own calibrations; if the child itself fails, they are the parent's.
    """
    command = [sys.executable, str(HERE / "cli_child.py"),
               *(["--trace"] if traced else []), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=REQUEST_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return proc.returncode, proc.stdout, proc.stderr, elapsed, elapsed, None
    payload = json.loads(proc.stdout.decode().splitlines()[-1])
    seconds = payload["seconds"]
    return (payload["returncode"], payload["stdout"].encode(),
            payload["stderr"].encode(), seconds,
            seconds * bracket_factor(payload["calibrations"]), payload["summary"])


class RequestServer:
    """Sends CLI requests one at a time and checks each answer."""

    def __init__(self):
        self.digests = json.loads((DATA / "digests.json").read_text())
        self.failures = Counter()

    def serve(self, requests, traced=False):
        """Returns [(raw seconds, nominal-speed seconds, trace summary)] in
        request order."""
        done = []
        for argv in requests:
            returncode, stdout, stderr, raw, scaled, summary = run_request(argv, traced)
            reason = check_request(argv, returncode, stdout, self.digests)
            if reason:
                detail = stderr.decode(errors="replace").strip().splitlines()[-1:]
                self.failures[(" ".join(argv), ": ".join([reason, *detail]))] += 1
            done.append((raw, scaled, summary))
        return done


def exact_workload(args, plan: Plan):
    server = RequestServer()
    if args.trace:
        # each request untraced and at once again traced (see traced_sweep)
        untraced_s, done = 0.0, []
        for argv in next(request_rounds(args.seed, plan.trace_k_grid)):
            untraced_s += server.serve([argv])[0][0]
            done += server.serve([argv], traced=True)
        metrics = layer_metrics(merge_summaries(s for _, _, s in done if s is not None))
        traced_s = sum(raw for raw, _, _ in done)
        metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        metrics["trace.items"] = len(done)
        attempted = 2 * len(done)
    else:
        setup_s, setup_raw = median_setup(CLI_SETUP, plan.setup_repeats)
        runs = {}  # request -> [(raw seconds, nominal-speed seconds)]

        def send(requests):
            for argv, (raw, scaled, _) in zip(requests, server.serve(requests)):
                runs.setdefault(argv, []).append((raw, scaled))

        start = time.perf_counter()
        for rounds, requests in enumerate(request_rounds(args.seed, plan.k_grid), 1):
            send(requests)
            if time.perf_counter() - start >= args.seconds:
                break
        cheap = [argv for argv, times in runs.items() if times[0][1] < REPEAT_BELOW_S]
        for _ in range(REPEATS - rounds):
            send(cheap)
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        raw_s = [statistics.median(raw for raw, _ in times) for times in runs.values()]
        request_s = [statistics.median(s for _, s in times) for times in runs.values()]
        attempted = sum(map(len, runs.values()))
    failed = sum(server.failures.values())
    print(f"# counts {json.dumps({'cells': 0, 'configs': 0, 'requests': attempted})}")
    for (request, reason), n in server.failures.items():
        print(f"# failed-request count={n} request={request} reason={reason}")
    if args.trace:
        metrics["run.fail_frac"] = failed / attempted
        return failed == 0, attempted, failed, metrics, {}

    total_s = sum(request_s)
    p50_s = statistics.median(request_s)
    tail_s, tail_pct, n = tail(request_s)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": len(request_s) / total_s,
        "latency_ms_p50": 1e3 * p50_s,
        "latency_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": rss,
    }
    report = {
        "setup_s": (setup_s, f"s (raw {setup_raw:.4g})"),
        "total_s": (total_s, f"s (a round at each request's median; raw {sum(raw_s):.4g})"),
        "request_s_p50": (p50_s, f"s (raw {statistics.median(raw_s):.4g})"),
        "request_s_tail": (tail_s, f"s (p{tail_pct:.1f} of n={n} requests; raw "
                                   f"{tail(raw_s)[0]:.4g})"),
        "fail_frac": (failed / attempted, "frac"),
        "peak_rss_mb": (rss, "MB"),
        "speed_factor": (total_s / sum(raw_s), "nominal/actual speed"),
    }
    return failed == 0, attempted, failed, metrics, report


# -- entry point -----------------------------------------------------------

def layer_units() -> dict:
    """Units of the per-layer metrics, derived from their names."""
    names = list(layer_metrics(merge_summaries([]))) + [
        "trace.overhead_frac", "trace.items", "run.fail_frac"]
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_frac"):
            units[name] = "frac"
        elif name.endswith("_bits"):
            units[name] = "bits"
        else:
            units[name] = "count"
    return units


def run_one(args, plan: Plan) -> dict:
    print(f"# env {json.dumps(environment(args))}")
    if args.workload == "exact-tables":
        result = exact_workload(args, plan)
    else:
        result = sweep_workload(args, args.workload.split("-")[1], plan)
    correct, attempted, failed, metrics, report = result
    for name, (value, unit) in report.items():
        print(f"# metric {name} {value!r} {unit}")
    units = layer_units() if args.trace else E2E_UNITS
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload, untraced and traced, on tiny inputs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kummer_asym" / "__init__.py").is_file():
        print(f"error: no kummer_asym package under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.smoke:
        print(json.dumps(run_one(args, FULL)))
        return 0
    results = []
    for workload, trace in itertools.product(WORKLOADS, (0, 1)):
        one = argparse.Namespace(**{**vars(args), "workload": workload,
                                    "trace": trace, "seconds": 0.0})
        results.append(run_one(one, SMOKE))
        print(f"# smoke {workload} trace={trace} {json.dumps(results[-1])}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
