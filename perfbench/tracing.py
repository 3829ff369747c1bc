"""In-memory span tracer that wraps kummer_asym functions at their import sites.

Nothing inside the package is edited: ``install_probes`` replaces module and
class attributes with wrappers and ``Tracer.restore`` puts the originals
back.  A wrapped call records a span (name, parent span, start, end); a
layer's self time is its spans' duration minus the time covered by their
child spans.  Multiplications in ``ratpoly`` are only counted, since they run
millions of times on the exact-table path.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

ERROR_CLASSES = ("DomainError", "PoleError", "PrecisionExhaustedError",
                 "QuadratureError")
KERNEL_MODULES = ("special.kummer", "special.quad", "special.bessel",
                  "special.gammafn")


class Tracer:
    """Spans with parent ids, call counters, distinct-input sets, errors.

    Distinct inputs are counted per outermost span, so a unique fraction
    measures the repetition inside one sweep cell or one CLI request.
    """

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._stack = []
        self.calls = Counter()
        self.keys = defaultdict(set)
        self.evals = Counter()
        self.errors = Counter()  # (span name, exception class) -> count
        self.kept = defaultdict(list)
        self._patches = []

    # -- recording -----------------------------------------------------
    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _blame(self, exc, name):
        """Charge an exception to the innermost wrapped call it escaped."""
        if getattr(exc, "_perfbench_origin", None) is None:
            exc._perfbench_origin = name
            self.errors[(name, type(exc).__name__)] += 1

    def traced(self, fn, name, key=None, keep=False, count_arg=None):
        """Wrap fn in a span; optionally record an input key, keep the result,
        or count the calls made to the callable passed as positional arg
        ``count_arg``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if key is not None:
                root = tracer._stack[0] if tracer._stack else -1
                tracer.keys[name].add((root, key(*args, **kwargs)))
            if count_arg is not None:
                inner = args[count_arg]

                def counting(*a, **k):
                    tracer.evals[name] += 1
                    return inner(*a, **k)

                args = args[:count_arg] + (counting,) + args[count_arg + 1:]
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._blame(exc, name)
                raise
            finally:
                tracer._exit(index)
            if keep:
                tracer.kept[name].append(result)
            return result

        return wrapper

    def counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a benchmark-owned span (a sweep cell, a CLI request)."""
        return self.traced(fn, name)(*args, **kwargs)

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------
    def summary(self) -> dict:
        """Per-name totals; plain data so a child process can send it."""
        duration = [end - start for _, _, start, end in self.spans]
        covered = [0.0] * len(self.spans)
        for index, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += duration[index]
        self_s = Counter()
        total_s = Counter()
        for index, (name, _, _, _) in enumerate(self.spans):
            self_s[name] += duration[index] - covered[index]
            total_s[name] += duration[index]
        coeffs = bits = 0
        for table in self.kept["olver.table"]:
            for poly in table.even + table.odd:
                for param_poly in poly.coeffs:
                    for c in param_poly.coeffs:
                        if c:
                            coeffs += 1
                            bits += c.numerator.bit_length() + c.denominator.bit_length()
        return {
            "calls": dict(self.calls),
            "unique": {name: len(keys) for name, keys in self.keys.items()},
            "evals": dict(self.evals),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "errors": {f"{name}|{cls}": n for (name, cls), n in self.errors.items()},
            "table_coeffs": coeffs,
            "table_bits": bits,
        }


def merge_summaries(summaries) -> dict:
    """Sum per-process summaries (distinct inputs are counted per process)."""
    merged = {"calls": Counter(), "unique": Counter(), "evals": Counter(),
              "self_s": Counter(), "total_s": Counter(), "errors": Counter(),
              "table_coeffs": 0, "table_bits": 0}
    for summary in summaries:
        for field, value in summary.items():
            if isinstance(value, dict):
                merged[field].update(value)
            else:
                merged[field] += value
    return merged


def _kummer_key(a, b, x, prec):
    return (a, b, x, prec.mode)


def _bessel_key(nu, point, prec):
    return (complex(nu), point, prec.mode)


def _gamma_key(w, ctx):
    return (w, ctx.name)


def install_probes(tracer: Tracer):
    """Wrap every probed function where the package looks it up."""
    from kummer_asym import cli, expansion, ratpoly
    from kummer_asym.special import bessel, kummer

    def wrap(owner, attr, name, **options):
        tracer.patch(owner, attr, tracer.traced(vars(owner)[attr], name, **options))

    wrap(expansion, "evaluate_sides", "expansion.evaluate_sides")
    wrap(expansion, "expansion_tables", "expansion.tables")
    wrap(expansion, "kummer_u_scaled", "special.kummer.u", key=_kummer_key)
    wrap(expansion, "kummer_m_scaled", "special.kummer.m", key=_kummer_key)
    wrap(expansion, "bessel_i_scaled", "special.bessel.i", key=_bessel_key)
    wrap(expansion, "bessel_k_scaled", "special.bessel.k", key=_bessel_key)
    for module in (expansion, kummer, bessel):
        wrap(module, "log_gamma_ctx", "special.gammafn", key=_gamma_key)
    wrap(kummer, "peak_integral", "special.quad", count_arg=0)
    wrap(ratpoly.CoeffPoly, "evaluate", "ratpoly.evaluate")

    for module in (expansion, cli):
        wrap(module, "compute_coefficient_table", "olver.table", keep=True)
        wrap(module, "lower_coefficients", "olver.lower")
    wrap(cli, "normalizer_series", "olver.normalizer")
    wrap(cli, "shift_basis", "olver.shift")
    wrap(cli, "satisfies_recursion", "olver.recursion_check")
    wrap(cli, "temme_base_series", "temme.base")
    wrap(cli, "temme_iterate", "temme.iterate")
    wrap(cli, "gamma_ratio_coefficients", "temme.gamma_ratio")

    for cls, name in ((ratpoly.ParamPoly, "ratpoly.param_mul"),
                      (ratpoly.CoeffPoly, "ratpoly.coeff_mul"),
                      (ratpoly.TruncSeries, "ratpoly.series_mul")):
        counter = tracer.counted(vars(cls)["__mul__"], name)
        tracer.patch(cls, "__mul__", counter)
        tracer.patch(cls, "__rmul__", counter)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (without units) from a merged summary."""
    calls, unique, self_s = summary["calls"], summary["unique"], summary["self_s"]
    metrics = {
        "expansion.self_s": self_s.get("expansion.evaluate_sides", 0.0),
        "expansion.tables_s": summary["total_s"].get("expansion.tables", 0.0),
        "ratpoly.evaluate_calls": calls.get("ratpoly.evaluate", 0),
        "ratpoly.evaluate_self_s": self_s.get("ratpoly.evaluate", 0.0),
        "ratpoly.param_mul_calls": calls.get("ratpoly.param_mul", 0),
        "ratpoly.coeff_mul_calls": calls.get("ratpoly.coeff_mul", 0),
        "ratpoly.series_mul_calls": calls.get("ratpoly.series_mul", 0),
        "special.quad.calls": calls.get("special.quad", 0),
        "special.quad.evals_per_call": _ratio(summary["evals"].get("special.quad", 0),
                                              calls.get("special.quad", 0)),
        "special.quad.self_s": self_s.get("special.quad", 0.0),
        "special.kummer.m_calls": calls.get("special.kummer.m", 0),
        "special.kummer.m_self_s": self_s.get("special.kummer.m", 0.0),
        "special.gammafn.calls": calls.get("special.gammafn", 0),
        "special.gammafn.unique_frac": _ratio(unique.get("special.gammafn", 0),
                                              calls.get("special.gammafn", 0)),
        "special.gammafn.self_s": self_s.get("special.gammafn", 0.0),
        "olver.table_coeffs": summary["table_coeffs"],
        "olver.table_bits": summary["table_bits"],
        "cli.self_s": self_s.get("cli", 0.0),
    }
    for name in ("special.kummer.u", "special.bessel.i", "special.bessel.k"):
        metrics[f"{name}_calls"] = calls.get(name, 0)
        metrics[f"{name}_unique_frac"] = _ratio(unique.get(name, 0), calls.get(name, 0))
        metrics[f"{name}_self_s"] = self_s.get(name, 0.0)
    for metric, name in (("olver.table_s", "olver.table"), ("olver.lower_s", "olver.lower"),
                         ("olver.normalizer_s", "olver.normalizer"),
                         ("olver.shift_s", "olver.shift"),
                         ("olver.recursion_check_s", "olver.recursion_check"),
                         ("temme.base_s", "temme.base"), ("temme.iterate_s", "temme.iterate"),
                         ("temme.gamma_ratio_s", "temme.gamma_ratio")):
        metrics[metric] = summary["total_s"].get(name, 0.0)
    errors = Counter()
    for label, n in summary["errors"].items():
        name, cls = label.split("|")
        module = next((m for m in KERNEL_MODULES if name.startswith(m)), "expansion")
        errors[module, cls if cls in ERROR_CLASSES else "other"] += n
    for module in KERNEL_MODULES:
        for cls in ERROR_CLASSES + ("other",):
            metrics[f"{module}.errors.{cls}"] = errors[module, cls]
    metrics["expansion.errors"] = sum(n for (module, _), n in errors.items()
                                      if module == "expansion")
    return metrics
