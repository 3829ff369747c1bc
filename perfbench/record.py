"""Record the benchmark's reference data.

    python3 perfbench/record.py

Writes, under perfbench/data:

- digests.json: sha256 of the stdout of every ``coeffs`` and ``temme``
  request the workloads can send (K = 2..20).  Exact output is unique, so a
  digest that moves is a finding, not noise.
- references.json: lhs and rhs of every config of the full acceptance
  product, from mpmath's own special functions in a private 50-digit
  context (reference.py), as (log|w|, arg w).
- known_wrong.json: the ok rows of the full product, in both modes, that miss
  those references by more than the tolerance when this is run.
- known_errors.json: the rows of the full product, in both modes, that raise
  when this is run, with the exception class.

Re-record only after a deliberate change of output.
"""

import hashlib
import json
import subprocess
import sys

import run
from reference import REF_DPS
from workloads import COMMANDS, command_argv, design_blocks


def record_digests() -> dict:
    digests = {}
    for command in COMMANDS:
        if command == "verify":
            continue
        for k in range(2, 21):
            argv = command_argv(command, k)
            proc = subprocess.run([sys.executable, "-m", "kummer_asym.cli", *argv],
                                  cwd=run.ROOT, env=run.child_env(),
                                  capture_output=True, check=True)
            digests[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    return digests


def record_references() -> dict:
    from kummer_asym.expansion import expansion_tables
    from kummer_asym.special.types import Precision
    from reference import Reference, config_key

    reference = Reference(expansion_tables())
    rows = {}
    for block in design_blocks():
        for cell in block:
            for cfg in cell.configs(Precision.double()):
                args = (cfg.variant, cfg.b, cfg.z.r, cfg.z.theta, cfg.u_theta,
                        cfg.t, cfg.order)
                lhs, rhs = reference.sides(*args)
                rows[config_key(*args)] = [*lhs, *rhs]
    return dict(sorted(rows.items()))


def record_known_holes():
    """(wrong ok rows, {erroring row: exception class}) of the full product."""
    from kummer_asym.special.types import Precision

    wrong, errors = [], {}
    for mode in ("double", "dd"):
        checker = run.RowChecker(mode, known_wrong=set(), known_errors={})
        run.run_cells(design_blocks(), Precision.from_mode(mode), run.FULL, checker)
        wrong += sorted(key for key, _ in checker.unexpected)
        errors.update(sorted(checker.new_errors))
        print(f"{mode}: {len(checker.unexpected)} wrong ok rows, "
              f"{len(checker.new_errors)} rows raised", file=sys.stderr)
    return wrong, errors


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.DATA.mkdir(exist_ok=True)

    def write(name, payload):
        (run.DATA / name).write_text(json.dumps(payload, indent=1) + "\n")

    write("digests.json", record_digests())
    write("references.json", {"dps": REF_DPS, "rows": record_references()})
    wrong, errors = record_known_holes()
    write("known_wrong.json", {"tolerance": run.TOLERANCE, "rows": wrong})
    write("known_errors.json", {"rows": errors})
    return 0


if __name__ == "__main__":
    sys.exit(main())
