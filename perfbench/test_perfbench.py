"""Tests of the benchmark itself: smoke run, contract units, input generators."""

import itertools
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import speed
from reference import Reference, config_key, load_recorded
from run import tail
from workloads import (B_VALUES, COMMANDS, U_THETA_VALUES, UNIT_BLOCKS, Z_R_VALUES,
                       Z_THETA_VALUES, cell_units, command_argv, design_blocks,
                       request_rounds)

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_runs_every_workload_with_the_declared_metrics():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    smoke = [line for line in lines if line.startswith("# smoke ")]
    assert len(smoke) == 2 * len(bench["workloads"])
    for line in smoke:
        _, _, workload, trace, payload = line.split(" ", 4)
        result = json.loads(payload)
        assert workload in {w["name"] for w in bench["workloads"]}
        assert result["correct"] and result["failed"] == 0, line
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared[int(trace.split("=")[1])]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-dd",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_the_design_blocks_are_the_balanced_full_product():
    blocks = design_blocks()
    cells = [cell for block in blocks for cell in block]
    assert len(set(cells)) == len(B_VALUES) * len(Z_R_VALUES) * len(Z_THETA_VALUES) * len(U_THETA_VALUES)
    for block in blocks:
        assert len({(c.b, c.z_r, c.u_theta) for c in block}) == len(block)
        assert set(Counter(c.z_theta for c in block).values()) == {len(block) // len(Z_THETA_VALUES)}


def test_a_unit_repeats_the_same_cells_in_seeded_order():
    first, second = itertools.islice(cell_units(7, "dd"), 2)
    assert sorted(map(repr, first)) == sorted(map(repr, design_blocks()[UNIT_BLOCKS["dd"][0]]))
    assert sorted(map(repr, first)) == sorted(map(repr, second)) and first != second
    assert next(cell_units(7, "dd")) == first
    assert next(cell_units(8, "dd")) != first
    assert len(set(next(cell_units(7, "double")))) == len(design_blocks()) * len(first)


def test_request_rounds_send_every_command_at_every_k():
    requests = next(request_rounds(3, (8, 20)))
    assert sorted(requests) == sorted(command_argv(c, k) for c in COMMANDS for k in (8, 20))
    assert next(request_rounds(3, (8, 20))) == requests


def test_recorded_references_match_a_live_recomputation():
    from kummer_asym.expansion import expansion_tables

    recorded = load_recorded(ROOT / "perfbench" / "data" / "references.json")
    live = Reference(expansion_tables())
    for variant, b, z_theta in (("m", 0.7, 2.5 * math.pi), ("u-lower", 2.0, 2.0 * math.pi),
                                ("u-capital", 1.5, math.pi)):
        args = (variant, b, 2.0, z_theta, 0.3, 20.0, 3)
        for side, (logmag, phase) in zip(recorded[config_key(*args)], live.sides(*args)):
            assert abs(complex(logmag - side[0], phase - side[1])) < 1e-12


def test_tail_keeps_ten_samples_beyond_it():
    value, percentile, n = tail(range(100))
    assert (value, percentile, n) == (89, 90.0, 100)
    assert tail([3, 1, 2]) == (3, 100.0, 3)


def test_bracket_factor_uses_the_calibrations_around_an_item(monkeypatch):
    samples = iter([1.0, speed.NOMINAL_S, 3 * speed.NOMINAL_S])
    monkeypatch.setattr(speed, "calibration_s", lambda: next(samples))
    probe = speed.SpeedProbe(interval_s=0.0)  # a warm-up, then nominal
    mark = probe.mark()
    probe.calibrate()
    assert probe.bracket_factor(mark) == pytest.approx(0.5)
