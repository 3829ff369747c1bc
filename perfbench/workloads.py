"""Seeded inputs for the three workloads.

Sweep cells come from the acceptance axes.  Their full product (96 cells) is
split once, the same way for every seed, into 4 balanced (Latin) blocks of
24: each block holds every (b, |z|, arg u) combination once and every arg z
six times, and over the 4 blocks each combination meets each arg z once.
A sweep run repeats one unit of cells while time remains, each repetition in
its own seeded order: sweep-double the whole product (a repetition costs a
few seconds), sweep-dd one block (about 20 s at dd's ~0.85 s a cell).
Cell cost varies about tenfold across the axes, so a unit whose cells
depended on the seed would make a run's figures depend on how many
expensive cells the seed drew; simulated from measured dd cell costs, a
seed-drawn balanced block moved the median cell time by 9% and the tail by
13% (quartile distance over median, 200 seeds).  The 5 pi/2 angle and the
integer b = 2 are in every unit, so the known holes keep showing.

Exact-table requests come in rounds: each of the four commands once at each
K of a fixed grid spanning 8..20, in seeded order.  A request costs about 14
times more at K = 20 than at K = 8 (verify: 1 s against 14 s), so drawing K
at random would make a run's figures depend on how many large K the seed
drew; simulated from measured request costs, even one draw per K band moved
the median request time by 13% between seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

B_VALUES = (0.7, 1.5, 2.5, 2.0)
Z_R_VALUES = (0.5, 1.0, 2.0)
Z_THETA_VALUES = (0.0, math.pi, 2.0 * math.pi, 2.5 * math.pi)
U_THETA_VALUES = (0.0, 0.3)
T_VALUES = (10.0, 20.0, 40.0)
ORDERS = (1, 2, 3)

# Design blocks that make up one unit of each sweep.  Block 2 has the most
# rows that failed when the benchmark was written (78 of its 648 dd rows:
# b = 2 at 5 pi/2, half-integer b at 2 pi), so the holes show in dd too.
UNIT_BLOCKS = {"double": (0, 1, 2, 3), "dd": (2,)}

K_GRID = (8, 12, 16, 20)
COMMANDS = ("verify", "coeffs-AB", "coeffs-ab", "temme")


@dataclass(frozen=True)
class Cell:
    """One decay_sweep call: every variant x t x N at one (b, z, arg u)."""

    b: float
    z_r: float
    z_theta: float
    u_theta: float

    def configs(self, prec, t_values=T_VALUES, orders=ORDERS):
        from kummer_asym.expansion import VARIANTS, ExpansionConfig
        from kummer_asym.special.types import RiemannPoint

        z = RiemannPoint(self.z_r, self.z_theta)
        return [ExpansionConfig(variant=variant, b=self.b, z=z, t=t,
                                u_theta=self.u_theta, order=order, prec=prec)
                for variant in VARIANTS for t in t_values for order in orders]


def design_blocks() -> List[List[Cell]]:
    """The full product split into 4 balanced blocks of 24 (fixed, seedless)."""
    rng = random.Random("cells-design")
    combos = [(b, zr, ut) for b in B_VALUES for zr in Z_R_VALUES
              for ut in U_THETA_VALUES]
    angles = list(Z_THETA_VALUES)
    rng.shuffle(combos)
    rng.shuffle(angles)
    n_angles = len(angles)
    return [[Cell(b, zr, angles[(i + j) % n_angles], ut)
             for i, (b, zr, ut) in enumerate(combos)] for j in range(n_angles)]


def cell_units(seed: int, mode: str) -> Iterator[List[Cell]]:
    """Endless repetitions of the mode's unit (UNIT_BLOCKS), each repetition
    shuffled by the seed."""
    rng = random.Random(f"cells-{seed}")
    blocks = design_blocks()
    cells = [cell for i in UNIT_BLOCKS[mode] for cell in blocks[i]]
    while True:
        unit = list(cells)
        rng.shuffle(unit)
        yield unit


def command_argv(command: str, k: int) -> Tuple[str, ...]:
    """CLI arguments of one exact-table request."""
    if command == "verify":
        return ("verify", "--nmax", str(k))
    if command == "temme":
        return ("temme", "--nmax", str(k))
    variant = command.split("-")[1]
    return ("coeffs", "--order", str(k), "--variant", variant)


def request_rounds(seed: int, k_grid=K_GRID) -> Iterator[List[Tuple[str, ...]]]:
    """Endless stream of rounds: every command once at every K, shuffled."""
    rng = random.Random(f"requests-{seed}")
    while True:
        requests = [command_argv(command, k) for command in COMMANDS for k in k_grid]
        rng.shuffle(requests)
        yield requests
