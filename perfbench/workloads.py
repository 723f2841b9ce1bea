"""
The four benchmark workloads: which scenario configs each one runs, how the
benchmark seed becomes scenario inputs, and the output checks.

Every tolerance below is a constant of the benchmark.  None is read from a
scenario, so loosening a threshold inside shearlab still fails here.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Tolerances of the output checks.
FORCED_COUETTE_TOL = 1e-8
SEMIGROUP_TOL = 1e-6
DECOMPOSITION_TOL = 1e-6
SIGMA_MIN = 0.9
SPLITTING_TOL = 1e-10
TERM_II_TOL = 1e-6
QUAD_TOL = 1e-7            # equals quad_tol in configs/consistency.ini
NS_NU = 0.5                # equals nu in configs/ns-decay.ini
NS_TOL = 1e-10             # equals tol in configs/ns-decay.ini
NS_RESIDUAL_TOL = 1e-6
DUHAMEL_TOL = 1e-8
H0_GROWTH_SPREAD = 1e-9


class CheckFailed(Exception):
    """An output property does not hold."""


@dataclass
class Check:
    name: str
    fn: Callable                  # fn(out_dirs, shearlab); raises CheckFailed


@dataclass
class Workload:
    name: str
    scenarios: list[str]          # config stems under configs/, run in order
    seed_overrides: Callable      # random.Random -> {scenario: [k=v, ...]}
    checks: list[Check] = field(default_factory=list)


def summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def series(out: Path, name: str) -> tuple[list[float], list[float]]:
    with open(out / f"{name}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [float(r[0]) for r in rows], [float(r[1]) for r in rows]


def below(value, tol: float, what: str) -> None:
    value = float(value)
    if not (math.isfinite(value) and value < tol):
        raise CheckFailed(f"{what} = {value!r}, not below {tol:g}")


def summary_below(scenario: str, key: str, tol: float):
    """A check that ``key`` of the scenario's summary.json is below tol."""
    def check(outs, sl) -> None:
        below(summary(outs[scenario])[key], tol, f"{scenario} {key}")
    return check


# ---------------------------------------------------------------------------
# shear-operator
# ---------------------------------------------------------------------------

def _couette_identity(outs, sl) -> None:
    """S(7, 0) at linear shear returns its input exactly (recomputed on the
    run's grid: the summary keeps only the boolean)."""
    p = sl.config.load_config(CONFIG_DIR / "shear-linear.ini").params
    grid = sl.presets.channel_default(int(p["nx"]), int(p["ny"]))
    w0, _ = sl.presets.couette_resonant_fields(grid)
    defect = sl.core.l2_norm(
        sl.shear.apply_S(7.0, 0.0, w0, sl.shear.couette(grid)) - w0)
    if defect != 0.0:
        raise CheckFailed(f"Couette identity defect {defect!r} is not 0")


def _sigma(outs, sl) -> None:
    sigma = float(summary(outs["shear-linear"])["sigma_fitted"])
    if not sigma >= SIGMA_MIN:
        raise CheckFailed(f"sigma = {sigma!r} < {SIGMA_MIN}")


# ---------------------------------------------------------------------------
# navier-stokes
# ---------------------------------------------------------------------------

def _decay_rate(outs, sl) -> None:
    rate = float(summary(outs["ns-decay"])["rate"])
    floor = 0.9 * NS_NU / 2.0
    if not rate >= floor:
        raise CheckFailed(f"decay rate {rate!r} < {floor}")


def _drift(outs, sl) -> None:
    _, drift = series(outs["ns-decay"], "drift_l2")
    below(max(drift), 10.0 * NS_TOL, "max stationarity drift")


def _fixed_point_residual(outs, sl) -> None:
    """Residual of (y dx - nu Lap) g + (v[g].grad g)_!= = f for the saved
    fixed point, assembled from public core operators."""
    core = sl.core
    p = sl.config.load_config(CONFIG_DIR / "ns-decay.ini").params
    g = core.load_field(outs["ns-decay"] / "stationary_state.field")
    grid = g.grid
    f = sl.presets.ns_forcing(grid, NS_NU, float(p.get("f_fraction", 1.0)))
    transport = core.transform(
        grid, grid.y[None, :] * core.physical(core.ddx(g)))
    vx, vy = core.velocity(core.invert_laplacian(g))
    advect = core.project_nonzero_x(core.multiply(vx, core.ddx(g))
                                    + core.multiply(vy, core.ddy(g)))
    resid = transport - core.apply_laplacian(g) * NS_NU + advect - f
    below(core.l2_norm(resid), NS_RESIDUAL_TOL, "fixed-point residual")


# ---------------------------------------------------------------------------
# closed-forms
# ---------------------------------------------------------------------------

def _h0_quadratic(outs, sl) -> None:
    """Transport preserves L2 and w0 is orthogonal to f0 in x, so
    (h0(t)^2 - h0(0)^2) / t^2 = ||f0||^2 for every t > 0."""
    t, h0 = series(outs["couette-resonant"], "h0")
    ratios = [(h * h - h0[0] ** 2) / (s * s) for s, h in zip(t, h0) if s > 0]
    mean = sum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / mean
    below(spread, H0_GROWTH_SPREAD, "relative spread of h0 growth")


def _draw(rng: random.Random) -> int:
    return rng.randrange(1, 2 ** 31)


WORKLOADS = {w.name: w for w in [
    Workload(
        "shear-operator", ["shear-linear"],
        lambda rng: {"shear-linear": [f"seed={_draw(rng)}"]},
        [Check("couette_identity", _couette_identity),
         Check("couette_forced_closed_form",
               summary_below("shear-linear", "couette_forced_defect",
                             FORCED_COUETTE_TOL)),
         Check("semigroup", summary_below("shear-linear", "semigroup_defect",
                                          SEMIGROUP_TOL)),
         Check("decomposition_two_routes",
               summary_below("shear-linear", "decomposition_defect",
                             DECOMPOSITION_TOL)),
         Check("decay_exponent", _sigma)]),
    Workload(
        "consistency-adaptive", ["consistency"],
        lambda rng: {"consistency": [f"seed={_draw(rng)}"]},
        [Check("splitting_vs_total",
               summary_below("consistency", "splitting_defect",
                             SPLITTING_TOL)),
         Check("term_ii_closed_form",
               summary_below("consistency", "term_ii_error", TERM_II_TOL)),
         Check("halving_gap",
               summary_below("consistency", "halving_gap", QUAD_TOL))]),
    Workload(
        "navier-stokes", ["ns-decay"],
        lambda rng: {"ns-decay": [
            f"amplitude={0.008 + 0.004 * rng.random():.6f}"]},
        [Check("decay_rate", _decay_rate),
         Check("stationarity_drift", _drift),
         Check("fixed_point_residual", _fixed_point_residual)]),
    Workload(
        "closed-forms",
        ["couette-resonant", "couette-stationary", "viscous-resonant",
         "viscous-stationary", "bprofile", "ns-resonant-split"],
        lambda rng: {"couette-resonant": [f"seed={_draw(rng)}"],
                     "viscous-resonant": [f"seed={_draw(rng)}"]},
        [Check("couette_resonant_duhamel",
               summary_below("couette-resonant", "duhamel_rel_error",
                             DUHAMEL_TOL)),
         Check("couette_stationary_duhamel",
               summary_below("couette-stationary", "duhamel_rel_error",
                             DUHAMEL_TOL)),
         Check("h0_growth_quadratic", _h0_quadratic)]),
]}


def seed_overrides(workload: Workload, seed: int) -> dict[str, list[str]]:
    overrides = workload.seed_overrides(random.Random(seed))
    return {name: overrides.get(name, []) for name in workload.scenarios}
