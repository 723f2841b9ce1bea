"""
Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; the heavy runs (consistency splitting, shear probes) take one
to two minutes each at the default 256x512 / 256x256 resolutions.
"""

import numpy as np
import pytest

from shearlab import couette, presets
from shearlab.core import (compose_shear, invert_laplacian, l2_norm,
                           sobolev_norm, velocity)
from shearlab.diagnostics import fit_power_law, pairing_basket, \
    weak_pairing_series
from shearlab.scenarios import run_scenario


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name} "
          f"({detail})")


@pytest.fixture(scope="module")
def channel_fields():
    grid = presets.channel_default(256, 512)
    return grid, presets.couette_resonant_fields(grid), \
        presets.couette_stationary_fields(grid)


def test_criterion_01_closed_form_oracle(channel_fields):
    grid, (w0r, f0r), (w0s, f0s) = channel_fields
    quad_r = couette.duhamel_quadrature(
        w0r, couette.ForcingSpec("resonant", f0=f0r), 5.0, 256)
    closed_r = couette.solve_resonant(w0r, f0r, 5.0)
    err_r = l2_norm(quad_r - closed_r) / l2_norm(closed_r)
    quad_s = couette.duhamel_quadrature(
        w0s, couette.ForcingSpec("stationary", f0=f0s), 5.0, 256)
    closed_s = couette.solve_stationary(w0s, f0s, 5.0)
    err_s = l2_norm(quad_s - closed_s) / l2_norm(closed_s)
    ok = err_r < 1e-8 and err_s < 1e-8
    _report(1, "transport quadrature vs closed forms", ok,
            f"resonant {err_r:.2e}, stationary {err_s:.2e}, tol 1e-8")
    assert ok


def test_criterion_02_resonant_dichotomy(channel_fields):
    grid, (w0, f0), _ = channel_fields
    g_aux = couette.antiderivative_g(f0)
    times = np.linspace(0.0, 100.0, 41)
    h0, hm1 = [], []
    for t in times:
        wt = couette.solve_resonant(w0, f0, t)
        h0.append(sobolev_norm(wt, 0.0))
        hm1.append(sobolev_norm(wt, -1.0))
    fit = fit_power_law(times[times >= 10], np.asarray(h0)[times >= 10],
                        window=(10.0, 100.0))
    alpha = fit.params["alpha"]
    bound = sobolev_norm(w0, -1.0) + sobolev_norm(g_aux, 1.0)
    sup_hm1 = float(np.max(hm1))

    basket = pairing_basket(grid)
    pair_times = times[times >= 10]
    vx_list, vy_list = [], []
    for t in pair_times:
        phi = invert_laplacian(couette.solve_resonant(w0, f0, t))
        vx, vy = velocity(phi)
        vx_list.append(vx)
        vy_list.append(vy)
    tail = max(weak_pairing_series(pair_times, vx_list, basket)["cauchy_tail"],
               weak_pairing_series(pair_times, vy_list, basket)["cauchy_tail"])

    ok = (0.98 <= alpha <= 1.02) and (sup_hm1 <= bound + 1e-6) \
        and (tail < 1e-2)
    _report(2, "resonant growth with negative-norm boundedness", ok,
            f"alpha {alpha:.4f}, sup H^-1 {sup_hm1:.3f} <= {bound:.3f}, "
            f"pairing tail {tail:.1e}")
    assert ok


def test_criterion_03_stationary_sum_space(channel_fields):
    grid, _, (w0, f0) = channel_fields
    g_aux = couette.antiderivative_g(f0)
    times = np.linspace(0.0, 100.0, 41)
    const = np.asarray([l2_norm(couette.solve_stationary(g_aux, f0, t))
                        for t in times])
    drift = float(np.max(np.abs(const - const[0])))
    h = w0 - g_aux
    hs = np.asarray([sobolev_norm(compose_shear(h, t), -0.5) for t in times])
    monotone = bool(np.all(np.diff(hs) <= 1e-12))
    ratio = float(hs[-1] / hs[0])
    ok = drift < 1e-8 and monotone and ratio < 0.2
    _report(3, "stationary-case balance and negative-norm relaxation", ok,
            f"L2 drift {drift:.1e}, monotone {monotone}, ratio {ratio:.3f}")
    assert ok


def test_criterion_04_consistency_terms():
    # n_steps pinned from the adaptive calibration (halving gap < 1e-7)
    series, summary = run_scenario("consistency", {"n_steps": 4096})
    checks = summary["checks"]
    ok = all(checks[k] for k in
             ("splitting_linear", "iv_growth_rate_converges",
              "iv_hminus1_no_positive_trend", "term_i_cauchy_tail",
              "term_ii_closed_form"))
    _report(4, "four-term consistency splitting", ok,
            f"IV rate var {summary['iv_rate_variation']:.2e}, "
            f"I tail {summary['term_i_tail']:.1e}, "
            f"II err {summary['term_ii_error']:.1e}, "
            f"split {summary['splitting_defect']:.1e}")
    assert ok


def test_criterion_05_general_shear():
    series, summary = run_scenario("shear-linear", {})
    checks = summary["checks"]
    ok = all(checks.values())
    _report(5, "general-shear reduction and operator probes", ok,
            f"couette defect {summary['couette_forced_defect']:.1e}, "
            f"sigma {summary['sigma_fitted']:.2f}, "
            f"semigroup {summary['semigroup_defect']:.1e}, "
            f"decomposition {summary['decomposition_defect']:.1e}")
    assert ok


def test_criterion_06_viscous_multiplier():
    _, res = run_scenario("viscous-resonant", {})
    _, bpr = run_scenario("bprofile", {})
    ok = (res["checks"]["forced_amplitude_identity"]
          and res["checks"]["heat_exponent_closed_form"]
          and bpr["checks"]["b_monotone"] and bpr["checks"]["b_capped"]
          and bpr["checks"]["upper_bound_ok"]
          and bpr["checks"]["c_measured_positive"])
    _report(6, "viscous multiplier and amplitude bounds", ok,
            f"identity {res['identity_error']:.1e}, "
            f"exponent {res['heat_exponent_worst']:.1e}, "
            f"c_measured {bpr['c_measured']:.3f}, "
            f"upper ok {bpr['checks']['upper_bound_ok']}")
    assert ok


def test_criterion_07_enhanced_dissipation():
    _, res = run_scenario("viscous-resonant", {})
    _, stat = run_scenario("viscous-stationary", {})
    d = res["packet_fit"]["params"]["d"]
    ok = (res["checks"]["packet_exponent_cubic"]
          and stat["checks"]["under_cubic_envelope"]
          and stat["checks"]["stationary_route_consistency"])
    _report(7, "enhanced dissipation rates and envelope", ok,
            f"packet d {d:.3f} in [2.9, 3.1], envelope ok "
            f"{stat['checks']['under_cubic_envelope']}")
    assert ok


def test_criterion_08_fixed_point():
    _, summary = run_scenario("ns-fixedpoint", {})
    ok = all(summary["checks"].values())
    _report(8, "stationary fixed point with smallness bounds", ok,
            f"iters {summary['iterations']}, residual "
            f"{summary['residual']:.1e}, H1 {summary['g_h1']:.4f} <= "
            f"{summary['smallness_bound']:.4f}")
    assert ok


def test_criterion_09_perturbation_decay():
    _, summary = run_scenario("ns-decay", {"t_drift": 20.0})
    ok = all(summary["checks"].values())
    _report(9, "perturbation relaxation and stationarity", ok,
            f"rate {summary['rate']:.3f} >= {summary['rate_floor']:.3f}, "
            f"drift {summary['max_drift']:.1e} <= "
            f"{summary['drift_allowance']:.1e}")
    assert ok


def test_criterion_10_nonlinear_vs_linear():
    from shearlab.core import Grid, SpectralField, from_function
    from shearlab.nonlinear import evolve, make_state
    from shearlab.viscous import multiplier_solution

    grid = Grid.periodic(64, 256, lx=2 * np.pi, ly=8 * np.pi)
    errs = []
    for eps in (2e-2, 1e-2, 5e-3):
        wi = from_function(grid, lambda X, Y: eps * np.cos(X)
                           * np.exp(-Y ** 2 / 2))
        final, _ = evolve(make_state(wi, 0.1), 3.0, 0.025)
        lin = multiplier_solution(wi, None, 0.1, 3.0)
        diff = final.eulerian_field() - compose_shear(
            SpectralField(grid, lin.coeffs), 3.0)
        errs.append(l2_norm(diff))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(abs(s - 2.0) <= 0.1 for s in slopes)
    _report(10, "second-order defect of the nonlinear evolution", ok,
            f"slopes {slopes[0]:.3f}, {slopes[1]:.3f} (target 2 +- 0.1)")
    assert ok


def test_criterion_11_determinism(tmp_path):
    from shearlab.cli import main

    def render(name, scen, params):
        p = tmp_path / f"{name}.ini"
        body = ["[run]", f"scenario = {scen}",
                f"output = {tmp_path / name}", "seed = 7", "[params]"]
        body += [f"{k} = {v}" for k, v in params.items()]
        p.write_text("\n".join(body) + "\n")
        return p

    params = {"k_max": 4, "n_eta": 6, "eta_max": 8}
    identical = True
    for scen, pars in (("bprofile", params),
                       ("ns-resonant-split",
                        {"nx": 16, "ny": 64, "t_max": 6.0})):
        outs = []
        for run in ("a", "b"):
            cfg = render(f"{scen}-{run}", scen, pars)
            assert main(["run", str(cfg)]) == 0
            outs.append(tmp_path / f"{scen}-{run}")
        for f1 in sorted(outs[0].iterdir()):
            f2 = outs[1] / f1.name
            identical &= f1.read_bytes() == f2.read_bytes()
    _report(11, "byte-identical reruns", identical,
            "bprofile + ns-resonant-split CSV/JSON compared")
    assert identical
