"""
Scenario implementations for the runner: each builds its inputs from
presets and config parameters, runs the experiment, evaluates its checks,
and returns (series, summary) for report emission.

Summaries carry a "checks" map of named booleans; a scenario succeeds iff
all of them hold.  Validation errors raise ValueError naming the violated
hypothesis (mapped to exit code 3 by the CLI), numerical failures raise
RuntimeError (exit code 4).
"""

from __future__ import annotations

import numpy as np

from . import couette, nonlinear, presets, shear, viscous
from .consistency import (consistency_integral, term_II_closed_form,
                          FrequencyCone)
from .core import (boundary_mass_fraction, compose_shear,
                   invert_laplacian, l2_norm, project_nonzero_x,
                   sobolev_norm, velocity, zero_field)
from .diagnostics import (bounded_trend_report, cauchy_tail, fit_power_law,
                          pairing_basket, weak_pairing_series)

SCENARIOS: dict[str, dict] = {}


def scenario(name: str, claim: str):
    def wrap(fn):
        SCENARIOS[name] = {"fn": fn, "claim": claim}
        return fn
    return wrap


def catalog() -> list[dict]:
    return [{"name": name, "claim": entry["claim"]}
            for name, entry in sorted(SCENARIOS.items())]


def run_scenario(name: str, params: dict) -> tuple[dict, dict]:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}")
    series, summary = SCENARIOS[name]["fn"](params)
    summary["scenario"] = name
    summary["params"] = dict(params)
    summary["ok"] = all(summary.get("checks", {}).values())
    return series, summary


def _times(params, default_max=100.0, default_n=41):
    return np.linspace(0.0, float(params.get("t_max", default_max)),
                       int(params.get("n_times", default_n)))


def _field_or_preset(params: dict, key: str, default_field):
    """A field file overrides the analytic preset when configured."""
    path = params.get(f"{key}_file")
    if not path:
        return default_field
    from .core import load_field
    return load_field(path)


def _profile_from_params(grid, params: dict):
    name = str(params.get("profile", "couette_perturbed"))
    if name == "couette":
        return shear.couette(grid)
    if name == "couette_perturbed":
        return shear.couette_perturbed(grid,
                                       float(params.get("epsilon", 0.05)),
                                       float(params.get("wavenumber",
                                                        2.0 * np.pi)))
    if name == "tanh":
        return shear.tanh_monotone(grid)
    if name.startswith("table:"):
        table = np.loadtxt(name.split(":", 1)[1], delimiter=",")
        return shear.profile_from_table(grid, table[:, 0], table[:, 1])
    raise ValueError(f"unknown profile preset {name!r}")


# ---------------------------------------------------------------------------
# Transport at linear shear (closed forms)
# ---------------------------------------------------------------------------

@scenario("couette-resonant",
          "resonant forcing: linear-in-t growth with a bounded negative-index "
          "norm and convergent velocity pairings")
def couette_resonant(params: dict) -> tuple[dict, dict]:
    grid = presets.channel_default(int(params.get("nx", 256)),
                                   int(params.get("ny", 512)))
    w0, f0 = presets.couette_resonant_fields(grid)
    w0 = _field_or_preset(params, "w0", w0)
    f0 = _field_or_preset(params, "f0", f0)
    g_aux = couette.antiderivative_g(f0)
    times = _times(params)

    h0, hm1 = [], []
    for t in times:
        wt = couette.solve_resonant(w0, f0, t)
        h0.append(sobolev_norm(wt, 0.0))
        hm1.append(sobolev_norm(wt, -1.0))
    h0, hm1 = np.asarray(h0), np.asarray(hm1)

    fit = fit_power_law(times[times >= 10], h0[times >= 10],
                        window=(10.0, float(times[-1])))
    bound = sobolev_norm(w0, -1.0) + sobolev_norm(g_aux, 1.0)

    pair_times = times[times >= 10]
    basket = pairing_basket(grid, seed=int(params.get("seed", 7)))
    vx_list, vy_list = [], []
    for t in pair_times:
        phi = invert_laplacian(couette.solve_resonant(w0, f0, t))
        vx, vy = velocity(phi)
        vx_list.append(vx)
        vy_list.append(vy)
    px = weak_pairing_series(pair_times, vx_list, basket)
    py = weak_pairing_series(pair_times, vy_list, basket)

    n_quad = int(params.get("n_quad", 256))
    quad = couette.duhamel_quadrature(
        w0, couette.ForcingSpec("resonant", f0=f0), 5.0, n_quad)
    closed = couette.solve_resonant(w0, f0, 5.0)
    oracle_err = l2_norm(quad - closed) / l2_norm(closed)

    checks = {
        "growth_exponent_in_band": bool(0.98 <= fit.params["alpha"] <= 1.02),
        "hminus1_bounded": bool(np.max(hm1) <= bound + 1e-6),
        "velocity_pairings_cauchy": bool(
            max(px["cauchy_tail"], py["cauchy_tail"]) < 1e-2),
        "duhamel_oracle": bool(oracle_err < 1e-8),
    }
    series = {"h0": (times, h0), "hminus1": (times, hm1)}
    summary = {
        "checks": checks,
        "growth_fit": fit.as_dict(),
        "hminus1_sup": float(np.max(hm1)),
        "hminus1_bound": float(bound),
        "pairing_tails": [px["cauchy_tail"], py["cauchy_tail"]],
        "duhamel_rel_error": oracle_err,
    }
    return series, summary


@scenario("couette-stationary",
          "time-independent forcing: norm-preserving sum-space splitting "
          "with negative-index relaxation")
def couette_stationary(params: dict) -> tuple[dict, dict]:
    grid = presets.channel_default(int(params.get("nx", 256)),
                                   int(params.get("ny", 512)))
    w0, f0 = presets.couette_stationary_fields(grid)
    w0 = _field_or_preset(params, "w0", w0)
    f0 = _field_or_preset(params, "f0", f0)
    g_aux = couette.antiderivative_g(f0)
    times = _times(params)

    const_norms = np.asarray([l2_norm(couette.solve_stationary(g_aux, f0, t))
                              for t in times])
    drift = float(np.max(np.abs(const_norms - const_norms[0])))

    h = w0 - g_aux
    hs = np.asarray([sobolev_norm(compose_shear(h, t), -0.5) for t in times])
    monotone = bool(np.all(np.diff(hs) <= 1e-12))
    ratio = float(hs[-1] / hs[0])

    n_quad = int(params.get("n_quad", 256))
    quad = couette.duhamel_quadrature(
        w0, couette.ForcingSpec("stationary", f0=f0), 5.0, n_quad)
    closed = couette.solve_stationary(w0, f0, 5.0)
    oracle_err = l2_norm(quad - closed) / l2_norm(closed)

    checks = {
        "l2_constant_at_balance": bool(drift < 1e-8),
        "hminus_half_monotone": monotone,
        "hminus_half_ratio": bool(ratio < 0.2),
        "duhamel_oracle": bool(oracle_err < 1e-8),
    }
    series = {"l2_at_balance": (times, const_norms),
              "hminus_half": (times, hs)}
    summary = {"checks": checks, "l2_drift": drift, "relaxation_ratio": ratio,
               "duhamel_rel_error": oracle_err}
    return series, summary


# ---------------------------------------------------------------------------
# Consistency integrals
# ---------------------------------------------------------------------------

@scenario("consistency",
          "four-term splitting of the nonlinearity's time integral: "
          "convergent, endpoint, and linearly-growing contributions")
def consistency_scenario(params: dict) -> tuple[dict, dict]:
    grid = presets.consistency_box(int(params.get("n", 256)))
    amp = float(params.get("amplitude", 0.15))
    w1, w2 = presets.consistency_parts(grid, amp)
    T = float(params.get("t_max", 80.0))
    n_steps = params.get("n_steps")
    # the scenario gates the halving gap at 1e-7, which n_steps = 4096
    # meets at the defaults (the library default stays 1e-8)
    quad_tol = float(params.get("quad_tol", 1e-7))
    sample_times = np.linspace(T / 16.0, T, 16)
    dec = consistency_integral(w1, w2, T,
                               n_steps=int(n_steps) if n_steps else None,
                               sample_times=sample_times, tol=quad_tol,
                               keep_samples=("IV",))

    ts = dec.sample_times
    iv0 = dec.norm_series["IV"].series(0.0)
    ivm1 = dec.norm_series["IV"].series(-1.0)
    i06 = dec.norm_series["I"].series(-0.6)

    ratio = iv0 / ts
    last = ratio[ts >= ts[0] + 2.0 * (ts[-1] - ts[0]) / 3.0]
    variation = float((last.max() - last.min()) / last.mean())
    trend = bounded_trend_report(ts, ivm1)
    tail_start = float(params.get("tail_start", 50.0)) \
        if T > 50 else ts[len(ts) // 2]
    i_tail = cauchy_tail(ts, i06, tail_start)
    ii_err = l2_norm(dec.term_II - term_II_closed_form(w2, T))

    cone = FrequencyCone(1.0, 10.0)
    probe = project_nonzero_x(w2)
    pu = cone.project(probe)
    cone_ok = (l2_norm(cone.project(pu) - pu) == 0.0
               and l2_norm(invert_laplacian(pu)) <= l2_norm(pu) / 100.0)

    # weak-convergence diagnostics for the growing term: pairings against
    # the fixed smooth basket settle even though the H^0 norm grows
    basket = pairing_basket(grid, seed=int(params.get("seed", 7)))
    iv_pair = weak_pairing_series(ts, dec.samples["IV"], basket)

    checks = {
        "splitting_linear": bool(dec.splitting_defect() < 1e-10),
        "iv_growth_rate_converges": bool(variation < 0.10),
        "iv_hminus1_no_positive_trend": not trend["positive_trend_detected"],
        "term_i_cauchy_tail": bool(i_tail < 1e-3),
        "term_ii_closed_form": bool(ii_err < 1e-6),
        "cone_projector": bool(cone_ok),
    }
    series = {f"term_{nm}_h{format(s, 'g').replace('-', 'm')}":
              (ts, dec.norm_series[nm].series(s))
              for nm in ("I", "II", "III", "IV", "total")
              for s in (-1.0, -0.6, 0.0)}
    summary = {"checks": checks, "n_steps": dec.n_steps,
               "halving_gap": dec.step_halving_gap,
               "iv_rate_variation": variation,
               "iv_hminus1_trend": trend,
               "term_i_tail": i_tail, "term_ii_error": ii_err,
               "iv_pairing_tail": iv_pair["cauchy_tail"],
               "splitting_defect": dec.splitting_defect()}
    return series, summary


# ---------------------------------------------------------------------------
# General shear
# ---------------------------------------------------------------------------

@scenario("shear-linear",
          "general-shear solution operator: degeneracy at linear shear, "
          "bounded-ratio probes, decay of the time derivative, and the "
          "transport/stationary decomposition identity")
def shear_linear(params: dict) -> tuple[dict, dict]:
    nx, ny = int(params.get("nx", 256)), int(params.get("ny", 512))
    grid = presets.channel_default(nx, ny)
    prof = _profile_from_params(grid, params)
    prof_c = shear.couette(grid)
    dt_probe = float(params.get("dt_probe", 0.02))
    dt_exact = float(params.get("dt", 0.01))

    w0, f0 = presets.couette_resonant_fields(grid)

    # Degeneracy at linear shear: the operator is the identity and the
    # forced solution reduces to the closed forms.
    s_ident = l2_norm(shear.apply_S(7.0, 0.0, w0, prof_c) - w0)
    res_shear = shear.solve_forced_shear(w0, "resonant", f0, 5.0, prof_c,
                                         n_steps=32)
    res_closed = w0 + 5.0 * f0
    couette_defect = l2_norm(res_shear - res_closed)
    commut_c = shear.commutation_defect(grid, prof_c, w0, 1.0)

    # Probes on the perturbed profile.
    probe = shear.probe_properties(
        grid, prof, s_list=(-1.0, 0.0, 1.0),
        times=np.linspace(0.0, float(params.get("t_max", 100.0)),
                          int(params.get("n_times", 26))),
        n_members=int(params.get("n_members", 20)),
        k_band=int(params.get("k_band", 8)),
        seed=int(params.get("seed", 11)), dt=dt_probe)
    no_trend = all(not probe.trend[key]["positive_trend_detected"]
                   for key in probe.trend)
    sigma = -probe.decay_fit.params["alpha"] if probe.decay_fit else 0.0

    # Semigroup property and the decomposition identity at moderate time.
    a = shear.apply_S(2.0, 0.0, w0, prof, dt=0.03)
    b = shear.apply_S(2.0, 0.7, shear.apply_S(0.7, 0.0, w0, prof, dt=0.03),
                      prof, dt=0.03)
    semigroup = l2_norm(a - b)

    t_dec = float(params.get("t_decomposition", 2.0))
    direct = shear.solve_forced_shear(w0, "stationary", f0, t_dec, prof,
                                      n_steps=int(params.get("n_quad", 32)),
                                      dt=dt_exact)
    decomp = shear.stationary_decomposition(w0, f0, t_dec, prof, dt=dt_exact)
    eq22 = l2_norm(direct - decomp["W"])
    commut_p = shear.commutation_defect(grid, prof, w0, 1.0, t2=2.0,
                                        dt=dt_exact)

    checks = {
        "couette_identity": bool(s_ident == 0.0),
        "couette_forced_reduction": bool(couette_defect < 1e-8),
        "couette_commutation": bool(commut_c <= 1e-8),
        "probe_no_positive_trend": bool(no_trend),
        "derivative_decay_exponent": bool(sigma >= 0.9),
        "semigroup": bool(semigroup < 1e-6),
        "decomposition_identity": bool(eq22 < 1e-6),
    }
    series = {f"ratio_s{key.replace('-', 'm')}":
              (probe.times, probe.ratio_series[key])
              for key in probe.ratio_series}
    summary = {"checks": checks,
               "couette_forced_defect": couette_defect,
               "probe_trends": probe.trend,
               "sigma_fitted": sigma,
               "semigroup_defect": semigroup,
               "decomposition_defect": eq22,
               "commutation_defect_couette": commut_c,
               "commutation_defect_perturbed": commut_p}
    return series, summary


@scenario("shear-consistency",
          "consistency integral propagated by the general-shear operator; "
          "degenerates to the linear-shear splitting and relaxes in "
          "negative norms at the stationary balance")
def shear_consistency(params: dict) -> tuple[dict, dict]:
    # Degeneracy check at linear shear (cheap: the operator is exact).
    nx = int(params.get("nx", 64))
    ny = int(params.get("ny", 1024))
    grid = presets.channel_default(nx, ny)
    prof_c = shear.couette(grid)
    w0 = presets.make_field(grid, "cos_bump", amplitude=0.5,
                            center=1.5, width=0.18)
    f0 = presets.make_field(grid, "cos_bump", amplitude=0.5, phase=0.4,
                            center=1.55, width=0.16)
    T1 = float(params.get("t_couette", 5.0))
    n1 = int(params.get("n_steps", 64))
    res = shear.consistency_integral_shear(w0, f0, prof_c, T1, n_steps=n1)
    g_aux = shear.solve_g_shear(f0, prof_c)
    dec = consistency_integral(w0 - g_aux, g_aux, T1, n_steps=n1,
                               sample_times=[T1])
    couette_defect = l2_norm(res["sigma"] - dec.total)

    # Relaxation at the stationary balance for a gently perturbed profile.
    nyp = int(params.get("ny_perturbed", 256))
    gridp = presets.channel_default(nx, nyp)
    profp = shear.couette_perturbed(gridp, float(params.get("epsilon", 0.02)))
    f0p = presets.make_field(gridp, "cos_bump", amplitude=0.5, phase=0.4,
                             center=1.55, width=0.16)
    gp = shear.solve_g_shear(f0p, profp)
    T2 = float(params.get("t_max", 24.0))
    resp = shear.consistency_integral_shear(
        gp, f0p, profp, T2, n_steps=int(params.get("n_steps_perturbed", 96)),
        dt=float(params.get("dt", 0.02)))
    ser = resp["series"]
    tail = cauchy_tail(ser.times, ser.series(-0.6),
                       ser.times[0] + 2.0 * (ser.times[-1] - ser.times[0])
                       / 3.0)
    level = float(np.max(ser.series(-0.6)))

    checks = {
        "couette_degeneracy": bool(couette_defect < 1e-6),
        "balanced_sigma_settles": bool(tail < 0.2 * max(level, 1e-300)),
    }
    series = {"sigma_hm06": (ser.times, ser.series(-0.6)),
              "sigma_h0": (ser.times, ser.series(0.0))}
    summary = {"checks": checks, "couette_defect": couette_defect,
               "sigma_tail": tail, "sigma_level": level}
    return series, summary


# ---------------------------------------------------------------------------
# Viscous problems
# ---------------------------------------------------------------------------

@scenario("viscous-resonant",
          "exact multiplier solution; the forced amplitude matches the "
          "adaptive integral mode by mode and the free packet shows "
          "cubic-exponential decay")
def viscous_resonant(params: dict) -> tuple[dict, dict]:
    nu = float(params.get("nu", 0.1))
    grid = presets.viscous_box(int(params.get("nx", 16)),
                               int(params.get("ny", 64)))
    w0, f0 = presets.viscous_fields(grid)

    t = float(params.get("t_check", 3.0))
    sol = viscous.multiplier_solution(zero_field(grid),
                                      viscous.resonant_lattice_forcing(f0),
                                      nu, t, n_steps=256)
    expect = np.zeros_like(sol.coeffs)
    for i in range(grid.nx):
        k = grid.k[i]
        if k == 0.0:
            continue
        for j in range(grid.ny):
            eta_e = grid.eta[j] - k * t
            expect[i, j] = viscous.b_value(k, eta_e, nu, t) * f0.coeffs[i, j]
    ident_err = float(np.max(np.abs(sol.coeffs - expect)))

    rng = np.random.default_rng(int(params.get("seed", 3)))
    worst = 0.0
    for _ in range(16):
        k = float(rng.integers(-6, 7))
        eta = float(rng.uniform(-8, 8))
        tau = float(rng.uniform(0, 4))
        tt = tau + float(rng.uniform(0.1, 4))
        a = float(viscous.heat_exponent(k, eta, nu, tau, tt))
        b = viscous.heat_exponent_quadrature(k, eta, nu, tau, tt)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    packet = zero_field(grid)
    packet.coeffs[1, 0] = 1.0
    packet.coeffs[-1, 0] = 1.0
    probe = viscous.enhanced_dissipation_probe(
        packet, float(params.get("nu_probe", 0.01)),
        np.linspace(5.0, 20.0, 16))

    hom_times = np.linspace(0.0, 10.0, 21)
    hom_norms = [l2_norm(viscous.multiplier_solution(w0, None, nu, tt))
                 for tt in hom_times]
    monotone = bool(np.all(np.diff(hom_norms) <= 1e-14))

    checks = {
        "forced_amplitude_identity": bool(ident_err < 1e-8),
        "heat_exponent_closed_form": bool(worst < 1e-12),
        "packet_exponent_cubic": bool(2.9 <= probe["d"] <= 3.1),
        "free_decay_monotone": monotone,
    }
    series = {"hom_l2": (hom_times, np.asarray(hom_norms)),
              "packet_l2": (probe["times"], probe["norms"])}
    summary = {"checks": checks, "identity_error": ident_err,
               "heat_exponent_worst": worst, "packet_fit": probe["fit"].as_dict()}
    return series, summary


@scenario("viscous-stationary",
          "banded stationary solve with coercive bounds; relaxation toward "
          "the stationary state under the uniform cubic envelope")
def viscous_stationary(params: dict) -> tuple[dict, dict]:
    nu = float(params.get("nu", 0.2))
    R = float(params.get("R", 20.0))
    ny = int(params.get("ny_solve", 1023))

    y = -R + 2.0 * R / (ny + 1) * np.arange(1, ny + 1)
    prof = np.exp(-y ** 2)
    f_hat = np.stack([0.5 * prof + 0j, 0.5 * prof + 0j])
    ks = np.array([1.0, -1.0])
    out = viscous.stationary_solve_channel(f_hat, ks, nu=nu, R=R, ny=ny)
    h1 = viscous.channel_h1_norm(out["g_hat"], ks, out["y"], R)
    l2f = viscous.channel_l2_norm(f_hat, out["y"])

    ny2 = 2 * ny + 1
    y2 = -2 * R + 4.0 * R / (ny2 + 1) * np.arange(1, ny2 + 1)
    f2 = np.stack([0.5 * np.exp(-y2 ** 2) + 0j, 0.5 * np.exp(-y2 ** 2) + 0j])
    out2 = viscous.stationary_solve_channel(f2, ks, nu=nu, R=2 * R, ny=ny2)
    inner = slice((ny2 - ny) // 2, (ny2 - ny) // 2 + ny)
    rdiff = float(np.linalg.norm(out["g_hat"] - out2["g_hat"][:, inner])
                  / np.linalg.norm(out["g_hat"]))

    # Spectral damping experiment: the deviation from the stationary state
    # evolves freely and sits under the uniform-in-eta cubic envelope.
    grid = presets.viscous_box(int(params.get("nx", 64)),
                               int(params.get("ny", 256)))
    nu_d = float(params.get("nu_damping", 0.1))
    w0, f0 = presets.viscous_fields(grid)
    g_lat0 = viscous.stationary_state_lattice(f0, nu_d, 0.0)
    delta0 = w0.coeffs - g_lat0
    delta0[0, :] = 0.0
    d0 = float(np.sqrt(np.sum(np.abs(delta0) ** 2)))
    times = np.linspace(0.0, float(params.get("t_damping", 8.0)), 17)
    norms = []
    for tt in times:
        fac = viscous.heat_factor(grid, nu_d, 0.0, tt)
        norms.append(float(np.sqrt(np.sum(np.abs(fac * delta0) ** 2))))
    norms = np.asarray(norms)
    env = d0 * viscous.damping_envelope(nu_d, times) * (1 + 1e-9)
    under = bool(np.all(norms <= env))

    # consistency of the two routes to the stationary state: forced
    # evolution at a late checkpoint vs homogeneous decay plus g
    t_star = float(times[len(times) // 2])
    forced = viscous.multiplier_solution(
        w0, viscous.stationary_lattice_forcing(f0), nu_d, t_star,
        n_steps=512)
    g_lat_t = viscous.stationary_state_lattice(f0, nu_d, t_star)
    fac = viscous.heat_factor(grid, nu_d, 0.0, t_star)
    recon = fac * delta0 + g_lat_t
    recon_err = float(np.sqrt(np.sum(np.abs(forced.coeffs - recon) ** 2)))

    checks = {
        "solve_residual": bool(float(np.max(out["residuals"])) < 1e-10),
        "h1_bound": bool(h1 <= l2f / nu),
        "r_doubling_stable": bool(rdiff < 1e-6),
        "boundary_mass": bool(out["boundary_mass"] < 1e-6),
        "under_cubic_envelope": under,
        "stationary_route_consistency": bool(recon_err < 1e-6 * max(d0, 1.0)),
    }
    series = {"damping_l2": (times, norms),
              "damping_envelope": (times, env),
              "reference_cubed": (times,
                                  d0 * viscous.reference_cubed_curve(nu_d,
                                                                     times))}
    summary = {"checks": checks, "solve_residual_max":
               float(np.max(out["residuals"])), "h1": h1,
               "h1_bound_value": l2f / nu, "r_doubling": rdiff,
               "route_consistency_error": recon_err}
    return series, summary


@scenario("bprofile",
          "forced-mode amplitude integral: monotone saturation with "
          "explicit upper bounds and a measured lower-bound constant")
def bprofile(params: dict) -> tuple[dict, dict]:
    nu = float(params.get("nu", 0.1))
    ts = np.linspace(0.0, 60.0, 25)
    k0, eta0 = float(params.get("k", 1.0)), float(params.get("eta", -3.0))
    bs = np.asarray([viscous.b_value(k0, eta0, nu, t) for t in ts])
    monotone = bool(np.all(np.diff(bs) >= -1e-14))
    cap = bool(np.all(bs <= 1.0 / (nu * k0 * k0) + 1e-12))

    k_vals = np.arange(1, int(params.get("k_max", 16)) + 1, dtype=float)
    n_eta = int(params.get("n_eta", 32))
    eta_vals = np.linspace(1.0, float(params.get("eta_max", 16.0)), n_eta)
    report = viscous.check_binf_bounds(k_vals, eta_vals, nu)

    r8 = viscous.b_value(1.0, 8.0, nu) * 64.0
    r16 = viscous.b_value(1.0, 16.0, nu) * 256.0
    scaling = r16 / r8

    checks = {
        "b_monotone": monotone,
        "b_capped": cap,
        "upper_bound_ok": bool(report["upper_bound_ok"]),
        "c_measured_positive": bool(report["c_measured"] > 0.0),
        "eta_scaling_sane": bool(0.5 <= scaling <= 2.0),
    }
    series = {"b_of_t": (ts[1:], bs[1:])}
    summary = {"checks": checks, **report, "eta_scaling_ratio": scaling}
    return series, summary


# ---------------------------------------------------------------------------
# Nonlinear problems
# ---------------------------------------------------------------------------

def _fixed_point(params: dict):
    nu = float(params.get("nu", 0.5))
    grid = presets.viscous_box(int(params.get("nx", 64)),
                               int(params.get("ny", 256)))
    f = presets.ns_forcing(grid, nu, float(params.get("f_fraction", 1.0)))
    cfg = nonlinear.FixedPointConfig(
        nu=nu, f=f, tol=float(params.get("tol", 1e-10)),
        max_iters=int(params.get("max_iters", 30)))
    return grid, cfg, nonlinear.fixed_point_stationary(cfg)


@scenario("ns-fixedpoint",
          "small stationary forcing admits a contraction fixed point with "
          "explicit smallness bounds")
def ns_fixedpoint(params: dict) -> tuple[dict, dict]:
    grid, cfg, rep = _fixed_point(params)
    ratios = rep["contraction_ratios"]
    checks = {
        "converged_within_30": bool(rep["iterations"] <= 30),
        "residual": bool(rep["residual"] < 1e-6),
        "h1_smallness": bool(rep["g_h1"] <= rep["smallness_bound"]),
        "contracting": bool(all(r < 1.0 for r in ratios)),
    }
    series = {"increments": (np.arange(1, len(rep["increments"]) + 1,
                                       dtype=float),
                             np.asarray(rep["increments"]))}
    summary = {"checks": checks, "iterations": rep["iterations"],
               "residual": rep["residual"], "g_h1": rep["g_h1"],
               "smallness_bound": rep["smallness_bound"],
               "contraction_ratios": ratios,
               "relaxation_used": rep["relaxation_used"]}
    return series, summary


@scenario("ns-decay",
          "perturbations of the stationary state relax at least at the "
          "dissipative half rate; the state itself stays put")
def ns_decay(params: dict) -> tuple[dict, dict]:
    grid, cfg, rep = _fixed_point(params)
    g_field = rep["g"]
    dt = float(params.get("dt", 0.05))
    t_end = float(params.get("t_max", 16.0))

    pert = presets.ns_perturbation(grid, float(params.get("amplitude", 0.01)))
    dec = nonlinear.perturbation_decay(g_field + pert, g_field, cfg,
                                       t_end, dt)
    drift = nonlinear.stationarity_drift(g_field, cfg,
                                         float(params.get("t_drift", 20.0)),
                                         dt)
    edge_mass = boundary_mass_fraction(dec["final_state"].as_field())
    floor = 0.9 * cfg.nu / 2.0
    checks = {
        "decay_rate": bool(dec["rate"] >= floor),
        "stationarity": bool(drift["max_drift"] <= 10.0 * cfg.tol
                             + 1e-12),
        "truncation_mass": bool(edge_mass < 1e-6),
    }
    series = {"deviation_l2": (dec["times"], dec["norms"]),
              "drift_l2": (drift["times"], drift["drift"])}
    summary = {"checks": checks, "rate": dec["rate"], "rate_floor": floor,
               "max_drift": drift["max_drift"],
               "drift_allowance": 10.0 * cfg.tol,
               "boundary_mass_fraction": edge_mass,
               "_checkpoint_fields": {"stationary_state": g_field}}
    return series, summary


@scenario("ns-resonant-split",
          "linear resonant decomposition: cubic-fast transport part versus "
          "a saturating forced part with only algebraic physical decay")
def ns_resonant_split(params: dict) -> tuple[dict, dict]:
    nu = float(params.get("nu", 0.1))
    grid = presets.viscous_box(int(params.get("nx", 32)),
                               int(params.get("ny", 128)))
    w0, f0 = presets.viscous_fields(grid)
    times = np.linspace(0.0, float(params.get("t_max", 12.0)), 13)
    split = nonlinear.viscous_resonant_split(w0, f0, nu, times)

    env = split["fixed_lattice_envelope"]
    monotone = bool(np.all(np.diff(env) >= -1e-12))
    mid = times >= times[-1] / 2
    fit = fit_power_law(times[mid], split["forced_part"][mid],
                        window=(float(times[mid][0]), float(times[-1])))
    checks = {
        "envelope_monotone": monotone,
        "forced_part_algebraic": bool(fit.params["alpha"] < -0.5),
    }
    series = {"transport_l2": (times[1:], split["transport_part"][1:]),
              "forced_l2": (times[1:], split["forced_part"][1:]),
              "envelope_l2": (times[1:], env[1:])}
    summary = {"checks": checks, "forced_decay_fit": fit.as_dict()}
    return series, summary
