"""Release gate: ten numbered end-to-end checks with pinned tolerances.

Each test prints one ``criterion N: PASS/FAIL (...)`` line (run with -s to
see them all; failures always show theirs) and then asserts, so a plain
``pytest -v`` run also gives a per-criterion verdict via the test names.
"""

import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (eval_field, first_order_ode_oracle, first_order_top,
                     mode_scalars, solve_zeroth, synthesize_linear_data,
                     transfer_matrix, zeroth_residuals)
from superlens_imaging.core import PhysicalConfig, gamma_eta_grid
from superlens_imaging.errors import NearSingularSystem, ResonantMode
from superlens_imaging.experiments import EXPERIMENTS
from superlens_imaging.inverse import (choose_cutoff, recon_coefficients,
                                       reconstruct, residual_curve)
from superlens_imaging.measurement import (NoiseSpec, add_noise,
                                           noise_dft_stats, rescale_to_snr)
from superlens_imaging.profiles import (peaks_profile, profile_spectrum,
                                        trig_profile)
from superlens_imaging.spectral import dft2, grid_l2_norm
from superlens_imaging.tfe import _sigma, scaling_factor, u0_top

OMEGA = 2.0 * math.pi / 1.1


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _random_config(rng, omega_lo=0.5, omega_hi=12.0) -> PhysicalConfig:
    def medium():
        mag = rng.uniform(0.3, 2.0)
        return rng.choice([-1.0, 1.0]) * mag + 1j * rng.uniform(0.0, 0.3)
    a = rng.uniform(0.03, 0.4)
    return PhysicalConfig(omega=rng.uniform(omega_lo, omega_hi),
                          period1=rng.uniform(0.7, 1.4),
                          period2=rng.uniform(0.7, 1.4),
                          a=a, b=a + rng.uniform(0.03, 0.4),
                          rho=medium(), kappa=medium())


# --- 1: layer determinant closed form ----------------------------------------

def test_criterion_1_determinant_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    draws = 0
    while draws < 1000:
        cfg = _random_config(rng)
        n = (int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))
        gam, eta, resonant = gamma_eta_grid(*n, cfg)
        sig, singular, _ = _sigma(gam, eta, cfg)
        if resonant or singular:
            continue
        det = np.linalg.det(transfer_matrix(n, cfg))
        worst = max(worst, abs(det - sig) / abs(sig))
        draws += 1
    dt = time.perf_counter() - t0
    _verdict(1, worst < 1e-10 and dt < 1.0,
             f"max rel dev {worst:.2e} over 1000 draws in {dt:.2f}s")


# --- 2: flat-surface solution satisfies its defining system --------------------

def test_criterion_2_zeroth_order_residuals():
    rng = np.random.default_rng(202)
    worst = worst_top = 0.0
    t0 = time.perf_counter()
    checked = 0
    while checked < 200:
        cfg = _random_config(rng)
        try:
            res = zeroth_residuals(cfg)
            # the package's flat top value against the oracle field at z = b
            top = abs(u0_top(cfg) - complex(eval_field(solve_zeroth(cfg), cfg,
                                                       cfg.b)))
        except (ResonantMode, NearSingularSystem):
            continue
        worst = max(worst, max(res.values()))
        worst_top = max(worst_top, top)
        checked += 1
    # slab-absent mirror oracle: total field -2i sin(omega z)
    cfg0 = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2, rho=1 + 0j, kappa=1 + 0j)
    z = np.linspace(0.0, cfg0.b, 57)
    mirror = np.max(np.abs(eval_field(solve_zeroth(cfg0), cfg0, z)
                           + 2j * np.sin(OMEGA * z)))
    dt = time.perf_counter() - t0
    _verdict(2, worst < 1e-10 and worst_top < 1e-10 and mirror < 1e-12
             and dt < 1.0,
             f"max residual {worst:.2e} and top-value dev {worst_top:.2e} "
             f"over 200 configs, mirror dev {mirror:.2e}, {dt:.2f}s")


# --- 3: first-order closed form vs ODE quadrature ------------------------------

def test_criterion_3_first_order_vs_ode_oracle():
    rng = np.random.default_rng(303)
    worst_ode = 0.0
    worst_piv = 0.0
    t0 = time.perf_counter()
    draws = 0
    while draws < 20:
        def medium():
            mag = rng.uniform(0.3, 2.0)
            return rng.choice([-1.0, 1.0]) * mag + 1j * rng.uniform(0.0, 0.3)
        a = rng.uniform(0.05, 0.3)
        cfg = PhysicalConfig(omega=rng.uniform(2.0, 9.0),
                             period1=rng.uniform(0.8, 1.3),
                             period2=rng.uniform(0.8, 1.3),
                             a=a, b=a + rng.uniform(0.05, 0.4),
                             rho=medium(), kappa=medium())
        n = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        g_n = rng.uniform(0.1, 1.0) * cmath.exp(2j * math.pi * rng.uniform(0, 1))
        try:
            top = first_order_top(n, g_n, cfg)
            oracle = first_order_ode_oracle(n, g_n, cfg, z_steps=1024)
            s_n = scaling_factor(n, cfg)
        except (ResonantMode, NearSingularSystem):
            continue
        worst_ode = max(worst_ode, abs(top - oracle) / abs(top))
        worst_piv = max(worst_piv, abs(s_n * top - g_n) / abs(g_n))
        draws += 1
    dt = time.perf_counter() - t0
    _verdict(3, worst_ode < 1e-6 and worst_piv < 1e-12 and dt < 10.0,
             f"max ODE dev {worst_ode:.2e}, max pivotal dev {worst_piv:.2e} "
             f"over 20 draws in {dt:.2f}s")


# --- 4: scaling-factor special cases -------------------------------------------

def test_criterion_4_scaling_special_cases():
    t0 = time.perf_counter()
    ns = [(n1, n2) for n1 in range(-12, 13) for n2 in range(-12, 13)]

    vac = PhysicalConfig(omega=OMEGA, a=0.1, b=0.25, rho=1 + 0j, kappa=1 + 0j)

    def vac_closed(n):
        return (cmath.exp(-1j * mode_scalars(n, vac).gamma * vac.b)
                / (2j * OMEGA))

    dev_vac = max(abs(scaling_factor(n, vac) - vac_closed(n))
                  / abs(vac_closed(n)) for n in ns)

    lens = replace(vac, rho=-1 + 0j, kappa=-1 + 0j)   # a != h here
    h = lens.h
    dev_lens = max(
        abs(scaling_factor(n, lens)
            - cmath.exp(2j * OMEGA * h) / (2j * OMEGA)
            * cmath.exp(-1j * mode_scalars(n, lens).gamma * (lens.a - h)))
        / abs(scaling_factor(n, lens))
        for n in ns)

    ideal = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2,
                           rho=-1 + 0j, kappa=-1 + 0j)  # a = h
    dev_ideal = max(abs(abs(scaling_factor(n, ideal)) - 0.5 / OMEGA)
                    for n in ns)
    dt = time.perf_counter() - t0
    _verdict(4, dev_vac < 1e-12 and dev_lens < 1e-12
             and dev_ideal < 1e-12 and dt < 1.0,
             f"slab-absent dev {dev_vac:.2e}, lossless-lens dev "
             f"{dev_lens:.2e}, matched-thickness dev {dev_ideal:.2e}, "
             f"{dt:.2f}s")


# --- 5: forward solver consistent with the linear model ------------------------

def test_criterion_5_forward_epsilon_consistency(phys_table1, sol_table1,
                                                 sol_table1_half_eps):
    profile = trig_profile()

    def defect(sol, eps):
        cfg = replace(phys_table1, epsilon=eps)
        model = synthesize_linear_data(profile, cfg, N_max=12, quad_I=99)
        return float(np.linalg.norm(sol.top.values - model.values))

    d_full = defect(sol_table1, 1e-3)
    d_half = defect(sol_table1_half_eps, 5e-4)
    ratio = d_full / d_half
    _verdict(5, 3.2 <= ratio <= 4.8,
             f"remainder ratio {ratio:.3f} for eps 1e-3 -> 5e-4 "
             f"(defects {d_full:.3e}, {d_half:.3e})")


# --- experiment-1 pipeline shared by criteria 6, 7, 10 --------------------------

@pytest.fixture(scope="module")
def exp1_pipeline(phys_table1, sol_table1):
    preset = EXPERIMENTS["1"]
    # the packaged preset must match the physics this solve used
    assert preset["base"]["rho"] == phys_table1.rho
    assert preset["base"]["epsilon"] == phys_table1.epsilon
    truth = phys_table1.epsilon * trig_profile().sample_grid(99, 99)
    truth_norm = grid_l2_norm(truth)
    rows = []
    for i, row in enumerate(preset["rows"]):
        m = add_noise(sol_table1.top_grid,
                      NoiseSpec(sigma=row["sigma"], seed=10 * i))
        m = rescale_to_snr(sol_table1.top_grid, m, row["target_snr"])
        U = dft2(m.u_delta)
        rc = recon_coefficients(U, phys_table1)
        curve = residual_curve(U, phys_table1, 12)
        choice = choose_cutoff(curve, grid_l2_norm(m.delta), c=1.0)
        errs = [grid_l2_norm(reconstruct(rc, N, (99, 99)) - truth)
                / truth_norm for N in range(9)]
        rows.append({"target": row["target_snr"], "snr": m.snr, "rc": rc,
                     "choice": choice, "errs": errs})
    return rows


def test_criterion_6_discrepancy_selects_n3(exp1_pipeline):
    chosen = [r["choice"].N for r in exp1_pipeline]
    mins_ok = []
    for r in exp1_pipeline:
        best = min(r["errs"])
        mins_ok.append(r["errs"][3] <= 1.05 * best)
    ok = chosen == [3, 3, 3] and all(mins_ok)
    argmins = [int(np.argmin(r["errs"])) for r in exp1_pipeline]
    _verdict(6, ok, f"chosen N {chosen}, error-curve argmins {argmins}, "
             f"errors at N=3: "
             + ", ".join(f"{r['errs'][3]:.3f}" for r in exp1_pipeline))


def test_criterion_7_evanescent_modes_recovered(exp1_pipeline, phys_table1):
    g_spec = profile_spectrum(trig_profile(), 3, quad_I=99)
    rc = exp1_pipeline[0]["rc"]
    omega = phys_table1.omega
    worst = 0.0
    worst_n = None
    tested = 0
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            alpha = 2.0 * math.pi * math.hypot(n1, n2)
            if alpha <= omega:        # propagating; not the claim under test
                continue
            truth_c = phys_table1.epsilon * g_spec.coeff((n1, n2))
            if abs(truth_c) < 1e-12 * phys_table1.epsilon:
                continue              # cross modes of the separable sum
            rel = abs(rc.coeff((n1, n2)) - truth_c) / abs(truth_c)
            tested += 1
            if rel > worst:
                worst, worst_n = rel, (n1, n2)
    # the surface has 12 evanescent axis modes: (+-1..3, 0) and (0, +-1..3)
    _verdict(7, worst < 0.10 and tested == 12,
             f"max coefficient dev {worst:.3f} at n={worst_n} over {tested} "
             f"evanescent surface modes (lowest-noise row)")


# --- 8: no slab, no subwavelength content ---------------------------------------

def test_criterion_8_no_slab_negative_control(phys_vacuum, sol_vacuum_peaks):
    truth = phys_vacuum.epsilon * peaks_profile().sample_grid(99, 99)
    truth_norm = grid_l2_norm(truth)
    m = add_noise(sol_vacuum_peaks.top_grid, NoiseSpec(sigma=1.0, seed=20))
    m = rescale_to_snr(sol_vacuum_peaks.top_grid, m, 9.3)
    rc = recon_coefficients(dft2(m.u_delta), phys_vacuum)
    errs = [grid_l2_norm(reconstruct(rc, N, (99, 99)) - truth) / truth_norm
            for N in range(13)]
    ok = all(errs[N] > errs[0] for N in range(1, 13))
    _verdict(8, ok, f"slab-absent errors: N=0 {errs[0]:.3f}, "
             f"min over N>=1 {min(errs[1:]):.3f}")


# --- 9: white-noise law on the DFT grid ------------------------------------------

def test_criterion_9_noise_law():
    t0 = time.perf_counter()
    trials = 500
    stats = noise_dft_stats(NoiseSpec(sigma=0.01, seed=0), 99, trials)
    expected = stats.expected_std
    assert expected == pytest.approx(0.01 / 99)

    rel_re = np.abs(stats.std_re / expected - 1.0)
    rel_im = np.abs(stats.std_im / expected - 1.0)
    # a 10% band is ~3.2 standard errors at 500 trials, so demand it as a
    # quantile (>=99% of the 99x99 modes) with a 20% hard cap, rather than
    # for every single mode
    frac_re = float(np.mean(rel_re <= 0.10))
    frac_im = float(np.mean(rel_im <= 0.10))
    caps = max(rel_re.max(), rel_im.max())

    se_cov = expected ** 2 / math.sqrt(trials)
    frac_cov = float(np.mean(np.abs(stats.cov) <= 3 * se_cov))
    cap_cov = float(np.abs(stats.cov).max() / se_cov)
    dt = time.perf_counter() - t0

    ok = (frac_re >= 0.99 and frac_im >= 0.99 and caps <= 0.20
          and frac_cov >= 0.995 and cap_cov <= 6.0 and dt < 30.0)
    _verdict(9, ok,
             f"std within 10%: re {100 * frac_re:.1f}%, im "
             f"{100 * frac_im:.1f}% (worst {100 * caps:.1f}%); |cov| <= 3SE "
             f"for {100 * frac_cov:.2f}% (worst {cap_cov:.1f} SE); {dt:.1f}s")


# --- 10: realized SNR matches the published operating points ---------------------

def test_criterion_10_realized_snr(exp1_pipeline):
    targets = [10.9, 5.5, 2.8]
    realized = [r["snr"] for r in exp1_pipeline]
    ok = all(abs(s - t) / t <= 0.15 for s, t in zip(realized, targets))
    _verdict(10, ok, "realized SNR "
             + ", ".join(f"{s:.2f}/{t}" for s, t in zip(realized, targets)))
