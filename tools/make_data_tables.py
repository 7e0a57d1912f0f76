#!/usr/bin/env python3
"""Regenerate the CSV data tables bundled under src/thzlink/data/.

Four tables are produced:

* partition_fits.csv - piecewise cubic fits of total internal partition sums
  computed from rigid-rotor / harmonic-oscillator statistical mechanics with
  standard spectroscopic constants (rotational constants, fundamentals,
  symmetry numbers, nuclear-spin and electronic degeneracies).
* ussa1976_upper.csv - pressure/temperature/composition of the 1976 US
  Standard Atmosphere above 86 km at tabulated levels.
* rain_p838.csv - ITU-R P.838-3 rain specific-attenuation power-law
  coefficients, combined for circular polarization.
* cloud_p840.csv - Rayleigh-regime cloud specific attenuation coefficient
  from the ITU-R P.840 double-Debye water permittivity model, tabulated over
  frequency and temperature.

Run from the repository root:  python tools/make_data_tables.py
"""

import math
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "thzlink" / "data"

K_OVER_HC = 0.695034800  # cm^-1 per K


# --------------------------------------------------------------------------
# Partition sums
# --------------------------------------------------------------------------

SPECIES = {
    # linear: B (cm^-1); nonlinear: (A, B, C); modes: (wavenumber, degeneracy)
    "H2O": dict(rot=(27.8806, 14.5216, 9.2778), sigma=2, gns=4, gel=1,
                modes=((3657.05, 1), (1594.75, 1), (3755.93, 1))),
    "CO2": dict(rot=0.39021, sigma=2, gns=1, gel=1,
                modes=((1333.0, 1), (667.4, 2), (2349.1, 1))),
    "O3": dict(rot=(3.5537, 0.4453, 0.3948), sigma=2, gns=1, gel=1,
               modes=((1103.14, 1), (700.93, 1), (1042.08, 1))),
    "N2O": dict(rot=0.419011, sigma=1, gns=9, gel=1,
                modes=((2223.76, 1), (588.77, 2), (1284.90, 1))),
    "CO": dict(rot=1.93128, sigma=1, gns=1, gel=1,
               modes=((2169.81, 1),)),
    "CH4": dict(rot=(5.2412, 5.2412, 5.2412), sigma=12, gns=16, gel=1,
                modes=((2916.5, 1), (1533.3, 2), (3018.9, 3), (1310.8, 3))),
    "O2": dict(rot=1.43768, sigma=2, gns=1, gel=3,
               modes=((1580.19, 1),)),
    "N2": dict(rot=1.98958, sigma=2, gns=9, gel=1,
               modes=((2358.57, 1),)),
}

# Published total internal partition sums at 296 K, for a sanity check only.
Q296_REFERENCE = {
    "H2O": 174.58, "CO2": 286.09, "O3": 3483.7, "N2O": 4984.9,
    "CO": 107.42, "CH4": 590.48, "O2": 215.73, "N2": 467.10,
}

FIT_RANGES = ((70.0, 205.0), (195.0, 405.0), (395.0, 805.0),
              (795.0, 1505.0), (1495.0, 3005.0))
FIT_TOLERANCE = 2e-3


def q_reference(name: str, t: float) -> float:
    spec = SPECIES[name]
    x = K_OVER_HC * t
    rot = spec["rot"]
    if isinstance(rot, tuple):
        q_rot = (math.sqrt(math.pi) / spec["sigma"]) * math.sqrt(
            x ** 3 / (rot[0] * rot[1] * rot[2]))
    else:
        y = x / rot
        # classical linear rotor with the first two Mulholland corrections
        q_rot = (y / spec["sigma"]) * (1.0 + 1.0 / (3.0 * y)
                                       + 1.0 / (15.0 * y * y))
    q_vib = 1.0
    for omega, degeneracy in spec["modes"]:
        q_vib *= (1.0 - math.exp(-omega / x)) ** -degeneracy
    return spec["gns"] * spec["gel"] * q_rot * q_vib


def _fit_range(name: str, t_low: float, t_high: float) -> list[str]:
    """Cubic fit over one range, bisecting until the tolerance is met."""
    grid = np.linspace(t_low, t_high, 400)
    q = np.array([q_reference(name, t) for t in grid])
    coeffs = np.polynomial.polynomial.polyfit(grid, q, 3)
    fit = np.polynomial.polynomial.polyval(grid, coeffs)
    worst = np.max(np.abs(fit - q) / q)
    if worst > FIT_TOLERANCE:
        mid = 0.5 * (t_low + t_high)
        return (_fit_range(name, t_low, mid + 5.0)
                + _fit_range(name, mid - 5.0, t_high))
    return [f"{name},{t_low:.1f},{t_high:.1f},"
            + ",".join(f"{c:.10e}" for c in coeffs)]


def make_partition_fits():
    rows = ["# Piecewise cubic fits Q(T) = c0 + c1 T + c2 T^2 + c3 T^3 of",
            "# rigid-rotor/harmonic-oscillator total internal partition sums.",
            "# Generated by tools/make_data_tables.py; regenerate, don't edit.",
            "species,t_low,t_high,c0,c1,c2,c3"]
    for name in SPECIES:
        q296 = q_reference(name, 296.0)
        ref = Q296_REFERENCE[name]
        if abs(q296 - ref) / ref > 0.05:
            raise SystemExit(
                f"{name}: Q(296) = {q296:.2f} deviates from the published "
                f"{ref} by more than 5%")
        pieces = []
        for t_low, t_high in FIT_RANGES:
            pieces.extend(_fit_range(name, t_low, t_high))
        rows.extend(pieces)
        print(f"partition {name}: Q(296) = {q296:.2f} (published {ref}), "
              f"{len(pieces)} pieces")
    (DATA_DIR / "partition_fits.csv").write_text("\n".join(rows) + "\n")


# --------------------------------------------------------------------------
# Upper atmosphere (86-500 km)
# --------------------------------------------------------------------------

# altitude_m, pressure_pa, temperature_k, n2_vmr, o2_vmr from the 1976
# standard tables (composition approximated from the number-density tables;
# molecular absorption is negligible at these pressures).
UPPER_ROWS = [
    (86_000, None, 186.87, 0.78084, 0.209476),   # pressure from the analytic model
    (90_000, 1.8359e-1, 186.87, 0.7861, 0.2062),
    (95_000, 7.5966e-2, 188.42, 0.7868, 0.1989),
    (100_000, 3.2011e-2, 195.08, 0.7837, 0.1757),
    (110_000, 7.1042e-3, 240.00, 0.7651, 0.1381),
    (120_000, 2.5382e-3, 360.00, 0.7290, 0.1102),
    (130_000, 1.2505e-3, 469.27, 0.6925, 0.0895),
    (140_000, 7.2028e-4, 559.63, 0.6597, 0.0735),
    (150_000, 4.5422e-4, 634.39, 0.6294, 0.0608),
    (160_000, 3.0395e-4, 696.29, 0.6006, 0.0505),
    (180_000, 1.5271e-4, 790.07, 0.5460, 0.0352),
    (200_000, 8.4736e-5, 854.56, 0.4935, 0.0247),
    (250_000, 2.4767e-5, 941.33, 0.3742, 0.0115),
    (300_000, 8.7704e-6, 976.01, 0.2691, 0.0054),
    (350_000, 3.4498e-6, 990.06, 0.1844, 0.0025),
    (400_000, 1.4518e-6, 995.83, 0.1212, 0.0012),
    (450_000, 6.4468e-7, 998.22, 0.0768, 0.0006),
    (500_000, 3.0236e-7, 999.24, 0.0470, 0.0003),
]


def _p86_analytic() -> float:
    """Piecewise-model pressure at 86 km geometric altitude."""
    g0, r_star, m_air = 9.80665, 8.31432, 0.0289644
    h = 6_356_766.0 * 86_000.0 / (6_356_766.0 + 86_000.0)
    t_b, l_b, p_b, h_b = 214.65, -2.0e-3, 3.956420, 71_000.0
    t = t_b + l_b * (h - h_b)
    return p_b * (t_b / t) ** (g0 * m_air / (r_star * l_b))


def make_ussa_upper():
    # Continuity at the 86 km junction: take the analytic value there.
    p86 = _p86_analytic()
    rows = ["# 1976 US Standard Atmosphere above 86 km.",
            "# Generated by tools/make_data_tables.py; regenerate, don't edit.",
            "altitude_m,pressure_pa,temperature_k,n2_vmr,o2_vmr"]
    previous = None
    for alt, pres, temp, n2, o2 in UPPER_ROWS:
        if pres is None:
            pres = p86
        if previous is not None and pres >= previous:
            raise SystemExit(f"pressure not decreasing at {alt} m")
        previous = pres
        rows.append(f"{alt},{pres:.6e},{temp:.2f},{n2:.5f},{o2:.6f}")
    (DATA_DIR / "ussa1976_upper.csv").write_text("\n".join(rows) + "\n")
    print(f"ussa upper: p(86 km) = {p86:.5f} Pa")


# --------------------------------------------------------------------------
# Rain coefficients (ITU-R P.838-3)
# --------------------------------------------------------------------------

P838 = {
    "kH": dict(a=(-5.33980, -0.35351, -0.23789, -0.94158),
               b=(-0.10008, 1.26970, 0.86036, 0.64552),
               c=(1.13098, 0.45400, 0.15354, 0.16817),
               m=-0.18961, cc=0.71147, log=True),
    "kV": dict(a=(-3.80595, -3.44965, -0.39902, 0.50167),
               b=(0.56934, -0.22911, 0.73042, 1.07319),
               c=(0.81061, 0.51059, 0.11899, 0.27195),
               m=-0.16398, cc=0.63297, log=True),
    "aH": dict(a=(-0.14318, 0.29591, 0.32177, -5.37610, 16.1721),
               b=(1.82442, 0.77564, 0.63773, -0.96230, -3.29980),
               c=(-0.55187, 0.19822, 0.13164, 1.47828, 3.43990),
               m=0.67849, cc=-1.95537, log=False),
    "aV": dict(a=(-0.07771, 0.56727, -0.20238, -48.2991, 48.5833),
               b=(2.33840, 0.95545, 1.14520, 0.791669, 0.791459),
               c=(-0.76284, 0.54039, 0.26809, 0.116226, 0.116479),
               m=-0.053739, cc=0.83433, log=False),
}


def p838_coefficient(name: str, f_ghz: float) -> float:
    spec = P838[name]
    lf = math.log10(f_ghz)
    total = sum(a * math.exp(-(((lf - b) / c) ** 2))
                for a, b, c in zip(spec["a"], spec["b"], spec["c"]))
    total += spec["m"] * lf + spec["cc"]
    return 10.0 ** total if spec["log"] else total


def make_rain_table():
    # anchor sanity checks against the recommendation's tabulated values
    anchors = ((1.0, 0.0000259, 0.9691), (10.0, 0.01217, 1.2571),
               (20.0, 0.09164, 1.0568), (30.0, 0.2403, 0.9485),
               (50.0, 0.6600, 0.8084))
    for f, k_ref, a_ref in anchors:
        k = p838_coefficient("kH", f)
        a = p838_coefficient("aH", f)
        if abs(k - k_ref) / k_ref > 0.05 or abs(a - a_ref) / a_ref > 0.05:
            raise SystemExit(
                f"P.838 coefficients at {f} GHz deviate: k={k:.4g} "
                f"(ref {k_ref}), alpha={a:.4g} (ref {a_ref})")
    freqs = np.unique(np.concatenate([
        np.logspace(0.0, 3.0, 121), [1.0, 10.0, 100.0, 1000.0]]))
    rows = ["# Rain specific-attenuation power-law coefficients,",
            "# gamma = k R^alpha in dB/km with R in mm/h, combined for",
            "# circular polarization from the ITU-R P.838-3 model, v1.",
            "# Generated by tools/make_data_tables.py; regenerate, don't edit.",
            "freq_ghz,k,alpha"]
    for f in freqs:
        kh, kv = p838_coefficient("kH", f), p838_coefficient("kV", f)
        ah, av = p838_coefficient("aH", f), p838_coefficient("aV", f)
        k = 0.5 * (kh + kv)
        alpha = (kh * ah + kv * av) / (2.0 * k)
        rows.append(f"{f:.6f},{k:.6e},{alpha:.6f}")
    (DATA_DIR / "rain_p838.csv").write_text("\n".join(rows) + "\n")
    print(f"rain: k(100 GHz) = {p838_coefficient('kH', 100.0):.4f} (H pol)")


# --------------------------------------------------------------------------
# Cloud coefficients (ITU-R P.840 style double-Debye Rayleigh model)
# --------------------------------------------------------------------------

CLOUD_TEMPS = (240.0, 250.0, 260.0, 270.0, 280.0, 290.0, 300.0, 310.0)


def water_permittivity(f_ghz: float, t_k: float) -> tuple[float, float]:
    """The real and imaginary parts, eps' and eps'', of liquid water's
    double-Debye permittivity eps' - i eps''."""
    theta = 300.0 / t_k
    e0 = 77.66 + 103.3 * (theta - 1.0)
    e1 = 0.0671 * e0
    e2 = 3.52
    fp = 20.20 - 146.0 * (theta - 1.0) + 316.0 * (theta - 1.0) ** 2
    fs = 39.8 * fp
    ep = ((e0 - e1) / (1.0 + (f_ghz / fp) ** 2)
          + (e1 - e2) / (1.0 + (f_ghz / fs) ** 2) + e2)
    epp = (f_ghz * (e0 - e1) / (fp * (1.0 + (f_ghz / fp) ** 2))
           + f_ghz * (e1 - e2) / (fs * (1.0 + (f_ghz / fs) ** 2)))
    return ep, epp


def cloud_kl(f_ghz: float, t_k: float) -> float:
    ep, epp = water_permittivity(f_ghz, t_k)
    eta = (2.0 + ep) / epp
    return 0.819 * f_ghz / (epp * (1.0 + eta * eta))


def make_cloud_table():
    # Rayleigh cross-check at 30 GHz / 273.15 K: the double-Debye K_l must
    # match 4.343 * (6 pi / lambda rho_w) Im[-(eps-1)/(eps+2)] per g/m^3.
    f, t = 30.0, 273.15
    ep, epp = water_permittivity(f, t)
    eps = complex(ep, -epp)
    lam_m = 299792458.0 / (f * 1e9)
    gamma = 4.343 * (6 * math.pi / (lam_m * 1e6)) * (
        -((eps - 1) / (eps + 2))).imag * 1000.0
    if abs(gamma - cloud_kl(f, t)) / gamma > 0.02:
        raise SystemExit(
            f"cloud model inconsistent with Rayleigh physics: {gamma:.3f} vs "
            f"{cloud_kl(f, t):.3f}")

    freqs = np.unique(np.concatenate([np.logspace(0.0, 3.0, 121),
                                      [1.0, 150.0, 200.0, 1000.0]]))
    header = ",".join(f"kl_{int(t)}k" for t in CLOUD_TEMPS)
    rows = ["# Cloud/fog specific attenuation coefficient K_l in",
            "# (dB/km)/(g/m^3), Rayleigh regime, double-Debye water",
            "# permittivity per the ITU-R P.840 model, v1. Formally valid",
            "# to 200 GHz; higher rows are extrapolation.",
            "# Generated by tools/make_data_tables.py; regenerate, don't edit.",
            f"freq_ghz,{header}"]
    for f in freqs:
        values = ",".join(f"{cloud_kl(f, t):.6e}" for t in CLOUD_TEMPS)
        rows.append(f"{f:.6f},{values}")
    (DATA_DIR / "cloud_p840.csv").write_text("\n".join(rows) + "\n")
    print(f"cloud: K_l(150 GHz, 280 K) = {cloud_kl(150.0, 280.0):.3f}")


if __name__ == "__main__":
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    make_partition_fits()
    make_ussa_upper()
    make_rain_table()
    make_cloud_table()
    print("done")
