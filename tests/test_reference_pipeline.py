"""``resolve`` against a reference pipeline of the public stages alone.

The reference builds every layer from the ground to the stack top, takes the
ray's segments from the lower terminal, and runs each stage as its own
public function, on the survey grid and on the capacity band apart. The fast
path shares layer tables and disk entries between calls, merges the two
grids, keeps only the layers with a live line and works in place; none of
that may move a byte.
"""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thzlink.absorption import absorption_coefficient
from thzlink.atmosphere import build_layers, profile_at
from thzlink.catalog import bundled_catalog_path, load_catalog
from thzlink.channel import (
    cloud_attenuation,
    dish_gain,
    rain_attenuation,
    total_path_loss,
    transmittance,
)
from thzlink.geometry import atmospheric_path_length, layer_path_segments
from thzlink.link import SkyPath, capacity, snr, total_noise_psd
from thzlink.scenario import (
    KINDS,
    SpectrumCache,
    build_scenario,
    make_grid,
    resolve,
)
from thzlink.sweep import run_sweep

CATALOG = load_catalog(bundled_catalog_path(), 0.0, 1e6)


def reference(s, grid):
    """tau, path loss, noise density and SNR of scenario ``s`` on ``grid``."""
    h_low, h_high = s.endpoints()
    humidity = s.ground_humidity, s.water_scale_height
    r, psi = s.line_of_sight
    if s.kind == "A2A":   # one state over the level path
        states, segments = [profile_at(h_low, *humidity)], [(0, r)]

        def through(base, top):
            return r if base < top and base <= h_low <= top else 0.0
    else:
        layers = build_layers(0.0, s.stack_top, s.layer_resolution, *humidity)
        states = [layer.state for layer in layers]
        segments = layer_path_segments(h_low, psi, layers)

        def reach(h):
            return atmospheric_path_length(h_low, psi, h) if h > h_low else 0.0

        def through(base, top):
            lo, hi = (min(max(h, h_low), h_high) for h in (base, top))
            return reach(hi) - reach(lo) if hi > lo else 0.0
    spectra = {i: absorption_coefficient(CATALOG, states[i], grid,
                                         s.wing_cutoff)
               for i, _ in segments}
    tau = transmittance(grid, segments, spectra)
    sky = [(states[i].temperature, -np.expm1(-spectra[i].kappa * length))
           for i, length in segments if spectra[i].kappa.any()]
    if s.rx_altitude >= h_high:   # the receiver is the upper end
        sky.reverse()
    temperatures = np.array([t for t, _ in sky])
    emissivities = np.array([e for _, e in sky]).reshape(len(sky), grid.size)
    noise = total_noise_psd(grid, SkyPath(temperatures, emissivities),
                            s.transceiver)
    rain = rain_attenuation(grid, s.rain_rate, through(
        s.rain_base, s.rain_base + s.rain_thickness)).db
    cloud_t = profile_at(min(s.cloud_base + 0.5 * s.cloud_thickness,
                             s.atmosphere_top), *humidity).temperature
    cloud = cloud_attenuation(grid, s.cloud_density, through(
        s.cloud_base, s.cloud_base + s.cloud_thickness), cloud_t).db
    loss = total_path_loss(grid, r, tau, dish_gain(s.tx_antenna, grid),
                           dish_gain(s.rx_antenna, grid),
                           rain_db=rain, cloud_db=cloud)
    return tau, loss, noise, snr(loss, noise, s.transceiver)


@st.composite
def successions(draw):
    """One to three scenarios of one grid, band, stack and weather, each of
    its own kind and elevation, so that a cache shared by them is warm.
    Each starts no higher than the one before, so that a stack they share
    is filled further down."""
    f_min = draw(st.floats(60.0, 900.0))
    f_step = draw(st.sampled_from([0.25, 1.0, 3.0, 10.0]))
    f_max = f_min + f_step * (draw(st.integers(1, 64)) - 1)
    center = draw(st.one_of(   # a band inside the survey grid, or anywhere
        st.floats(f_min, f_max), st.floats(60.0, 1000.0)))
    km = st.sampled_from([0.0, 0.7, 3.0, 9.5])
    values = {
        "h_ground_m": draw(st.sampled_from([0.0, 350.0, 1500.0])),
        "h_airplane_km": draw(st.sampled_from([2.0, 8.5, 11.0, 16.3, 30.0])),
        "h_satellite_km": draw(st.sampled_from([40.0, 120.0, 500.0])),
        "layer_resolution_m": draw(st.sampled_from([3e3, 7e3, 20e3])),
        "f_min_ghz": f_min,
        "f_max_ghz": f_max + 1e-6,
        "f_step_ghz": f_step,
        "center_frequency_ghz": center,
        "bandwidth_ghz": draw(st.sampled_from([0.5, 5.0, 20.0])),
        "rain_rate_mm_h": draw(st.sampled_from([0.0, 4.0, 50.0])),
        "rain_base_km": draw(km),
        "rain_thickness_km": draw(km),
        "cloud_density_g_m3": draw(st.sampled_from([0.0, 0.3, 2.0])),
        "cloud_base_km": draw(km),
        "cloud_thickness_km": draw(km),
    }
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    return sorted((build_scenario(values | {"kind": kind} | (
        {} if kind == "A2A" else {"elevation_deg": draw(st.floats(5.0, 90.0))}))
        for kind in kinds), key=lambda s: -s.endpoints()[0])


def _bytes(tau, loss, noise, snr_values, capacity_value):
    return [tau.tobytes(), loss.tobytes(), noise.tobytes(),
            snr_values.tobytes(), np.float64(capacity_value).tobytes()]


@settings(max_examples=100)
@given(succession=successions())
def test_resolve_gives_the_bytes_of_the_public_stages(succession):
    with np.errstate(over="ignore", divide="ignore"), \
            tempfile.TemporaryDirectory() as tmp:
        shared, disk = SpectrumCache(), SpectrumCache(tmp)
        for step, scenario in enumerate(succession):
            survey = make_grid(scenario.f_min, scenario.f_max,
                               scenario.f_step)
            band = scenario.transceiver.band
            want = _bytes(*reference(scenario, survey), capacity(
                band, reference(scenario, band)[3]))
            # fresh, warm in memory, warm on disk, and a reader of the disk
            for cache in (SpectrumCache(), shared, disk, SpectrumCache(tmp)):
                link = resolve(scenario, cache)
                assert _bytes(link.tau, link.path_loss, link.noise_psd,
                              link.snr, link.budget.capacity) == want, step



@pytest.mark.parametrize("kind", KINDS)
def test_each_sweep_point_gives_the_bytes_of_a_fresh_resolve(kind):
    base = build_scenario({
        "kind": kind, "h_ground_m": 350.0, "h_satellite_km": 120.0,
        "layer_resolution_m": 2e3, "f_min_ghz": 100.0, "f_max_ghz": 400.0,
        "f_step_ghz": 25.0, "center_frequency_ghz": 300.0,
        "bandwidth_ghz": 5.0, "rain_rate_mm_h": 4.0, "rain_base_km": 0.7,
        "rain_thickness_km": 3.0, "cloud_density_g_m3": 0.3,
        "cloud_base_km": 3.0, "cloud_thickness_km": 9.5}
        | ({} if kind == "A2A" else {"elevation_deg": 40.0}))
    sweeps = []
    if kind != "A2A":
        sweeps.append(("elevation", 20.0, 90.0, 35.0))
    if "A" in (kind[0], kind[2]):
        sweeps.append(("altitude", 500.0, 12e3, 4e3))
    # the sweeps of a kind share one cache, so each point after the first
    # reads a stack that earlier points filled, and an altitude sweep from
    # 500 m fills it further down than an elevation sweep from 11 km
    shared = SpectrumCache()
    with np.errstate(over="ignore", divide="ignore"):
        for axis, start, stop, step in sweeps:
            points, results = run_sweep(base, axis, start, stop, step,
                                        cache=shared)
            assert len(points) == len(results) == 3
            for value, link in zip(points, results):
                scenario = (dataclasses.replace(base, h_airplane=value)
                            if axis == "altitude" else base.at_elevation(value))
                fresh = resolve(scenario, SpectrumCache())
                assert _bytes(link.tau, link.path_loss, link.noise_psd,
                              link.snr, link.budget.capacity) == _bytes(
                    fresh.tau, fresh.path_loss, fresh.noise_psd, fresh.snr,
                    fresh.budget.capacity), (axis, value)
