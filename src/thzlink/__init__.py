"""Terahertz atmospheric link budget simulator.

Computes channel losses, radiometric noise, SNR, and Shannon capacity for
airplane/satellite/ground links in the 0.1-10 THz band, using line-by-line
molecular absorption through a curved, layered atmosphere.
"""

__version__ = "0.1.0"

from .atmosphere import AtmosphericState, LayerStack, build_layers, profile_at
from .catalog import (
    LineCatalog,
    SpectralLine,
    load_catalog,
    parse_line_record,
    wavenumber_to_frequency,
)
from .absorption import AbsorptionSpectrum, absorption_coefficient
from .geometry import LinkEndpoints
from .channel import AntennaConfig
from .link import LinkBudget, TransceiverConfig
from .scenario import Scenario, resolve

__all__ = [
    "AbsorptionSpectrum",
    "AntennaConfig",
    "AtmosphericState",
    "LayerStack",
    "LineCatalog",
    "LinkBudget",
    "LinkEndpoints",
    "Scenario",
    "SpectralLine",
    "TransceiverConfig",
    "absorption_coefficient",
    "build_layers",
    "load_catalog",
    "parse_line_record",
    "profile_at",
    "resolve",
    "wavenumber_to_frequency",
]
