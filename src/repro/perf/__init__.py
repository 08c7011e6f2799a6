"""PPA (performance / power / area) models (Tables 3, 4, 7-9).

Area and energy constants are solved from the paper's own silicon
anchors (see :mod:`repro.config.tech`); everything else is predicted.
"""

from .area import unit_areas, core_area_mm2, cube_perf_density
from .energy import EnergyModel, UNIT_POWER_TABLE
from .ppa import PpaRow, format_table

__all__ = [
    "unit_areas",
    "core_area_mm2",
    "cube_perf_density",
    "EnergyModel",
    "UNIT_POWER_TABLE",
    "PpaRow",
    "format_table",
]
