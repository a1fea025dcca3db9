"""Analysis layer: power (Table 5), EDP (Figure 10), rendering."""

from .edp import EnergyBreakdown, energy_breakdown, normalized_edp, speedups
from .power import (
    NetworkPower,
    network_power,
    router_energy_fraction,
    static_power_w,
    table5_rows,
)
from .area import area_table, bandwidth_density_gb_per_s_per_mm
from .plot import ascii_plot, plot_figure6_panel
from .tables import format_count, render_series, render_table
from .validate import quick_validation, validate_tables

__all__ = [
    "table5_rows",
    "network_power",
    "NetworkPower",
    "static_power_w",
    "router_energy_fraction",
    "energy_breakdown",
    "EnergyBreakdown",
    "normalized_edp",
    "speedups",
    "render_table",
    "render_series",
    "format_count",
    "area_table",
    "bandwidth_density_gb_per_s_per_mm",
    "ascii_plot",
    "plot_figure6_panel",
    "quick_validation",
    "validate_tables",
]
