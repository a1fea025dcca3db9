"""Optical component models.

Each component knows its insertion loss (dB) and static/dynamic power so
that link budgets (``repro.photonics.loss``) and network power estimates
(``repro.analysis.power``) are assembled from the same objects a reader can
map one-to-one onto Figure 2 of the paper.

Components are lightweight value objects; the discrete-event networks do
not simulate light propagation per component — they use the aggregate
figures these models produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .technology import DEFAULT_TECHNOLOGY, Technology


@dataclass(frozen=True)
class Component:
    """Base class: a named optical element with an insertion loss."""

    name: str
    loss_db: float
    static_power_mw: float = 0.0
    dynamic_energy_fj_per_bit: float = 0.0


def modulator(tech: Technology = DEFAULT_TECHNOLOGY, active: bool = True) -> Component:
    """An electro-optic ring modulator.

    ``active`` selects between the on-resonance (driving) loss and the
    off-resonance loss a wavelength suffers when it merely passes a
    disabled ring — the distinction that forces the Corona adaptation to
    reduce its WDM factor (paper section 4.4).
    """
    loss = tech.modulator_loss_db if active else tech.modulator_off_resonance_loss_db
    return Component(
        name="modulator" if active else "modulator(off)",
        loss_db=loss,
        static_power_mw=tech.modulator_power_mw if active else 0.0,
        dynamic_energy_fj_per_bit=tech.modulator_energy_fj_per_bit if active else 0.0,
    )


def opxc_coupler(tech: Technology = DEFAULT_TECHNOLOGY) -> Component:
    """An optical proximity communication coupling (chip<->substrate or
    substrate layer<->layer)."""
    return Component(name="opxc", loss_db=tech.opxc_loss_db)


def waveguide(length_cm: float, tech: Technology = DEFAULT_TECHNOLOGY,
              layer: str = "global") -> Component:
    """A waveguide segment of ``length_cm`` on the ``global`` (3um SOI
    routing layer, 0.1 dB/cm) or ``local`` (thinned SOI, 0.5 dB/cm) layer."""
    if length_cm < 0:
        raise ValueError("waveguide length must be non-negative")
    if layer == "global":
        per_cm = tech.global_waveguide_loss_db_per_cm
    elif layer == "local":
        per_cm = tech.local_waveguide_loss_db_per_cm
    else:
        raise ValueError("layer must be 'global' or 'local', got %r" % layer)
    return Component(
        name="waveguide[%s,%.1fcm]" % (layer, length_cm),
        loss_db=length_cm * per_cm,
    )


def drop_filter(selected: bool, tech: Technology = DEFAULT_TECHNOLOGY) -> Component:
    """A ring drop filter: 1.5 dB for the dropped wavelength, 0.1 dB for a
    wavelength that continues past."""
    return Component(
        name="drop_filter[%s]" % ("drop" if selected else "through"),
        loss_db=(tech.drop_filter_drop_loss_db if selected
                 else tech.drop_filter_through_loss_db),
        static_power_mw=tech.ring_tuning_power_mw,
    )


def multiplexer(tech: Technology = DEFAULT_TECHNOLOGY) -> Component:
    """A cascaded-ring WDM multiplexer (worst-case channel insertion)."""
    return Component(
        name="mux",
        loss_db=tech.mux_insertion_loss_db,
        static_power_mw=tech.ring_tuning_power_mw,
    )


def broadband_switch(tech: Technology = DEFAULT_TECHNOLOGY) -> Component:
    """A 1x2 broadband (comb) switch."""
    return Component(
        name="switch1x2",
        loss_db=tech.switch_loss_db,
        static_power_mw=tech.switch_power_mw,
    )


def splitter(tech: Technology = DEFAULT_TECHNOLOGY) -> Component:
    """A 1:2 optical power splitter (3 dB ideal split)."""
    return Component(name="splitter", loss_db=tech.splitter_loss_db)


def receiver(tech: Technology = DEFAULT_TECHNOLOGY) -> Component:
    """A waveguide photodetector + TIA receiver (terminates the path)."""
    return Component(
        name="receiver",
        loss_db=0.0,
        static_power_mw=tech.receiver_power_mw,
        dynamic_energy_fj_per_bit=tech.receiver_energy_fj_per_bit,
    )


@dataclass
class OpticalPath:
    """An ordered chain of components from modulator to receiver.

    Used by the loss calculator to compute a link budget, and by tests to
    assert the canonical un-switched link comes out at the paper's 17 dB.
    """

    components: List[Component] = field(default_factory=list)

    def append(self, component: Component) -> "OpticalPath":
        self.components.append(component)
        return self

    def extend(self, components: List[Component]) -> "OpticalPath":
        self.components.extend(components)
        return self

    @property
    def total_loss_db(self) -> float:
        return sum(c.loss_db for c in self.components)

    @property
    def static_power_mw(self) -> float:
        return sum(c.static_power_mw for c in self.components)

    def describe(self) -> str:
        """One line per component with its loss, plus the total."""
        lines = ["%-28s %6.2f dB" % (c.name, c.loss_db) for c in self.components]
        lines.append("%-28s %6.2f dB" % ("TOTAL", self.total_loss_db))
        return "\n".join(lines)
