"""Tests for the photonic technology substrate: technology constants,
component models, link budgets, and laser power."""

import pytest

from repro.core.units import db_to_factor
from repro.photonics import components as comp
from repro.photonics import loss
from repro.photonics.power import (
    LaserPowerEstimate,
    laser_power_w,
    router_energy_pj,
    transmit_energy_pj,
)
from repro.photonics.technology import DEFAULT_TECHNOLOGY, Technology, table1_rows


class TestTechnology:
    def test_table1_values(self):
        t = DEFAULT_TECHNOLOGY
        assert t.modulator_energy_fj_per_bit == 35.0
        assert t.receiver_energy_fj_per_bit == 65.0
        assert t.laser_energy_fj_per_bit == 50.0
        assert t.modulator_loss_db == 4.0
        assert t.opxc_loss_db == 1.2
        assert t.switch_loss_db == 1.0
        assert t.drop_filter_drop_loss_db == 1.5
        assert t.drop_filter_through_loss_db == 0.1

    def test_wavelength_bandwidth(self):
        # 20 Gb/s -> 2.5 GB/s per wavelength
        assert DEFAULT_TECHNOLOGY.wavelength_bandwidth_gb_per_s == 2.5

    def test_link_margin_is_21db(self):
        # 0 dBm launch, -21 dBm sensitivity
        assert DEFAULT_TECHNOLOGY.link_margin_db == 21.0

    def test_overrides_do_not_mutate_default(self):
        t2 = DEFAULT_TECHNOLOGY.with_overrides(switch_loss_db=2.0)
        assert t2.switch_loss_db == 2.0
        assert DEFAULT_TECHNOLOGY.switch_loss_db == 1.0

    def test_table1_rows_cover_all_components(self):
        names = [r[0] for r in table1_rows()]
        assert names == ["Modulator", "OPxC", "Waveguide", "Drop Filter",
                         "Receiver", "Switch", "Laser"]


class TestComponents:
    def test_modulator_active_vs_off(self):
        active = comp.modulator(active=True)
        off = comp.modulator(active=False)
        assert active.loss_db == 4.0
        assert off.loss_db == 0.1
        assert active.dynamic_energy_fj_per_bit == 35.0
        assert off.dynamic_energy_fj_per_bit == 0.0

    def test_waveguide_layers(self):
        assert comp.waveguide(10.0, layer="global").loss_db == pytest.approx(1.0)
        assert comp.waveguide(10.0, layer="local").loss_db == pytest.approx(5.0)
        with pytest.raises(ValueError):
            comp.waveguide(1.0, layer="bogus")
        with pytest.raises(ValueError):
            comp.waveguide(-1.0)

    def test_drop_filter_two_ports(self):
        assert comp.drop_filter(selected=True).loss_db == 1.5
        assert comp.drop_filter(selected=False).loss_db == 0.1

    def test_path_accumulates_loss(self):
        path = comp.OpticalPath()
        path.append(comp.modulator())
        path.append(comp.opxc_coupler())
        assert path.total_loss_db == pytest.approx(5.2)

    def test_path_describe_mentions_total(self):
        path = comp.OpticalPath([comp.modulator()])
        assert "TOTAL" in path.describe()


class TestLinkBudget:
    def test_canonical_unswitched_link_is_17db(self):
        # section 2: "the optical link loss for an un-switched link is 17 dB"
        path = loss.unswitched_link()
        assert path.total_loss_db == pytest.approx(17.0, abs=0.11)

    def test_canonical_link_leaves_4db_margin(self):
        budget = loss.budget_for(loss.unswitched_link())
        assert budget.margin_db == pytest.approx(4.0, abs=0.11)
        assert budget.closes

    def test_overloaded_link_does_not_close(self):
        path = loss.unswitched_link()
        for _ in range(10):
            path.append(comp.broadband_switch())
        assert not loss.budget_for(path).closes

    def test_token_ring_extra_loss(self):
        # 128 pass-by rings x 0.1 dB = 12.8 dB -> ~19x (Table 5)
        db = loss.token_ring_extra_loss_db(128)
        assert db == pytest.approx(12.8)
        assert db_to_factor(db) == pytest.approx(19.05, abs=0.01)

    def test_circuit_switched_extra_loss(self):
        # 31 hops x 0.5 dB (section 4.5)
        assert loss.circuit_switched_extra_loss_db(31) == pytest.approx(15.5)

    def test_two_phase_extra_loss(self):
        assert loss.two_phase_extra_loss_db(7) == pytest.approx(7.0)
        assert loss.two_phase_extra_loss_db(6) == pytest.approx(6.0)

    def test_snoop_loss_factor_of_8(self):
        assert db_to_factor(loss.snoop_extra_loss_db(8)) == pytest.approx(8.0)


class TestPower:
    def test_p2p_laser_power_8w(self):
        # Table 5: point-to-point, 8192 wavelengths, no extra loss -> ~8 W
        assert laser_power_w(8192, 0.0) == pytest.approx(8.192)

    def test_token_ring_laser_power_155w(self):
        # Table 5: 8192 feeds at 19x -> ~155 W
        assert laser_power_w(8192, 12.8) == pytest.approx(156.0, abs=1.0)

    def test_two_phase_laser_power(self):
        # Table 5: data 41 W; ALT 65.5 W
        assert laser_power_w(8192, 7.0) == pytest.approx(41.0, abs=0.5)
        assert laser_power_w(16384, 6.0) == pytest.approx(65.2, abs=0.5)

    def test_estimate_object(self):
        est = LaserPowerEstimate("x", 100, 10.0)
        assert est.loss_factor == pytest.approx(10.0)
        assert est.laser_power_w == pytest.approx(1.0)

    def test_transmit_energy_is_150fj_per_bit(self):
        # modulator 35 + receiver 65 + laser 50 = 150 fJ/bit
        assert transmit_energy_pj(1) == pytest.approx(1.2)  # 8 bits
        assert transmit_energy_pj(64) == pytest.approx(76.8)

    def test_router_energy_60pj_per_byte(self):
        assert router_energy_pj(64) == pytest.approx(3840.0)


class TestSignaling:
    """The NRZ/PAM4 multilevel-signaling knob (extension)."""

    def test_nrz_is_the_default_and_bit_identical(self):
        t = DEFAULT_TECHNOLOGY
        assert t.signaling == "nrz"
        assert t.bits_per_symbol == 1
        assert t.effective_bit_rate_gbps == 20.0
        assert t.wavelength_bandwidth_gb_per_s == 2.5
        # dispatch properties reproduce the paper's Table 1 fields exactly
        assert t.modulation_energy_fj_per_bit == t.modulator_energy_fj_per_bit
        assert t.detection_energy_fj_per_bit == t.receiver_energy_fj_per_bit
        assert t.signaling_penalty_db == 0.0
        assert (t.effective_receiver_sensitivity_dbm
                == t.receiver_sensitivity_dbm)
        assert t.link_margin_db == 21.0
        assert transmit_energy_pj(64, t) == 76.8

    def test_pam4_doubles_rate_per_wavelength(self):
        t = DEFAULT_TECHNOLOGY.with_overrides(signaling="pam4")
        assert t.bits_per_symbol == 2
        assert t.effective_bit_rate_gbps == 40.0
        assert t.wavelength_bandwidth_gb_per_s == 5.0

    def test_pam4_energy_per_bit_is_higher(self):
        t = DEFAULT_TECHNOLOGY.with_overrides(signaling="pam4")
        assert t.modulation_energy_fj_per_bit == 55.0
        assert t.detection_energy_fj_per_bit == 110.0
        # 64 B x 8 x (55 + 110 + 50) fJ/bit = 110.08 pJ vs NRZ's 76.8
        assert transmit_energy_pj(64, t) == pytest.approx(110.08)
        assert transmit_energy_pj(64, t) > transmit_energy_pj(64)

    def test_pam4_eye_penalty_shrinks_link_margin(self):
        from repro.photonics.technology import pam4_eye_penalty_db

        t = DEFAULT_TECHNOLOGY.with_overrides(signaling="pam4")
        assert t.signaling_penalty_db == 4.8
        assert t.effective_receiver_sensitivity_dbm == pytest.approx(-16.2)
        assert t.link_margin_db == pytest.approx(16.2)
        # the default rounds the ideal 10*log10(3) = 4.77 dB
        assert pam4_eye_penalty_db() == pytest.approx(4.771, abs=1e-3)

    def test_canonical_link_closes_nrz_but_not_pam4(self):
        """The 17 dB unswitched link leaves 4 dB of NRZ margin; the PAM4
        eye penalty eats it — the budget surfaces the tradeoff."""
        t4 = DEFAULT_TECHNOLOGY.with_overrides(signaling="pam4")
        nrz = loss.budget_for(loss.unswitched_link())
        pam4 = loss.budget_for(loss.unswitched_link(t4), t4)
        assert nrz.closes
        assert nrz.margin_db == pytest.approx(4.0)
        assert not pam4.closes
        assert pam4.margin_db == pytest.approx(nrz.margin_db - 4.8)

    def test_pam4_halves_wavelengths_for_fixed_bandwidth(self):
        from repro.photonics.wdm import (waveguides_for_wavelengths,
                                         wavelengths_for_bandwidth)

        t4 = DEFAULT_TECHNOLOGY.with_overrides(signaling="pam4")
        assert wavelengths_for_bandwidth(320.0) == 128
        assert wavelengths_for_bandwidth(320.0, t4) == 64
        assert waveguides_for_wavelengths(128, 8) == 16
        assert waveguides_for_wavelengths(64, 8) == 8

    def test_unknown_signaling_rejected(self):
        with pytest.raises(ValueError):
            Technology(signaling="qam16")
