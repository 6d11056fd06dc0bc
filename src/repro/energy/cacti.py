"""Simplified CACTI-like analytic SRAM energy model.

CACTI derives per-access dynamic energy and leakage power from a detailed
circuit model.  For a reproduction that only needs *relative* energies, a
much simpler analytic model suffices, built from three observations that also
hold in CACTI's output:

* dynamic read/write energy grows with the square root of the array capacity
  (bitline/wordline lengths grow with the array's linear dimensions) plus a
  term proportional to the number of bits actually read out (sense amps and
  output drivers);
* CAM searches (fully-associative tags, as in TLBs) pay for charging every
  match line, i.e. a term proportional to ``rows * tag_bits``;
* leakage power is proportional to the number of bit cells;

with multi-porting scaling both: an additional port adds wordlines, bitlines
and larger cells.  The default scaling factors reproduce the paper's
statement that one extra read port raises L1 leakage by roughly 80 %, and
yield the reported ~42 % dynamic-energy increase of the triple-ported
Base2ld1st translation/cache path.

All energies are reported in picojoules and leakage powers in milliwatts for
a 1 GHz clock (Table II); the absolute scale is arbitrary but consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CactiParameters:
    """Technology/fit parameters of the analytic model.

    The defaults model a 32 nm low-operating-power process (the paper's CACTI
    configuration: low-standby-power cells, high-performance peripherals).

    Attributes
    ----------
    dynamic_alpha_pj:
        Coefficient of the sqrt(capacity-in-bits) term of a read access.
    dynamic_beta_pj_per_bit:
        Energy per bit actually driven out of the array.
    dynamic_write_factor:
        Write energy relative to read energy for the same array.
    cam_gamma_pj_per_bit:
        Energy per searched tag bit of a CAM (fully-associative) lookup.
    leakage_nw_per_bit:
        Leakage power per bit cell in nanowatts.  The default is calibrated
        so that leakage contributes roughly half of the Base1ldst L1
        interface energy, which is the split the paper's normalized results
        imply (Sec. VI-C: the extra read port's +80 % L1 leakage outweighs
        Base2ld1st's shorter computation time, and MALEC's uWT/WT leakage
        shrinks its 33 % dynamic saving to 22 % overall); the paper's CACTI
        configuration ("low dynamic power" objective with low-standby-power
        cells) similarly trades very low dynamic energy against a comparable
        leakage component.
    dynamic_port_factor:
        Additional dynamic energy per extra port (fractional, per port);
        0.38 reproduces the ~42 % dynamic increase of the triple-ported
        Base2ld1st translation/cache path.
    leakage_port_factor:
        Additional leakage per extra port (fractional, per port);
        0.8 reproduces the "+80 % L1 leakage per extra read port" statement.
    peripheral_overhead_pj:
        Fixed per-access decoder/control overhead.
    l1_control_energy_pj:
        Energy of the L1 control logic (decode, bank/way selection, output
        alignment) charged once per bank access regardless of access mode.
        The paper's methodology explicitly includes "control logic" in the L1
        energy; charging it per access means reduced (tag-bypassed) accesses
        save the array energy but not the control overhead, which keeps the
        MALEC dynamic saving in the range the paper reports.
    """

    dynamic_alpha_pj: float = 0.012
    dynamic_beta_pj_per_bit: float = 0.018
    dynamic_write_factor: float = 1.1
    cam_gamma_pj_per_bit: float = 0.004
    leakage_nw_per_bit: float = 85.0
    dynamic_port_factor: float = 0.38
    leakage_port_factor: float = 0.80
    peripheral_overhead_pj: float = 0.6
    l1_control_energy_pj: float = 9.0

    def dynamic_port_scale(self, ports: int) -> float:
        """Dynamic-energy multiplier for an array with ``ports`` ports."""
        if ports < 1:
            raise ValueError("an array needs at least one port")
        return 1.0 + self.dynamic_port_factor * (ports - 1)

    def leakage_port_scale(self, ports: int) -> float:
        """Leakage multiplier for an array with ``ports`` ports."""
        if ports < 1:
            raise ValueError("an array needs at least one port")
        return 1.0 + self.leakage_port_factor * (ports - 1)


@dataclass(frozen=True)
class SRAMArraySpec:
    """Geometry of one SRAM/CAM array.

    Attributes
    ----------
    name:
        Identifier used in reports (e.g. ``l1.data``, ``tlb.vtag``).
    rows:
        Number of rows (sets x ways for caches, entries for TLBs).
    row_bits:
        Bits stored per row.
    output_bits:
        Bits driven out per read access (e.g. one 256-bit sub-block pair for
        an L1 data read, one 128-bit entry for a way table read).
    ports:
        Total number of ports (read + read/write), used for port scaling.
    is_cam:
        True for content-addressable (fully-associative search) arrays; reads
        then model a search across ``rows * search_bits`` match bits.
    search_bits:
        Width of the searched key for CAM arrays (e.g. a 20-bit page id).
    """

    name: str
    rows: int
    row_bits: int
    output_bits: int
    ports: int = 1
    is_cam: bool = False
    search_bits: int = 0

    @property
    def total_bits(self) -> int:
        """Total storage capacity of the array in bits."""
        return self.rows * self.row_bits


class SRAMEnergyModel:
    """Computes per-access energies and leakage for :class:`SRAMArraySpec`.

    The model is deterministic and purely analytic; it exposes the individual
    energy components so that tests can check monotonicity properties
    (bigger arrays cost more, more ports cost more, CAM searches cost more
    than RAM reads of the same geometry, and so on).  Its fit is the one
    :class:`CactiParameters` default.
    """

    parameters = CactiParameters()

    # ------------------------------------------------------------------
    def read_energy_pj(self, spec: SRAMArraySpec) -> float:
        """Dynamic energy of one read (or CAM search + read) access."""
        p = self.parameters
        energy = p.peripheral_overhead_pj
        energy += p.dynamic_alpha_pj * math.sqrt(max(spec.total_bits, 1))
        energy += p.dynamic_beta_pj_per_bit * spec.output_bits
        if spec.is_cam:
            energy += p.cam_gamma_pj_per_bit * spec.rows * max(spec.search_bits, 1)
        return energy * p.dynamic_port_scale(spec.ports)

    def write_energy_pj(self, spec: SRAMArraySpec) -> float:
        """Dynamic energy of one write access."""
        p = self.parameters
        energy = p.peripheral_overhead_pj
        energy += p.dynamic_alpha_pj * math.sqrt(max(spec.total_bits, 1))
        energy += p.dynamic_beta_pj_per_bit * spec.output_bits * p.dynamic_write_factor
        return energy * p.dynamic_port_scale(spec.ports)

    def leakage_mw(self, spec: SRAMArraySpec) -> float:
        """Static (leakage) power of the array in milliwatts."""
        p = self.parameters
        leakage_nw = p.leakage_nw_per_bit * spec.total_bits
        return leakage_nw * 1e-6 * p.leakage_port_scale(spec.ports)
