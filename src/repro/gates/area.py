"""Table IV: logic overheads of the SwapCodes hardware, in NAND2 GE.

Builds every unit the paper synthesizes and reports area, flip-flop count,
pipeline stages, and the overhead ratios quoted in the table:

* Swap-ECC modifications relative to the SEC-DED decoder;
* Swap-Predict prediction circuitry relative to the unit it predicts;
* modified encoders relative to the original residue encoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.ecc.hsiao import HsiaoSecDed
from repro.gates.ecc_units import (build_decoder, build_dp_reporting,
                                   build_move_propagate)
from repro.gates.multiplier import build_add_unit, build_mad_unit
from repro.gates.netlist import Netlist
from repro.gates.residue_units import (build_add_predictor,
                                       build_mad_predictor,
                                       build_recode_encoder,
                                       build_residue_generator)


@dataclass(frozen=True)
class AreaRow:
    """One row of the Table IV reproduction."""

    section: str
    unit: str
    bits: str
    pipe_stages: int
    flip_flops: int
    area: float
    overhead_vs: Optional[str] = None
    overhead: Optional[float] = None

    def format(self) -> str:
        overhead = (f"{self.overhead * 100:+.2f}%"
                    if self.overhead is not None else "-")
        return (f"{self.unit:<22} {self.bits:>6} {self.pipe_stages:>5} "
                f"{self.flip_flops:>6} {self.area:>9.0f} {overhead:>9}")


def _stages(netlist: Netlist) -> int:
    """Pipeline stage estimate: max DFF crossings input to output.

    Approximated as the flip-flop depth along the longest DFF chain; the
    builders here register whole buses at each boundary, so the count of
    distinct boundaries equals total DFFs divided by the widest staged bus.
    For reporting we track boundaries explicitly instead.
    """
    # Builders stage whole buses; count stage boundaries by scanning for
    # maximal runs of DFF nodes.
    from repro.gates.netlist import Op
    dff = Op.DFF
    boundaries = 0
    in_run = False
    for node in netlist.nodes:
        if node.op is dff:
            if not in_run:
                boundaries += 1
                in_run = True
        else:
            in_run = False
    return boundaries


def table_iv_rows() -> List[AreaRow]:
    """Build every Table IV unit and compute its area accounting."""
    rows: List[AreaRow] = []

    def add_row(section, unit, bits, netlist, baseline=None):
        # baseline: the row of the unit the overhead is relative to
        area = netlist.area()
        rows.append(AreaRow(
            section=section, unit=unit, bits=bits,
            pipe_stages=_stages(netlist),
            flip_flops=netlist.flip_flop_count(),
            area=area,
            overhead_vs=None if baseline is None else baseline.unit,
            overhead=None if baseline is None else area / baseline.area))
        return rows[-1]

    # --- original datapath ------------------------------------------------
    add32 = add_row("original", "Add", "32", build_add_unit(32))
    mad32 = add_row("original", "MAD", "32+64", build_mad_unit(32))
    decoder = add_row("original", "SECDED Dec.", "7",
                      build_decoder(HsiaoSecDed()))
    enc3 = add_row("original", "Mod-3 Enc.", "2",
                   build_residue_generator(3, 32))
    enc127 = add_row("original", "Mod-127 Enc.", "7",
                     build_residue_generator(127, 32))

    # --- Swap-ECC modifications (relative to the SEC-DED decoder) ---------
    add_row("swap-ecc", "Move-Propagate", "7", build_move_propagate(7),
            baseline=decoder)
    add_row("swap-ecc", "SEC-(DED)-DP", "2", build_dp_reporting(32),
            baseline=decoder)

    # --- Swap-Predict prediction circuitry --------------------------------
    add_row("swap-predict", "Add", "2", build_add_predictor(3),
            baseline=add32)
    add_row("swap-predict", "Add", "7", build_add_predictor(127),
            baseline=add32)
    add_row("swap-predict", "MAD", "2", build_mad_predictor(3),
            baseline=mad32)
    add_row("swap-predict", "MAD", "7", build_mad_predictor(127),
            baseline=mad32)
    add_row("swap-predict", "Mod-3 Enc.", "2", build_recode_encoder(3),
            baseline=enc3)
    add_row("swap-predict", "Mod-127 Enc.", "7", build_recode_encoder(127),
            baseline=enc127)
    return rows


def format_table_iv(rows: Optional[List[AreaRow]] = None) -> str:
    """Render the Table IV reproduction as aligned text."""
    if rows is None:
        rows = table_iv_rows()
    lines = [
        f"{'Unit':<22} {'Bits':>6} {'Pipe':>5} {'FFs':>6} "
        f"{'Area(GE)':>9} {'Overhead':>9}",
    ]
    section = None
    titles = {
        "original": "Original Data Path",
        "swap-ecc": "Swap-ECC Modifications (vs SEC-DED Decoder)",
        "swap-predict": "Swap-Predict Residue Code Prediction Circuitry",
    }
    for row in rows:
        if row.section != section:
            section = row.section
            lines.append(f"--- {titles[section]} ---")
        lines.append(row.format())
    return "\n".join(lines)
