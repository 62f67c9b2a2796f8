"""Deliberately broken schemes proving the certifier catches regressions.

A certifier that only ever says "certified" is indistinguishable from one
that checks nothing.  These factories build schemes with known, precisely
located defects — a parity-check column zeroed out, two columns
duplicated — by bypassing :class:`~repro.ecc.linear.LinearCode`'s
constructor validation (the same ``__new__`` route
:meth:`~repro.ecc.hsiao.HsiaoSecDed.low_alias` uses for its custom
columns).  The acceptance tests certify each tampered scheme and assert
a FAILED certificate carrying a weight-minimal counterexample naming the
sabotaged bit.

Test-only: nothing here is registered in the certification registry.
"""

from __future__ import annotations

from repro.ecc.hsiao import HsiaoSecDed
from repro.ecc.linear import odd_weight_columns
from repro.ecc.swap import SecDedDpSwap
from repro.errors import CertificationError


def _hsiao_with_columns(columns, name: str) -> HsiaoSecDed:
    """A (39,32) Hsiao instance over raw columns, skipping validation.

    ``LinearCode.__init__`` rejects zero, duplicate, and unit-weight
    columns — exactly the defects we need to plant — so the instance is
    assembled around the validator, mirroring how a buggy column-search
    or table-cache regression would corrupt a real code.
    """
    code = HsiaoSecDed.__new__(HsiaoSecDed)
    code.name = name
    code.data_bits = len(columns)
    code.check_bits = 7
    code.data_columns = list(columns)
    code._syndrome_map = {
        column: index for index, column in enumerate(code.data_columns)
        if column != 0
    }
    for bit in range(code.check_bits):
        code._syndrome_map[1 << bit] = code.data_bits + bit
    return code


def tampered_secded_dp(kind: str = "zero-column",
                       position: int = 11) -> SecDedDpSwap:
    """A SEC-DED-DP scheme whose code has one sabotaged parity column.

    ``kind`` selects the defect at data bit ``position``:

    * ``"zero-column"`` — the column is zeroed: a strike on that data bit
      produces a zero syndrome, so single pipeline errors there are
      *invisible* and escape as silent data corruption (violating
      ``detects-all-single-pipeline`` at weight 1 — caught by the fast
      exhaustive sweep).
    * ``"duplicate-column"`` — the column duplicates its neighbour's:
      strikes on the two bits produce identical syndromes, so the decoder
      repairs the wrong bit half the time (an active miscorrection under
      storage strikes, violating ``corrects-all-single-storage``).
    """
    base = odd_weight_columns(7, 32)
    columns = list(base)
    if not 0 <= position < len(columns):
        raise CertificationError(
            f"tamper position {position} outside the 32-bit data segment")
    if kind == "zero-column":
        columns[position] = 0
    elif kind == "duplicate-column":
        neighbour = (position + 1) % len(columns)
        columns[position] = columns[neighbour]
    else:
        raise CertificationError(
            f"unknown tamper kind {kind!r}; expected 'zero-column' or "
            f"'duplicate-column'")
    code = _hsiao_with_columns(columns, f"secded-39-32-tampered-{kind}")
    scheme = SecDedDpSwap(code)
    scheme.name = f"secded-dp-tampered-{kind}"
    return scheme
