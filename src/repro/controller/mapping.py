"""Physical-address to DRAM-coordinate mapping.

This module implements the address hashing side of ERUCA (Fig. 9 of the
paper):

* a Skylake-like base mapping that places frequently-changing physical
  address LSBs on the parallel resources (channel, bank group, bank) and
  XOR-hashes bank/bank-group bits with low row bits (permutation-based
  interleaving), keeping row bits in the MSBs;
* the *plane-ID* extraction for sub-banked organisations -- row LSBs when
  EWLR is used alone (mapping (2) in Fig. 9), row MSBs when RAP is on
  (mapping (1));
* the *EWLR offset* field (the LWL_SEL bits), placed adjacent to the plane
  ID so that a plane conflict is maximally likely to be an EWLR hit;
* **RAP** itself: the per-sub-bank plane-ID permutation, implemented as a
  bit-wise inversion of the plane bits on the right sub-bank.

The mapping is exactly invertible (``encode(decode(a)) == a``), which the
property tests rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.controller.transaction import DramCoordinates


class PlanePlacement(enum.Enum):
    """Which row-address bits select the plane latch set."""

    MSB = "msb"
    LSB = "lsb"


def _bits(value: int, low: int, count: int) -> int:
    """Extract ``count`` bits of ``value`` starting at bit ``low``."""
    return (value >> low) & ((1 << count) - 1)


@dataclass(frozen=True)
class RowLayout:
    """How the DRAM row address subdivides into plane / EWLR / MWL fields.

    ``plane_count`` is the number of shared row-address latch sets per bank
    (paper Fig. 3).  ``ewlr_bits`` is the width of the LWL_SEL field that
    EWLR duplicates per sub-bank (3 in DDR4: 8 local wordlines per MWL).
    ``ewlr_bits = 0`` models a device without EWLR latches.
    """

    row_bits: int = 16
    plane_count: int = 4
    plane_placement: PlanePlacement = PlanePlacement.MSB
    ewlr_bits: int = 3

    def __post_init__(self) -> None:
        if self.plane_count < 1 or self.plane_count & (self.plane_count - 1):
            raise ValueError("plane_count must be a power of two >= 1")
        if self.plane_bits + self.ewlr_bits > self.row_bits:
            raise ValueError("plane + EWLR fields exceed the row address")
        # Field extraction constants, cached once: plane_id / mwl_tag
        # run on every activation classification and every enqueue, and
        # re-deriving shifts and masks through property/helper calls
        # dominated their cost.
        object.__setattr__(self, "_pshift", self._plane_shift())
        object.__setattr__(self, "_pmask", self.plane_count - 1)
        object.__setattr__(self, "_eshift", self._ewlr_shift())
        object.__setattr__(
            self, "_mwl_mask",
            ~(((1 << self.ewlr_bits) - 1) << self._ewlr_shift()))

    @property
    def plane_bits(self) -> int:
        return (self.plane_count - 1).bit_length()

    @property
    def rows(self) -> int:
        return 1 << self.row_bits

    def _plane_shift(self) -> int:
        if self.plane_placement is PlanePlacement.MSB:
            return self.row_bits - self.plane_bits
        return 0

    def _ewlr_shift(self) -> int:
        """The EWLR offset sits adjacent to the plane field (Fig. 9)."""
        if self.plane_placement is PlanePlacement.MSB:
            return self.row_bits - self.plane_bits - self.ewlr_bits
        return self.plane_bits

    def plane_id(self, row: int, subbank: int, rap: bool) -> int:
        """Plane latch set used by ``row`` on ``subbank``.

        With RAP, the right sub-bank (subbank 1) inverts the plane bits so
        that identical row addresses on the two sub-banks use different
        latch sets.
        """
        plane = (row >> self._pshift) & self._pmask
        if rap and subbank == 1:
            plane ^= self._pmask
        return plane

    def mwl_tag(self, row: int) -> int:
        """Row address with the EWLR-offset (LWL_SEL) field masked out.

        Two rows with equal plane ID and equal MWL tag differ only in their
        LWL_SEL bits, so both sub-banks can hold them concurrently when
        EWLR latches are present -- an *EWLR hit*.
        """
        return row & self._mwl_mask

    def ewlr_offset(self, row: int) -> int:
        """The LWL_SEL field value of ``row``."""
        return _bits(row, self._ewlr_shift(), self.ewlr_bits)


@dataclass(frozen=True)
class MappingConfig:
    """Geometry and hashing options of the physical address mapping.

    The bit layout, LSB to MSB, is::

        offset | col_lo | channel | bank_group | col_hi | bank
               | [subbank] | row

    which mirrors the Intel Skylake-style mapping the paper uses: column
    LSBs below the channel bit for fine interleave, bank-group and bank
    bits in the low-middle, and the row in the MSBs.  When ``xor_hash`` is
    on, the bank-group and bank fields are XORed with the row LSBs
    (permutation-based page interleaving [Zhang et al.]).
    """

    offset_bits: int = 6
    channel_bits: int = 1
    rank_bits: int = 0
    bank_group_bits: int = 2
    bank_bits: int = 2
    subbank_bits: int = 0
    col_lo_bits: int = 3
    col_hi_bits: int = 4
    row_bits: int = 16
    xor_hash: bool = True
    #: Fig. 9 places the sub-bank ID among the frequently-changing low
    #: bits (just above the low bank-group field) so consecutive lines
    #: interleave the two sub-banks; False parks it below the row bits
    #: instead (the ablation setting ``EruConfig.subbank_low``).
    subbank_low: bool = True

    @property
    def column_bits(self) -> int:
        return self.col_lo_bits + self.col_hi_bits

    @property
    def channels(self) -> int:
        return 1 << self.channel_bits

    @property
    def ranks(self) -> int:
        return 1 << self.rank_bits

    @property
    def bank_groups(self) -> int:
        return 1 << self.bank_group_bits

    @property
    def banks_per_group(self) -> int:
        return 1 << self.bank_bits

    @property
    def banks(self) -> int:
        return self.bank_groups * self.banks_per_group

    @property
    def subbanks(self) -> int:
        return 1 << self.subbank_bits

    @property
    def total_bits(self) -> int:
        return (self.offset_bits + self.channel_bits + self.rank_bits
                + self.bank_group_bits + self.bank_bits + self.subbank_bits
                + self.column_bits + self.row_bits)

    @property
    def capacity_bytes(self) -> int:
        return 1 << self.total_bits


class AddressMapping:
    """Decode physical addresses into DRAM coordinates and back."""

    def __init__(self, config: MappingConfig,
                 row_layout: RowLayout = None) -> None:
        if row_layout is None:
            row_layout = RowLayout(row_bits=config.row_bits,
                                   plane_count=1, ewlr_bits=0)
        if row_layout.row_bits != config.row_bits:
            raise ValueError("row layout and mapping disagree on row bits")
        self.config = config
        self.row_layout = row_layout
        # Precompute field shifts, LSB first.
        shift = config.offset_bits
        self._col_lo_shift = shift
        shift += config.col_lo_bits
        self._channel_shift = shift
        shift += config.channel_bits
        self._bg_shift = shift
        shift += config.bank_group_bits
        if config.subbank_low:
            self._subbank_shift = shift
            shift += config.subbank_bits
        self._col_hi_shift = shift
        shift += config.col_hi_bits
        self._bank_shift = shift
        shift += config.bank_bits
        self._rank_shift = shift
        shift += config.rank_bits
        if not config.subbank_low:
            self._subbank_shift = shift
            shift += config.subbank_bits
        self._row_shift = shift
        # Field masks, so decode() extracts each field with one shift
        # and one mask (it runs once per memory request).
        self._total_bits = config.total_bits
        self._col_lo_bits = config.col_lo_bits
        self._col_lo_mask = (1 << config.col_lo_bits) - 1
        self._col_hi_mask = (1 << config.col_hi_bits) - 1
        self._channel_mask = (1 << config.channel_bits) - 1
        self._rank_mask = (1 << config.rank_bits) - 1
        self._bg_bits = config.bank_group_bits
        self._bg_mask = (1 << config.bank_group_bits) - 1
        self._bank_mask = (1 << config.bank_bits) - 1
        self._subbank_mask = (1 << config.subbank_bits) - 1
        self._row_mask = (1 << config.row_bits) - 1
        self._xor_hash = config.xor_hash

    def _hash_fields(self, row: int) -> Tuple[int, int]:
        """XOR masks applied to (bank_group, bank) from the row LSBs."""
        cfg = self.config
        if not cfg.xor_hash:
            return 0, 0
        bg_mask = _bits(row, 0, cfg.bank_group_bits)
        bank_mask = _bits(row, cfg.bank_group_bits, cfg.bank_bits)
        return bg_mask, bank_mask

    def decode(self, address: int) -> DramCoordinates:
        if address < 0 or address >> self._total_bits:
            raise ValueError(
                f"address {address:#x} outside {self._total_bits}-bit space")
        row = (address >> self._row_shift) & self._row_mask
        bank_group = (address >> self._bg_shift) & self._bg_mask
        bank = (address >> self._bank_shift) & self._bank_mask
        if self._xor_hash:
            # _hash_fields, inlined.
            bank_group ^= row & self._bg_mask
            bank ^= (row >> self._bg_bits) & self._bank_mask
        return DramCoordinates(
            (address >> self._channel_shift) & self._channel_mask,
            (address >> self._rank_shift) & self._rank_mask,
            bank_group,
            bank,
            (address >> self._subbank_shift) & self._subbank_mask,
            row,
            (((address >> self._col_hi_shift) & self._col_hi_mask)
             << self._col_lo_bits)
            | ((address >> self._col_lo_shift) & self._col_lo_mask),
        )

    def encode(self, coords: DramCoordinates) -> int:
        """Inverse of :meth:`decode` (the XOR hash is an involution)."""
        cfg = self.config
        bg_mask, bank_mask = self._hash_fields(coords.row)
        col_lo = _bits(coords.column, 0, cfg.col_lo_bits)
        col_hi = _bits(coords.column, cfg.col_lo_bits, cfg.col_hi_bits)
        address = 0
        address |= col_lo << self._col_lo_shift
        address |= coords.channel << self._channel_shift
        address |= (coords.bank_group ^ bg_mask) << self._bg_shift
        address |= col_hi << self._col_hi_shift
        address |= (coords.bank ^ bank_mask) << self._bank_shift
        address |= coords.rank << self._rank_shift
        address |= coords.subbank << self._subbank_shift
        address |= coords.row << self._row_shift
        return address

    # -- ERUCA address fields ------------------------------------------

    def plane_id(self, coords: DramCoordinates, rap: bool) -> int:
        return self.row_layout.plane_id(coords.row, coords.subbank, rap)

    def mwl_tag(self, coords: DramCoordinates) -> int:
        return self.row_layout.mwl_tag(coords.row)


def skylake_mapping(subbanked: bool = False,
                    row_layout: RowLayout = None,
                    bank_groups: int = 4,
                    banks_per_group: int = 4,
                    channels: int = 2,
                    row_bits: int = None,
                    subbank_low: bool = True) -> AddressMapping:
    """The paper's baseline mapping (Tab. III: "Intel Skylake address
    mapping"), optionally carving one bit into a sub-bank ID.

    All organisations use 4 KiB rank-level rows (the x4 Combo half-page):
    the baseline's half-bank select is simply its row MSB, and a
    sub-banked organisation turns that bit into the sub-bank ID, keeping
    total capacity constant.  ``row_bits`` defaults accordingly: 17 for
    flat organisations, 16 for sub-banked ones (``row_layout`` wins if
    given).
    """
    bg_bits = (bank_groups - 1).bit_length()
    bank_bits = (banks_per_group - 1).bit_length()
    ch_bits = (channels - 1).bit_length()
    if row_layout is not None:
        row_bits = row_layout.row_bits
    elif row_bits is None:
        row_bits = 16 if subbanked else 17
    config = MappingConfig(
        channel_bits=ch_bits,
        bank_group_bits=bg_bits,
        bank_bits=bank_bits,
        subbank_bits=1 if subbanked else 0,
        col_hi_bits=3,
        row_bits=row_bits,
        subbank_low=subbank_low,
    )
    return AddressMapping(config, row_layout)
