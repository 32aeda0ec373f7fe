"""One DRAM channel: banks plus shared resources, with legality queries.

The :class:`Channel` is the device-side API the memory controller talks to.
For every prospective command it answers "what is the earliest time this
command may legally issue?", and applies the state change once the
controller commits to an issue time.  All organisation differences (bank
groups vs. ideal vs. DDB, full banks vs. sub-banks vs. MASA groups) live in
the :class:`~repro.dram.bank.Bank` geometry and the
:class:`~repro.dram.resources.BusPolicy` -- the controller code is
organisation-agnostic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.mapping import RowLayout
from repro.controller.transaction import DramCoordinates
from repro.core.subbank import ActivationVerdict
from repro.dram.bank import Bank, BankGeometry, SlotKey
from repro.dram.commands import PrechargeCause
from repro.dram.power import EnergyMeter, EnergyParams
from repro.dram.resources import (FLOOR_BANK, FLOOR_BUS, FLOOR_REFRESH,
                                  BusPolicy, ChannelResources)
from repro.dram.timing import TimingParams

#: Bound once: an Enum member load costs several global loads.
_EWLR_HIT = ActivationVerdict.EWLR_HIT


class Channel:
    """A single DRAM channel (one rank) of some organisation."""

    def __init__(self, timing: TimingParams, policy: BusPolicy,
                 bank_groups: int, banks_per_group: int,
                 bank_geometry: BankGeometry,
                 row_layout: Optional[RowLayout] = None,
                 ewlr: bool = False, rap: bool = False,
                 energy_params: Optional[EnergyParams] = None,
                 record_commands: bool = False) -> None:
        self.timing = timing
        self.policy = policy
        self.bank_groups = bank_groups
        self.banks_per_group = banks_per_group
        n_banks = bank_groups * banks_per_group
        self.banks: List[Bank] = [
            Bank(bank_geometry, timing, row_layout, ewlr, rap)
            for _ in range(n_banks)
        ]
        self.resources = ChannelResources(
            timing, policy, bank_groups, n_banks)
        self.energy = EnergyMeter(energy_params or EnergyParams())
        #: Precharge counts by cause, for Fig. 13b.
        self.precharge_causes = {cause: 0 for cause in PrechargeCause}
        #: Registry of open row slots, (bank index, slot key), kept in
        #: sync by issue_act/issue_precharge for the page policy's scan.
        #: A dict (insertion-ordered, values unused) so the scan order is
        #: reproducible -- set iteration order would depend on hashes.
        self.open_slots: dict = {}
        #: Optional command log for post-hoc validation
        #: (:mod:`repro.dram.validation`).
        self.command_log: Optional[list] = [] if record_commands else None
        #: Refresh scope -> the row slots it covers, as (bank index,
        #: slot key, slot) in bank then slot order.  A scope is the
        #: whole rank ``(-1, -1)``, one bank ``(b, -1)`` or one sub-bank
        #: ``(b, s)``.  Empty with refresh off.
        self.refresh_scopes: Dict[Tuple[int, int], list] = {}
        if timing.refresh_enabled:
            for bi, bank in enumerate(self.banks):
                for key, slot in bank.slots.items():
                    for scope in ((-1, -1), (bi, -1), (bi, key[0])):
                        self.refresh_scopes.setdefault(scope, []).append(
                            (bi, key, slot))

    # -- addressing ------------------------------------------------------

    def bank_index(self, coords: DramCoordinates) -> int:
        """Flat bank index of (bank group, bank) within the channel."""
        return coords.bank_group * self.banks_per_group + coords.bank

    def bank(self, coords: DramCoordinates) -> Bank:
        """The :class:`~repro.dram.bank.Bank` serving these coords."""
        return self.banks[self.bank_index(coords)]

    # -- classification ---------------------------------------------------

    def classify(self, coords: DramCoordinates
                 ) -> Tuple[ActivationVerdict, Optional[SlotKey]]:
        """Fig. 5 activation verdict (and victim slot) for these coords."""
        return self.bank(coords).classify(coords.subbank, coords.row)

    # -- earliest legal issue times ---------------------------------------

    @staticmethod
    def _slot_floor(floor: Tuple[str, int],
                    slot_floor: int) -> Tuple[str, int]:
        """Fold the slot FSM floor into a channel-side ``(tag, time)``;
        it beats only the bus on a tie."""
        tag, best = floor
        if slot_floor > best or (slot_floor == best and tag == FLOOR_BUS):
            return FLOOR_BANK, slot_floor
        return tag, best

    def act_floor(self, coords: DramCoordinates) -> Tuple[str, int]:
        """Earliest legal ACT as ``(tag, time)``: command bus, ``tRRD``,
        ``tFAW`` and the slot FSM, which waits out any refresh blackout.
        A blackout ending at the floor wins every tie -- the slot was
        busy *because* of the refresh.  Reads pre-issue state: the
        accounting asks before the command commits."""
        bank_index = coords.bank_group * self.banks_per_group + coords.bank
        slot = self.banks[bank_index].slot(coords.subbank, coords.row)
        tag, best = self._slot_floor(self.resources.act_floor(),
                                     slot.act_allowed)
        if slot.refresh_end == best:
            tag = FLOOR_REFRESH
        return tag, best

    def column_floor(self, coords: DramCoordinates,
                     is_write: bool) -> Tuple[str, int]:
        """Earliest legal RD/WR as ``(tag, time)``: shared CAS/bus
        windows, ``tRCD`` and the slot FSM.  A refresh blackout never
        binds: the row was opened by an ACT at or after its end, so
        ``tRCD`` lies past it."""
        bank_index = coords.bank_group * self.banks_per_group + coords.bank
        return self._slot_floor(
            self.resources.column_floor(is_write, coords.bank_group,
                                        bank_index),
            self.banks[bank_index].earliest_column(
                coords.subbank, coords.row))

    def earliest_act(self, coords: DramCoordinates) -> int:
        """The time of :meth:`act_floor`."""
        return self.act_floor(coords)[1]

    def earliest_column(self, coords: DramCoordinates,
                        is_write: bool) -> int:
        """The time of :meth:`column_floor`."""
        return self.column_floor(coords, is_write)[1]

    def earliest_precharge(self, bank_index: int, slot: SlotKey) -> int:
        """Earliest legal PRE of an open slot: command bus + the slot's
        ``tRAS``/``tWR`` horizons (``tRAS`` from an ACT that waited out
        any refresh blackout)."""
        return max(self.resources.earliest_precharge(),
                   self.banks[bank_index].earliest_precharge(slot))

    # -- refresh ----------------------------------------------------------

    def refresh_scope_open(self, bank_index: int = -1,
                           subbank: int = -1) -> list:
        """Open slots inside a refresh scope, as (bank index, slot key).

        ``bank_index < 0`` scopes the whole rank (all-bank REF);
        ``subbank >= 0`` narrows a bank to one sub-bank (SARP).  A
        refresh may only issue once this list is empty.
        """
        return [(bi, key) for bi, key, slot
                in self.refresh_scopes[(bank_index, subbank)]
                if slot.active_row is not None]

    def refresh_duration(self, bank_index: int = -1,
                         subbank: int = -1) -> int:
        """Blackout length of a refresh to this scope: ``tRFC`` all-bank,
        ``tRFCpb`` per-bank, and half of ``tRFCpb`` for one sub-bank
        (half the rows are walked)."""
        t = self.timing
        if bank_index < 0:
            return t.tRFC
        if subbank < 0:
            return t.trfc_pb
        return (t.trfc_pb + 1) // 2

    def earliest_refresh(self, bank_index: int = -1,
                         subbank: int = -1) -> int:
        """Earliest legal REF/REFpb to a fully precharged scope: command
        bus, and every slot in scope ready to activate (``tRP``/``tRC``
        and any earlier blackout over it)."""
        best = self.resources.cmd_bus_free
        for _, _, slot in self.refresh_scopes[(bank_index, subbank)]:
            if slot.act_allowed > best:
                best = slot.act_allowed
        return best

    # -- committed issues --------------------------------------------------

    def issue_act(self, coords: DramCoordinates, time: int) -> bool:
        """Issue an ACT; returns whether it was an EWLR hit."""
        bank_index = coords.bank_group * self.banks_per_group + coords.bank
        bank = self.banks[bank_index]
        ewlr_hit = (bank.do_activate(coords.subbank, coords.row, time)
                    is _EWLR_HIT)
        self.resources.record_act(time)
        self.energy.record_act(ewlr_hit)
        slot = bank.slot_key(coords.subbank, coords.row)
        self.open_slots[(bank_index, slot)] = None
        if self.command_log is not None:
            from repro.dram.validation import CommandRecord
            self.command_log.append(CommandRecord(
                "ACT", time, bank_index, coords.bank_group, slot,
                coords.row))
        return ewlr_hit

    def issue_column(self, coords: DramCoordinates, time: int,
                     is_write: bool) -> int:
        """Issue a RD/WR; returns the data-burst completion time."""
        bank_index = coords.bank_group * self.banks_per_group + coords.bank
        bank = self.banks[bank_index]
        bank.do_column(coords.subbank, coords.row, time, is_write)
        data_end = self.resources.record_column(
            time, is_write, coords.bank_group, bank_index)
        if is_write:
            self.energy.record_write()
        else:
            self.energy.record_read()
        if self.command_log is not None:
            from repro.dram.validation import CommandRecord
            self.command_log.append(CommandRecord(
                "WR" if is_write else "RD", time, bank_index,
                coords.bank_group, bank.slot_key(coords.subbank,
                                                 coords.row)))
        return data_end

    def issue_precharge(self, bank_index: int, slot: SlotKey, time: int,
                        cause: PrechargeCause) -> bool:
        """Issue a PRE; returns whether it was a partial precharge."""
        bank = self.banks[bank_index]
        partial = bank.partial_precharge_possible(slot)
        bank.do_precharge(slot, time)
        self.resources.record_command(time)
        self.energy.record_precharge(partial)
        self.precharge_causes[cause] += 1
        self.open_slots.pop((bank_index, slot), None)
        if self.command_log is not None:
            from repro.dram.validation import CommandRecord
            self.command_log.append(CommandRecord(
                "PRE_PARTIAL" if partial else "PRE", time, bank_index,
                bank_index // self.banks_per_group, slot))
        return partial

    def issue_refresh(self, time: int, bank_index: int = -1,
                      subbank: int = -1) -> int:
        """Issue a REF/REFpb; returns the blackout end time.

        Every slot in scope must already be precharged (the policies
        close them first, counting those precharges under
        :attr:`~repro.dram.commands.PrechargeCause.REFRESH`).  The
        blackout is written once, into the slot FSM: no slot in scope
        may activate before its end, so every later ACT, column and
        precharge floor of the scope lies at or past it.
        """
        still_open = self.refresh_scope_open(bank_index, subbank)
        if still_open:
            raise ValueError(
                f"refresh at {time} with open rows in scope: {still_open}")
        end = time + self.refresh_duration(bank_index, subbank)
        for _, _, slot in self.refresh_scopes[(bank_index, subbank)]:
            if end > slot.act_allowed:
                slot.act_allowed = end
            slot.refresh_end = end
        self.resources.record_command(time)
        if self.command_log is not None:
            from repro.dram.validation import CommandRecord
            self.command_log.append(CommandRecord(
                "REF" if bank_index < 0 else "REFPB", time, bank_index,
                -1 if bank_index < 0
                else bank_index // self.banks_per_group,
                (subbank if subbank >= 0 else -1, -1)))
        return end

    # -- introspection -----------------------------------------------------

    def open_row(self, coords: DramCoordinates) -> Optional[int]:
        """The row open in the slot these coords map to, if any."""
        bank = self.bank(coords)
        return bank.slot(coords.subbank, coords.row).active_row
