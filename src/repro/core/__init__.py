"""The paper's mechanisms as pure, untimed decision logic.

Here live the mechanism-selection dataclass
(:mod:`repro.core.mechanisms`), the Fig. 11 analytic die-area model
(:mod:`repro.core.area`), and the VSB sub-bank plane-latch activation
rules (:mod:`repro.core.subbank`, Section IV / Fig. 5) as an executable
specification.  The address rules those verdicts read -- RAP's plane
permutation (Section IV-D) and EWLR's shared-main-wordline tag
(Section IV-C) -- have one implementation,
:class:`repro.controller.mapping.RowLayout`.  The timed bank FSM
(:meth:`repro.dram.bank.Bank.classify`) implements the verdicts itself,
and ``tests/core/test_differential.py`` holds it to
:class:`~repro.core.subbank.SubbankPairState`.
"""
