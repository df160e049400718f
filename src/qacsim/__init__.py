"""Desk-scale simulation and analysis of penalty-protected repetition-encoded
quantum annealing on Chimera-topology graphs.

Subpackages cover the hardware/logical topology, Ising problem encodings and
annealing schedules, closed- and open-system annealing dynamics, majority-vote
decoding and error statistics, success-curve fits, and closed-form
perturbative gap analytics.
"""

__version__ = "0.1.0"
