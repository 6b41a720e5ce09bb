"""Collective single-photon emission from random atomic arrays in weak gravity.

A desk-scale simulation chain: gravitationally perturbed electromagnetic
eigenmodes, redshift-corrected spontaneous emission of a phased collective
excitation, and the resulting one-sided broadening of the emitted photon's
direction and frequency — with every analytic result cross-checked against an
independent numerical route (finite differences, adaptive quadrature, or
Monte Carlo).

Each public name lives in one submodule and is imported from there, for
example ``from gravdicke.spectrum import replicated_mc_spectrum``.
"""

__version__ = "0.1.0"
