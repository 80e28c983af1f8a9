"""Phase-field models of compressible fluid mixtures.

Library + CLI for the hierarchy of compressible, quasi-incompressible and
incompressible binary phase-field hydrodynamic models: bulk free energies,
linear stability (dispersion pencils, growth rates, asymptotics), and a 1D
periodic transient solver that cross-checks growth rates, mass conservation
and energy dissipation.
"""

__version__ = "0.1.0"
