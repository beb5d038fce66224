"""Numerical laboratory for an extended-electron model built on Cl(3,0).

Subsystems: a dense geometric-algebra kernel (`ga3`), plane-wave electron
profiles and dynamics (`electron_model`), spin precession in a ramping
field (`spin_dynamics`), analyzer-correlation statistics (`epr_model`),
a microscope uncertainty budget (`uncertainty`), and a batch CLI (`cli`).
"""

__version__ = "0.2.0"
