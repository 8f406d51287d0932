"""Soliton dressing for axially symmetric harmonic maps into the noncompact
Grassmannian targets SU(p,q)/S(U(p)xU(q)).

The pipeline turns a seed solution plus prescribed spectral poles and
constant vectors into new exact solutions by solving a small per-point
linear system; the package also ships the closed-form Kerr / Kerr-Newman
references and a finite-difference verification layer.
"""

__version__ = "0.1.0"
