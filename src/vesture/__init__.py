"""Soliton dressing for axially symmetric harmonic maps into the noncompact
Grassmannian targets SU(p,q)/S(U(p)xU(q)).

The pipeline turns a seed solution plus prescribed spectral poles and
constant vectors into new exact solutions by solving a small per-point
linear system; the package also ships the closed-form Kerr / Kerr-Newman
references and a finite-difference verification layer.
"""
from .algebra import ComplexMatrix, Signature, gamma, group_residual, sigma, symspace_residual, tau
from .dressing import (
    DressedGrid,
    SolitonConfig,
    dominance_check,
    dress,
    dressed_seed,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    SeedError,
    SingularPointError,
    VestureError,
)
from .seeds import Seed, constant_seed, identity_seed
from .spectral import DomainPoint, ab, deck, omega_forms, pole_pairs, varpi
from .targets import (
    BLParams,
    ErnstValue11,
    ErnstValue21,
    bl_chart,
    cartan_embed_su21,
    cayley2,
    commutation_check,
    ernst_g11,
    ernst_g21,
    kerr_config,
    kerr_oracle,
    kerr_params,
    kn_config,
    kn_oracle,
    su21_basis,
)
from .verification import FieldGrid, hodge_residual, lambda_flow_residual

__version__ = "0.1.0"
