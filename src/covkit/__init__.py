"""covkit: covariant positive kernels, completely positive maps, quantum
observables and instruments over finite symmetry groups, with minimal
covariant dilations and extremality certificates.

The paper constructions that the command line does not run live in
:mod:`covkit.constructions`; their names resolve here on first access, so
``import covkit.cli`` never compiles that module."""

from .numlin import (
    DEFAULT_TOL,
    DimensionError,
    NotPositiveError,
    Tolerances,
    constrained_commutant,
    lstsq_define,
    null_space,
    psd_check,
    psd_factor,
)
from .fingroup import (
    FiniteGroup,
    GroupAction,
    IrrepDecomposition,
    MultiplierRep,
    SubgroupData,
    TwoCocycle,
    heisenberg_rep,
    irrep_decompose,
    validate_cocycle,
    validate_rep,
)
from .cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from .kernels import (
    Check,
    Checks,
    CovariantKernelSpec,
    DilationResidualError,
    ExtremalityCertificate,
    KolmogorovDecomposition,
    kernel_extremal,
    kolmogorov_decompose,
    validate_kernel,
)
from .cpmaps import (
    BlockAction,
    CPMapSpec,
    CPSymmetry,
    KSGNSDilation,
    cp_extremal,
    cp_validate,
    kraus_extract,
    ksgns,
)
from .instruments import (
    CovariantInstrumentData,
    CovariantObservableData,
    InstrumentSpec,
    ObservableSpec,
    Symmetry,
    B_from_instrument,
    instrument_extremal,
    instrument_from_B,
    lambda_from_observable,
    naimark,
    observable_extremal,
    observable_from_lambda,
    phase_space,
    sample_stream,
    sq_constant,
    validate_instrument,
    validate_observable,
)

__version__ = "0.1.0"

_CONSTRUCTIONS = frozenset(
    {
        "alg_positive",
        "central_extension",
        "complete_irreps",
        "cosets",
        "decomposable_extract",
        "equivalence_unitary",
        "form_eval",
        "form_positive",
        "fourier",
        "marginal_channel",
        "marginal_observable",
        "marginals",
        "plancherel_inverse",
        "sample",
        "sq_structure",
        "subminimal",
        "wigner_rotation",
    }
)


# ``from covkit import *`` binds every public name, the constructions too
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _CONSTRUCTIONS)


def __getattr__(name):
    if name in _CONSTRUCTIONS:
        from . import constructions

        return getattr(constructions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _CONSTRUCTIONS)
