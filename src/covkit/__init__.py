"""covkit: covariant positive kernels, completely positive maps, quantum
observables and instruments over finite symmetry groups, with minimal
covariant dilations and extremality certificates."""

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
    central_extension,
    complete_irreps,
    cosets,
    fourier,
    heisenberg_rep,
    irrep_decompose,
    plancherel_inverse,
    validate_cocycle,
    validate_rep,
)
from .cstar import (
    FiniteCStarAlgebra,
    ModuleSpace,
    TensorSplit,
    alg_positive,
    form_eval,
    form_positive,
)
from .kernels import (
    Check,
    Checks,
    CovariantKernelSpec,
    DilationResidualError,
    ExtremalityCertificate,
    KolmogorovDecomposition,
    equivalence_unitary,
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
    marginals,
    subminimal,
)
from .instruments import (
    CovariantInstrumentData,
    CovariantObservableData,
    InstrumentSpec,
    ObservableSpec,
    Symmetry,
    B_from_instrument,
    decomposable_extract,
    instrument_extremal,
    instrument_from_B,
    lambda_from_observable,
    marginal_channel,
    marginal_observable,
    naimark,
    observable_extremal,
    observable_from_lambda,
    phase_space,
    sample,
    sample_stream,
    sq_constant,
    sq_structure,
    validate_instrument,
    validate_observable,
    wigner_rotation,
)

__version__ = "0.1.0"
