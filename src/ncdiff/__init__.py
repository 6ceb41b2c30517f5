"""Exact higher-order differential calculus over iterated frame algebras."""

from .algebra import (
    AlgebraMismatchError,
    AlgebraSpec,
    AlgElem,
    FreePoly,
    FuncElem,
    MatElem,
    func_as_diagonal,
)
from .frame import (
    FrameElem,
    SubsetIndex,
    delta_I,
    delta_iter,
    frame_delta,
    is_universal_one_form,
    lam,
    lift_to,
    module_left,
    module_right,
    rho,
    slot_embed,
    slot_in_generators,
)
from .jets import (
    ChangeOfVars2,
    Jet1,
    Jet2,
    Poly2,
    TransferMatrix1,
    chain2_1d,
    delta2_invariance_check,
    transfer_compose,
    transform_jet2,
)
from .leibniz import (
    LeibnizForm,
    LeibnizMonomial,
    embed,
    enumerate_types,
    generator_monomial_eval,
    module_mul,
    odot,
    symbolic_delta,
)
from .parser import FormExpr, LoweringError, ParseError, lower, parse
from .scalars import Scalar
from .tensor import (
    OmegaMonomial,
    TensorPoly,
    componentwise_product,
    mult_map,
    omega_product,
    omega_to_tensor,
    t_algebra_product,
    tensor_concat,
    tensor_eval,
    tensor_to_matrix,
    universal_d,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
