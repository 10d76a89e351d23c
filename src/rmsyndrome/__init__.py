"""Syndrome decoding of high-rate Reed-Muller codes from random errors.

The paper's two independent decoders recover error locations from the
degree <= 2r+1 syndrome of a corrupted word: a finite-field
tensor-decomposition method (jennrich rand/derand) and a polynomial-space
root finder (polyspace rand/det).  The default decoder (jennrich axis)
reads the error coordinates off the eigenvalues of base-field
multiplication matrices of the same syndrome tensor; the paper decoders
stay as cross-checks.  Supporting layers provide extension-field
arithmetic, root extraction, dense linear algebra over finite fields, and
reduced multivariate polynomial spaces.
"""

from .code import (CodeParams, DecodingFailure, DegreeError, ErrorSet,
                   LengthMismatchError, MalformedInputError, ReceivedWord,
                   SamplingError, Syndrome, corrupt, encode, has_property_ur,
                   int_to_point, point_to_int, sample_error_set,
                   solve_error_magnitudes, syndrome_from_errors,
                   syndrome_from_weighted_errors, syndrome_of_word,
                   syndrome_streaming, tensor_power, tensor_power_matrix,
                   vanishing_space)
from .fields import (ExtField, OrderFactorizationError, PrimeField, UniPoly,
                     berlekamp_roots, extension_field, find_irreducible,
                     find_primitive_element, is_irreducible, prime_field)
from .jennrich import (axis_decompose, decompose,
                       derandomized_flattening_vectors, tensor_from_syndrome)
from .linalg import (FFMatrix, SingularMatrixError, SpectrumNotSimpleError,
                     char_poly, eigen_decompose, full_rank_submatrix, inverse,
                     nullspace_basis, rank, rref, solve)
from .polynomials import (MonomialIndex, MultilinearPoly, PolySpace,
                          monomial_index, reduce_terms)
from .polyspace import (IsolationBoundWarning, PartialRecoveryWarning,
                        StructuralInconsistencyError, det_find_roots,
                        find_roots, locate_and_correct,
                        run_decoder, space_roots, vv_sample)

__version__ = "0.1.0"
