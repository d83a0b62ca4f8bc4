"""Exception hierarchy for hpsig.

Every error raised deliberately by this package derives from HpsigError, so
callers (in particular the command line driver) can separate structural and
algebraic failures from genuine bugs.
"""


class HpsigError(Exception):
    """Base class for all hpsig errors."""


class ShapeMismatch(HpsigError):
    """A matrix block does not have the shape required by its position."""


class NotSelfAdjoint(HpsigError):
    """An operator that must be self-adjoint is not, beyond tolerance."""


class DimensionMismatch(HpsigError):
    """Two complexes that must share graded dimensions do not."""


class NotChainMap(HpsigError):
    """A family of blocks fails to intertwine the differentials."""


class NotUnitary(HpsigError):
    """A matrix that must be unitary is not, beyond tolerance."""


class DegenerateDuality(HpsigError):
    """The duality operator fails the invertibility condition."""


class OddDimension(HpsigError):
    """A signature was requested for a complex of odd top degree."""


class DegenerateOperator(HpsigError):
    """A spectral construction met an unexpected kernel."""


class InvalidGroup(HpsigError):
    """A multiplication table does not define a group."""


class GroupMismatch(HpsigError):
    """An operation combined objects over different groups."""


class NotRepresentation(HpsigError):
    """Matrices indexed by group elements fail the homomorphism property."""


class NonEquivariantProjection(HpsigError):
    """A projection handed to ``k0_from_projections`` is not equivariant, or
    an isotypic block count is not a multiple of its character's degree."""


class SplitInconsistent(HpsigError):
    """The declared subcomplex coordinates are not preserved by the differential."""


class IdentityViolated(HpsigError):
    """A boundary-structure chain identity fails beyond tolerance."""


class FormulaMismatch(HpsigError):
    """The restricted boundary duality disagrees with its closed-form expression."""


class DegenerateBoundaryDuality(HpsigError):
    """The induced duality on the boundary complex is degenerate."""


class PreconditionViolated(HpsigError):
    """Input data violates a documented precondition of a constructor."""


class InvalidFacet(HpsigError):
    """A facet list does not describe a simplicial manifold of the stated kind."""


class IncoherentOrientation(HpsigError):
    """Facet signs cannot be (or are not) globally coherent."""


class NotSimplicial(HpsigError):
    """A vertex map does not act simplicially or regularly on the complex."""


class OrientationReversing(HpsigError):
    """A group element reverses the fundamental class."""


class EquivarianceViolated(HpsigError):
    """An operator fails to commute with the group action beyond tolerance."""


class BoundaryConditionViolated(HpsigError):
    """A triangulated bordism fails one of the boundary-structure conditions."""


class ParseError(HpsigError):
    """A file could not be parsed as the requested format."""
