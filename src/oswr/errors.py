"""Exception types shared across the package."""


class OswrError(Exception):
    """Base class for all package-specific errors."""


class NonElliptic(OswrError):
    """Diffusion matrix is not uniformly positive definite on the sampled times."""


class AsymmetricCoefficients(OswrError):
    """Diffusion matrix entries violate a(i,j) == a(j,i)."""


class MissingDerivative(OswrError):
    """A manufactured solution lacks a derivative callable the operator needs."""


class BadResolution(OswrError):
    """Grid node/step counts below the supported minimum."""


class SingularSystem(OswrError):
    """Banded factorization failed; usually dt/h inconsistent with advection."""


class NonFiniteSolution(OswrError):
    """A march produced inf or nan values."""


class SnapFailure(OswrError):
    """Snapping interface abscissas to grid nodes collapsed an overlap."""


class DataMismatch(OswrError):
    """Inputs that do not fit together (problem, grid, layout, axis ranges and
    Robin data), or face data (Robin data, Dirichlet g) that are not finite."""


class NodeOutOfRange(OswrError):
    """An interface node not interior to its subdomain, or an axis range
    outside the grid's axis nodes."""


class ShapeMismatch(OswrError):
    """Field arrays do not share the expected subdomain grid shape."""


class TooShort(OswrError):
    """Iteration history too short for the requested window analysis."""


class ParseError(OswrError):
    """Config file could not be parsed."""


class ValidationError(OswrError):
    """Config value failed validation; message names the field."""
