"""Exception types raised by vexlab operations."""


class VexlabError(Exception):
    """Base class for all vexlab errors."""


class NonElliptic(VexlabError):
    """An exponent field dips to 1 or below somewhere on the domain."""


class ExponentTooLarge(VexlabError):
    """p(x) >= N somewhere, so the Sobolev conjugate is undefined."""


class MeshFailure(VexlabError):
    """Mesh generation produced an inconsistent or empty mesh."""


class DegenerateCell(VexlabError):
    """A cell has (numerically) zero volume."""


class NotStarShaped(VexlabError):
    """No admissible star center could be found for the domain."""


class NonFiniteIntegrand(VexlabError):
    """An integrand evaluated to NaN or infinity at a quadrature point."""


class CollapseToZero(VexlabError):
    """An iterate's gradient norm fell below the collapse tolerance;
    the candidate degenerated to the trivial solution."""


class NoScalingRoot(VexlabError):
    """The scaling projection t -> modular balance has no root to bracket."""


class InsufficientRuns(VexlabError):
    """Too few (n, epsilon) runs to form the limsup proxy."""


class ConfigError(VexlabError):
    """Invalid or incomplete experiment configuration."""
