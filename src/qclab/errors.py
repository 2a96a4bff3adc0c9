"""Error types shared across the package.

Every failure that a caller can provoke through data (rather than through a
programming mistake) raises a subclass of :class:`QCLabError`.  The ``code``
attribute is a stable machine-readable tag; the CLI serialises it into the
error object it prints before exiting with status 1.
"""

from __future__ import annotations


class QCLabError(Exception):
    """Base class for all library errors."""

    code = "Error"


class MeshBuildError(QCLabError):
    """A mesh family rejected its parameters or an index list was invalid."""

    code = "MeshBuild"


class ClusterOverlap(QCLabError):
    """Cluster balls of radius r would overlap: 2r+1 exceeds some element step."""

    code = "ClusterOverlap"


class IllPosed(QCLabError):
    """A discrete operator lost definiteness (nonpositive coefficient or weight)."""

    code = "IllPosed"


class LatticeTooLarge(QCLabError):
    """N is beyond the largest lattice numpy can index (see model.MAX_N)."""

    code = "LatticeTooLarge"


class ConvexityLoss(QCLabError):
    """The pair potential stopped being convex at a strain reached by the solver."""

    code = "ConvexityLoss"


class NewtonFailure(QCLabError):
    """An iterative solve did not reach its residual tolerance."""

    code = "NewtonFailure"


class UnknownFamily(QCLabError):
    """An unrecognised force or mesh descriptor string."""

    code = "UnknownFamily"


class ShapeMismatch(QCLabError):
    """An argument has an invalid size or length for the lattice or mesh."""

    code = "ShapeMismatch"


class ConstraintViolation(QCLabError):
    """A displacement or nodal field does not vanish at the pinned index 0."""

    code = "ConstraintViolation"
