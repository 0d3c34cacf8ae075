"""Exception types shared across the package."""


class SegreError(Exception):
    """Base class for all package-specific errors."""


class DegeneratePencilError(SegreError):
    """The pencil determinant |U - lambda*V| vanishes identically."""


class NoSmoothMemberError(DegeneratePencilError):
    """No member of the pencil is a nonsingular quadric.

    Equivalent to the binary form det(x*U + y*V) being identically zero,
    so the base locus cannot be a quartic surface of the catalog.
    """


class SizeLimitError(SegreError, ValueError):
    """An input outside the sizes handled: an empty (0 x 0) pencil or one
    larger than ``pencil.MAX_SIZE`` x ``pencil.MAX_SIZE`` (a matrix to
    ``render_form`` too), a symbol to classify whose weight is not 5
    (a pencil that is not 5 x 5), or singularities whose Euler numbers sum
    past 12 (``class_degree``)."""


class PencilError(SegreError, ValueError):
    """A refused pencil input: a pencil argument that is not a
    ``QuadricPencil``, a bad entry, scalar, root or polynomial coefficient
    (one that is not a finite rational or that passes the input limits), a
    matrix that is not a sequence of rows, a diagonal, roots or polynomial
    coefficients not a sequence (text and bytes are not one), a pair not
    square, symmetric and of one size, a congruence of the wrong size, a
    singular basis change, ``degeneracy_report`` of a pencil with a smooth
    member, roots that do not fit a normal form, a ``random_instance``
    seed that is not an ``int``, a matrix ``render_form`` cannot render,
    an argument of ``squarefree_decomposition`` or ``coprime_basis`` that
    is not a ``Polynomial`` (or a sequence of them), is zero, or, to
    ``coprime_basis``, is constant, not monic or not squarefree."""


class IllConditionedError(SegreError):
    """The floating-point oracle refuses to answer rather than guess."""


class InternalConsistencyError(SegreError):
    """A cross-check identity that must hold by theory failed.

    Raised e.g. when a hyperplane-section divisor does not sum to the
    class degree; indicates corrupted catalog data or a bug, never user error.
    """


class NotInCatalogError(SegreError, ValueError):
    """A well-formed symbol off the 16-symbol catalog, given where a row is needed."""


class ParseError(SegreError, ValueError):
    """Malformed quadratic-form expression, matrix file or symbol, a
    matrix document that is not text or bytes, a symbol group or
    singularity list item of the wrong type, an outcome, surface report,
    report symbol or report dict of the wrong type given to ``reporting``
    (or an outcome that holds neither report), or a ``SingularityType``
    that is malformed or unknown (text not a letter and ASCII digits, a
    family not A or D, an index not an ``int`` or out of range, A_n for n
    of 10^40 or more included)."""


class DegreeError(ParseError):
    """A term of the input polynomial is not of degree exactly two."""


class ZeroFormError(ParseError):
    """The parsed quadratic form is identically zero."""
