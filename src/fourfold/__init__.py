"""Rational homotopy of closed oriented simply connected four-manifolds.

From an intersection form (a symmetric unimodular integer matrix) the
package derives the rational cohomology algebra, constructs its Sullivan
minimal model stage by stage with exact rational arithmetic, reads off the
ranks of the rational homotopy groups, checks them against the closed-form
tables and, in every degree, against the loop-space series, and classifies
rational homotopy type by rank and signature.

The package root exports the four calls of the README's Library example;
the submodules `linalg`, `gca`, `forms`, `sullivan` and `cli` hold the rest.
"""

from .forms import closed_form_ranks, cohomology_algebra, make_form
from .sullivan import build

__version__ = "0.1.0"

__all__ = ["build", "closed_form_ranks", "cohomology_algebra", "make_form"]
