"""Exact computational algebra for the monoids of cofinite partial isometries
of the positive integers (nat) and of the integer line (int).

All values are immutable and all operations pure, so everything here is safe
to share across threads and to ship between processes; so are the errors,
which keep their message and fields through a pickle round trip.

The package root is the algebra alone.  The verification suites live in
``isomon.harness``, which loads numpy and multiprocessing, and the command
line in ``isomon.cli``.
"""

from .intsets import FiniteIntSet, HalfInteger, symmetry_center
from .isoz import ZIsometry
from .natmonoid import (Bicyclic, Markers, NatIsometry, bicyclic_mul,
                        from_bicyclic, gen_a, gen_b, gen_e, is_bicyclic,
                        to_bicyclic)
from .intmonoid import (FullUnitsError, HClassKind, IntIsometry, hclass_group,
                        restriction_isometries)
from .homs import (FiniteTailMap, Witness, eps_conjugation, extend_in,
                   hom_translation, hom_z2, refute_finite_generation)
from .words import (NotInFiltrationError, Token, Word, WordSyntaxError,
                    decompose, decompose_filtered, evaluate, format_word, parse)

__version__ = "0.1.0"

__all__ = [
    "FiniteIntSet", "HalfInteger", "symmetry_center",
    "ZIsometry",
    "NatIsometry", "Markers", "Bicyclic", "bicyclic_mul", "from_bicyclic",
    "to_bicyclic", "is_bicyclic", "gen_a", "gen_b", "gen_e",
    "IntIsometry", "HClassKind", "FullUnitsError", "hclass_group",
    "restriction_isometries",
    "FiniteTailMap", "Witness", "extend_in", "hom_translation", "hom_z2",
    "eps_conjugation", "refute_finite_generation",
    "Word", "Token", "WordSyntaxError", "NotInFiltrationError",
    "parse", "format_word", "evaluate", "decompose", "decompose_filtered",
    "__version__",
]
