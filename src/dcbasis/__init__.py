"""Exact dual canonical bases and irreducibility criteria for segment algebras.

The package has two halves that validate each other:

* an exact symbolic side (`laurent`, `multisegment`, `algebra`, `canonical`)
  that computes dual canonical basis vectors ``G*(m)`` inside the shuffle
  algebra spanned by dual PBW vectors ``E*(m)``, and
* a combinatorial side (`criteria`, `tableaux`) that decides irreducibility
  of induction products through separation properties of co-finite integer
  sets, hook lengths, and column tableaux.

Each of these six modules' ``__all__`` is the package API: the package
re-exports every name it lists, and no other.
"""

from .laurent import *
from .multisegment import *
from .algebra import *
from .canonical import *
from .criteria import *
from .tableaux import *

# Importing a submodule binds its name in this package, as in asyncio.
__all__ = (laurent.__all__ + multisegment.__all__ + algebra.__all__
           + canonical.__all__ + criteria.__all__ + tableaux.__all__)

__version__ = "0.1.0"
