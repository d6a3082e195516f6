"""Equivalence and state reduction of nondeterministic finite automata via
forward, backward-forward, and weak bisimulations over a Boolean relation
calculus.

The package exports exactly the names in the ``__all__`` of its library
modules; ``cli`` is imported on its own and loads ``selftest`` only for
that command."""

from .relcalc import *
from .automaton import *
from .bisim import *
from .equivalence import *
from .nerode import *

__version__ = "0.1.0"
