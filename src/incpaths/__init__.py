"""Increasing paths in randomly edge-ordered complete graphs.

Simulation algorithms (pedestrian walks, greedy, k-greedy), exact
longest-cycle statistics of random permutations, exact small-n path
oracles, and the second-moment machinery for increasing Hamiltonian
paths.

The package itself holds only what the layers and the command line share:
the version, the names a command passes to a layer, and the error every
cap raises.  It imports no layer, so the CLI loads only the layers a
command runs, and a command without orderings or float tables never
imports numpy.
"""

__version__ = "0.2.0"

PERMUTATION = "permutation"  # label models (core)
REAL = "real"
STRICT = "strict"  # k-greedy termination modes (kgreedy)
EXHAUST = "exhaust"
RATIONAL = "rational"  # table precisions (cyclestats)
FLOAT = "float"


class CapacityError(ValueError):
    """A size parameter exceeds the configured capacity cap."""
