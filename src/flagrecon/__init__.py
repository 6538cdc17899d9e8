"""Reconstructibility certificates for graphs via flag-complex topology.

The pipeline: a finite simple graph determines a flag (clique) complex and a
right-angled Coxeter system; exact integer homology of that complex and of
its links decides homology-manifold and homology-sphere structure; and those
verdicts certify that the graph is determined by its deck of vertex-deleted
cards.  Everything is computed over Z with arbitrary precision.
"""

from .complexes import *
from .coxeter import *
from .formats import *
from .graphs import *
from .homology import *
from .manifolds import *
from .reconstruction import *
from .reports import *

__version__ = "0.1.0"
