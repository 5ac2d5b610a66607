"""tauseq: exact tau-function machinery for octahedral bilinear recurrences.

Pipeline: convex lattice polygon -> rank-2 sublattice of A_{s-1} ->
octahedral relation -> three-term bilinear integer recurrence -> sequence
-> offline OEIS match.  Two independent exact oracles back the identities:
a truncated fermionic Fock engine (tauseq.fock) and a symbolic polynomial
engine for the bilinear KP equation (tauseq.kp).
"""

import sys
from contextlib import contextmanager

__version__ = "0.1.0"


@contextmanager
def exact_int_str():
    """Lift CPython's int <-> str digit limit (4300 digits by default) for
    the block, so an int of any size converts exactly; the old limit is
    restored afterwards.  The package holds it because both the CLI and the
    OEIS matcher use it, and a fresh `import tauseq.cli` loads the package
    but no other module."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
