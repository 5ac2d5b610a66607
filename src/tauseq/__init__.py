"""tauseq: exact tau-function machinery for octahedral bilinear recurrences.

Pipeline: convex lattice polygon -> rank-2 sublattice of A_{s-1} ->
octahedral relation -> three-term bilinear integer recurrence -> sequence
-> offline OEIS match.  Two independent exact oracles back the identities:
a truncated fermionic Fock engine (tauseq.fock) and a symbolic polynomial
engine for the bilinear KP equation (tauseq.kp).
"""

import re
import sys
from contextlib import contextmanager

__version__ = "0.1.0"

# what int() reads: a signed run of decimal digits, "_" between two, with
# whitespace around it, which for int() is Unicode's except \x1c-\x1f.
# re compiles it on first use, which keeps the compile out of the import
INT_PATTERN = r"[^\S\x1c-\x1f]*([+-]?\d+(?:_\d+)*)[^\S\x1c-\x1f]*"


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


def int_text(text: str) -> str:
    """str(int(text)), computed from the text in linear time, where int()
    takes time quadratic in the text's length (without CPython's digit
    limit), also for a text it then refuses.  A text int() refuses raises
    int()'s own ValueError.  Every integer a command reads passes through
    here, so a caller can judge a value by its digit count before int()
    reads it."""
    if not (match := re.fullmatch(INT_PATTERN, text)):
        raise ValueError("invalid literal for int() with base 10: %.200r"
                         % text)
    term = match[1].replace("_", "")
    if not term.isascii():  # digits of another script, which int() reads
        import unicodedata
        term = "".join(str(unicodedata.decimal(ch, ch)) for ch in term)
    digits = term.lstrip("+-").lstrip("0") or "0"
    return "-" + digits if term[0] == "-" and digits != "0" else digits
