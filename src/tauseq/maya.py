"""Maya diagrams and the bijection with (Young diagram, charge) pairs.

A Maya diagram is an occupation pattern on half-integer positions that
differs from a charged vacuum in finitely many places.  Half-integers are
stored as plain ints via p -> p - 1/2, so position 1/2 is stored as 0 and
-1/2 as -1.  The charge-c vacuum occupies every stored position < c.

The integers of a Maya JSON are read by the caller's parse_int, as
json.loads reads them: a caller with a ceiling can refuse a long number
before int() reads it in time quadratic in its length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import int_text


def half_str(pos: int) -> str:
    """Render a stored position as a half-integer string, e.g. 0 -> "1/2"."""
    return f"{2 * pos + 1}/2"


def parse_half(text: str, parse_int) -> int:
    """Parse a half-integer string like "-3/2" back to its stored int;
    parse_int reads the numerator, as json.loads's parse_int reads a JSON
    integer."""
    num, _, den = text.partition("/")
    if den.strip() != "2":
        raise ValueError(f"not a half-integer: {text!r}")
    n = parse_int(num)
    if (n - 1) % 2:
        raise ValueError(f"not a half-integer: {text!r}")
    return (n - 1) // 2


def parse_parts(text: str, most: int, digits: int) -> tuple[int, ...]:
    """The parts of a comma-separated text such as "4,2,2,1" ("" has
    none).  More than `most` parts, counted by the commas, or a part of
    more than `digits` digits, counted in its canonical text (int_text),
    is refused before int() reads it in time quadratic in its length."""
    if text.count(",") >= most:
        raise ValueError(f"the partition would have {text.count(',') + 1} "
                         f"parts, past the ceiling of {most}")
    parts = [int_text(x) for x in text.split(",")] if text else []
    if any(len(part.lstrip("-")) > digits for part in parts):
        raise ValueError(f"a part has more than {digits} digits, the ceiling")
    return tuple(map(int, parts))


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers; () is the empty one."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive: {self.parts}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, k: int) -> int:
        """k-th part, 1-based; 0 beyond the last part."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0


@dataclass(frozen=True)
class MayaDiagram:
    """Finite perturbation of the charge-`charge` vacuum.

    `added` are occupied positions at or above the charge (vacancies in the
    vacuum), `removed` are vacated positions below the charge.  Both sets use
    the stored-int convention.
    """

    charge: int = 0
    added: frozenset[int] = field(default_factory=frozenset)
    removed: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.added & self.removed:
            raise ValueError("added and removed must be disjoint")
        if any(p < self.charge for p in self.added):
            raise ValueError("added positions must lie at or above the charge")
        if any(p >= self.charge for p in self.removed):
            raise ValueError("removed positions must lie below the charge")
        if len(self.added) != len(self.removed):
            raise ValueError("added and removed must have equal size")

    def to_json_dict(self) -> dict:
        return {
            "charge": self.charge,
            "added": [half_str(p) for p in sorted(self.added, reverse=True)],
            "removed": [half_str(p) for p in sorted(self.removed, reverse=True)],
        }

    @classmethod
    def from_json_dict(cls, obj: dict, parse_int) -> "MayaDiagram":
        """The diagram of a JSON object; parse_int reads the numerator of
        each position, as json.loads's parse_int reads the charge."""
        try:
            charge = obj["charge"]
            added = _positions("added", obj["added"], parse_int)
            removed = _positions("removed", obj["removed"], parse_int)
        except (KeyError, TypeError) as exc:
            raise ValueError('Maya JSON must be {"charge": c, "added": '
                             '[half-integers], "removed": '
                             '[half-integers]}') from exc
        # bool is an int subclass; floats and strings are not converted
        if type(charge) is not int:
            raise ValueError(f"charge must be an integer, got {charge!r}")
        return cls(charge=charge, added=added, removed=removed)


def _positions(name: str, value, parse_int) -> frozenset[int]:
    """The stored positions of a JSON array of distinct half-integers."""
    if type(value) is not list or not all(type(p) is str for p in value):
        raise ValueError(f"{name} must be an array of half-integer strings")
    positions = frozenset(parse_half(p, parse_int) for p in value)
    if len(positions) < len(value):
        raise ValueError(f"{name} lists a position twice")
    return positions


def maya_from_young_charge(lam: Partition, charge: int) -> MayaDiagram:
    """Maya diagram whose occupied set is {charge + lam_k - k + 1/2 : k >= 1}."""
    occupied_high = set()
    for k, part in enumerate(lam.parts, start=1):
        occupied_high.add(charge + part - k)  # stored-int position
    n_parts = len(lam.parts)
    added = frozenset(p for p in occupied_high if p >= charge)
    # below-charge positions in {charge - n_parts, ..., charge - 1} not hit
    removed = frozenset(
        p for p in range(charge - n_parts, charge)
        if p not in occupied_high
    )
    return MayaDiagram(charge=charge, added=added, removed=removed)


def young_charge_from_maya(m: MayaDiagram) -> tuple[Partition, int]:
    """Inverse of maya_from_young_charge: the k-th occupied position pos
    from the top gives the part pos - charge + k.  Above the least removed
    position low they are the added ones and the unremoved charge - 1 ...
    low + 1; as |added| = |removed| they number charge - low: no part is 0."""
    low = min(m.removed, default=m.charge)
    positions = sorted(m.added, reverse=True) + [
        p for p in range(m.charge - 1, low, -1) if p not in m.removed]
    return Partition(tuple(pos - m.charge + k for k, pos
                           in enumerate(positions, start=1))), m.charge
