import json

import pytest

from tauseq.cli import main
from tauseq.maya import (MayaDiagram, Partition, half_str, maya_from_young_charge,
                         parse_half, young_charge_from_maya)


def occupied_set(m: MayaDiagram, lo: int, hi: int) -> set[int]:
    """The occupied stored positions of m in [lo, hi): the added ones and
    the vacuum's below the charge that are not removed."""
    return {p for p in range(lo, hi)
            if p in m.added or p < m.charge and p not in m.removed}


def all_partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def test_vacuum_diagram():
    m = maya_from_young_charge(Partition(()), 0)
    assert m.charge == 0 and not m.added and not m.removed
    assert occupied_set(m, -6, 6) == set(range(-6, 0))


def test_reference_partition_example():
    # lambda = (4,2,2,1), charge 0: occupied {7/2, 1/2, -1/2, -5/2} then vacuum
    m = maya_from_young_charge(Partition((4, 2, 2, 1)), 0)
    assert occupied_set(m, -8, 8) == {3, 0, -1, -3} | set(range(-8, -4))
    assert m.charge == 0


def test_charged_single_box():
    m = maya_from_young_charge(Partition((1,)), 2)
    # occupied 5/2, then vacuum below 2 with 3/2 removed
    assert occupied_set(m, -4, 4) == ({2} | set(range(-4, 2))) - {1}


def test_charge_and_balance_invariants():
    for parts in all_partitions(7):
        for charge in (-3, 0, 2):
            m = maya_from_young_charge(Partition(parts), charge)
            assert m.charge == charge
            assert len(m.added) == len(m.removed)


def test_roundtrip_exhaustive():
    for size in range(11):
        for parts in all_partitions(size):
            lam = Partition(parts)
            for charge in range(-3, 4):
                m = maya_from_young_charge(lam, charge)
                assert young_charge_from_maya(m) == (lam, charge)


def test_reverse_roundtrip_small_windows():
    # every Maya diagram supported within |stored position| <= 12
    import itertools
    positions = range(-4, 4)
    for charge in (-1, 0, 2):
        vacuum = {p for p in positions if p < charge}
        for k in range(3):
            for added in itertools.combinations(
                    [p for p in positions if p >= charge], k):
                for removed in itertools.combinations(sorted(vacuum), k):
                    m = MayaDiagram(charge, frozenset(added), frozenset(removed))
                    lam, l = young_charge_from_maya(m)
                    assert maya_from_young_charge(lam, l) == m


def test_invalid_diagrams_rejected():
    with pytest.raises(ValueError):
        MayaDiagram(0, frozenset({1}), frozenset())  # unbalanced
    with pytest.raises(ValueError):
        MayaDiagram(0, frozenset({-1}), frozenset({-2}))  # added below charge
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_json_rendering():
    m = maya_from_young_charge(Partition((4, 2, 2, 1)), 0)
    obj = m.to_json_dict()
    assert obj == {"charge": 0, "added": ["7/2", "1/2"],
                   "removed": ["-3/2", "-7/2"]}
    assert MayaDiagram.from_json_dict(json.loads(json.dumps(obj))) == m


@pytest.mark.parametrize("field", ["added", "removed"])
@pytest.mark.parametrize("value, message", [
    ({"1/2": 7}, "must be an array"),        # an object iterates its keys
    ("1/2", "must be an array"),             # a string its characters
    (None, "must be an array"),
    ([1], "must be an array"),
    (["1/2", "1/2"], "lists a position twice"),  # a set drops the repeat
    (["-1/2", "-1 / 2"], "lists a position twice"),
])
def test_json_positions_are_arrays_of_distinct_half_integers(
        capsys, field, value, message):
    obj = {"charge": 0, "added": ["1/2", "3/2"], "removed": ["-1/2", "-3/2"]}
    obj[field] = value
    with pytest.raises(ValueError, match=f"^{field} {message}"):
        MayaDiagram.from_json_dict(obj)
    assert main(["maya", "--from-maya", json.dumps(obj)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"].startswith(field)


def test_half_integer_strings():
    assert half_str(0) == "1/2" and half_str(-1) == "-1/2"
    assert parse_half("-3/2") == -2
    with pytest.raises(ValueError):
        parse_half("3/4")
