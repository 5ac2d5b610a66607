import itertools
import random

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import reference_fock
import reference_intlinalg
from reference_fock import (FockVector, apply_psi, apply_psi_star,
                            engine_apply_p, vacuum)
from tauseq import fock, kp, verify
from tauseq.fock import (Block, Window, apply_p, octahedron_residual,
                         plucker3_residual, plucker4_residuals,
                         random_group_element, tau_discrete,
                         tau_with_insertions)
from tauseq.intlinalg import det_exact, pair_minors
from tauseq.kp import add, scale
from tauseq.maya import Partition
from tauseq.recurrence import octahedral_combination
from tauseq.verify import _acted_value

ONE = 1


def basis_vec(wedge) -> FockVector:
    return {wedge: ONE}


def one_component(vec: FockVector) -> fock.FockVector:
    """A one-component reference vector keyed as fock keys it."""
    return {occ: c for (occ,), c in vec.items()}


def identity_element(w: Window) -> Block:
    """The covacuum block of the identity matrix."""
    return reference_fock.covacuum_block(
        [[int(i == j) for j in range(w.size)] for i in range(w.size)], w)


# ---------------------------------------------------------------- vacuum


def test_vacuum_neutral():
    w = Window(4, 4)
    v = vacuum((0, 0, 0, 0), w)
    assert all(comp == (-1, -2, -3, -4) for comp in v)


def test_vacuum_two_component_example():
    # |2,-2> at K=4: component 1 fills below 2, component 2 below -2
    w = Window(4, 2)
    v = vacuum((2, -2), w)
    assert v[0] == (1, 0, -1, -2, -3, -4)
    assert v[1] == (-3, -4)


def test_vacuum_sizes():
    w = Window(4, 4)
    v = vacuum((1, -1, 0, 0), w)
    assert tuple(len(c) for c in v) == (5, 3, 4, 4)


def test_vacuum_headroom():
    with pytest.raises(ValueError):
        vacuum((3, -3, 0, 0), Window(4, 4))


# ---------------------------------------------------------------- psi ops


def test_psi_on_occupied_slot_is_zero():
    w = Window(3, 1)
    v = basis_vec(vacuum((0,), w))
    assert apply_psi(0, -1, v, w) == {}
    assert apply_psi(0, 1, apply_psi(0, 1, v, w), w) == {}


def test_psi_raises_vacuum_charge():
    # front insertion at the top of a component is sign +1
    w = Window(4, 4)
    n = (0, -1, 0, -1)
    v = apply_psi(0, 0, basis_vec(vacuum(n, w)), w)
    assert v == basis_vec(vacuum((1, -1, 0, -1), w))


def test_psi_star_on_vacancy_is_zero():
    w = Window(3, 1)
    v = basis_vec(vacuum((0,), w))
    assert apply_psi_star(0, 1, v, w) == {}


def test_psi_star_top_slot_sign():
    w = Window(3, 1)
    v = apply_psi_star(0, -1, basis_vec(vacuum((0,), w)), w)
    assert v == {((-2, -3),): ONE}


def test_car_relations_exhaustive():
    # {psi_p, psi*_q} = delta_pq; {psi, psi} = {psi*, psi*} = 0 at K=3, s=1
    w = Window(3, 1)
    positions = list(w.positions)
    wedges = [
        (tuple(sorted(occ, reverse=True)),)
        for k in range(len(positions) + 1)
        for occ in itertools.combinations(positions, k)
    ]
    for p in positions:
        for q in positions:
            for wedge in wedges:
                v = basis_vec(wedge)
                anti = add(
                    apply_psi(0, p, apply_psi_star(0, q, v, w), w),
                    apply_psi_star(0, q, apply_psi(0, p, v, w), w))
                assert anti == (v if p == q else {})
                both_psi = add(
                    apply_psi(0, p, apply_psi(0, q, v, w), w),
                    apply_psi(0, q, apply_psi(0, p, v, w), w))
                assert both_psi == {}
                both_star = add(
                    apply_psi_star(0, p, apply_psi_star(0, q, v, w), w),
                    apply_psi_star(0, q, apply_psi_star(0, p, v, w), w))
                assert both_star == {}


def test_p1_on_vacuum_single_box_state():
    # p_1|0> = v_{1/2} v_{-3/2} |L>
    w = Window(4, 1)
    v = apply_p(1, one_component(basis_vec(vacuum((0,), w))), w)
    assert v == {(0, -2, -3, -4): ONE}


def test_p_on_zero_vector():
    w = Window(4, 1)
    assert apply_p(2, {}, w) == {}


def test_charge_operator_eigenvalue():
    # normal-ordered charge: occupied slots at or above 0 minus the empty
    # slots below 0 (stored positions, p -> p - 1/2)
    w = Window(4, 4)
    for n in [(0, 0, 0, 0), (2, -2, 0, 0), (1, -1, 1, -1)]:
        wedge = vacuum(n, w)
        for c in range(4):
            occ = wedge[c]
            above = sum(1 for p in occ if p >= 0)
            empty_below = sum(1 for p in w.positions if p < 0 and p not in occ)
            assert above - empty_below == n[c]


def test_pm_commutator_on_interior_states():
    # Heisenberg relations [p_m, p_n] = -m delta_{m+n,0} (p_k with k > 0
    # raises the weight) on states far enough from the window boundary
    w = Window(6, 1)
    v0 = one_component(basis_vec(vacuum((0,), w)))
    p1 = apply_p(1, v0, w)
    states = [v0, p1, apply_p(2, v0, w), apply_p(1, p1, w)]
    modes = (-3, -2, -1, 1, 2, 3)
    for m, n, state in itertools.product(modes, modes, states):
        comm = add(apply_p(m, apply_p(n, state, w), w),
                   scale(apply_p(n, apply_p(m, state, w), w), -1))
        assert comm == (scale(state, -m) if m + n == 0 else {}), (m, n)


def components(window: Window):
    """One component's occupied positions in the window, descending."""
    return st.frozensets(st.sampled_from(list(window.positions))).map(
        lambda occ: tuple(sorted(occ, reverse=True)))


def multi_term(wedges):
    return st.dictionaries(wedges, st.integers(-5, 5).filter(bool),
                           min_size=2, max_size=8)


LINEAR = Window(2, 2)
SINGLE = Window(LINEAR.cutoff)


@settings(max_examples=300, deadline=None)
@given(multi_term(st.tuples(components(LINEAR), components(LINEAR))),
       multi_term(components(SINGLE)), st.integers(0, 1),
       st.sampled_from(list(LINEAR.positions)),
       st.sampled_from([k for k in range(-4, 5) if k]))
# p_1 moves both wedges to (1, -1): the terms must add up
@example({((1, -2), (-1, -2)): 1, ((0, -1), (-1, -2)): 1},
         {(1, -2): 1, (0, -1): 1}, 0, 0, 1)
def test_fock_engine_is_linear(vec, single, component, pos, k):
    # psi and psi* write each output term once, without summing: a fixed
    # position added or removed never maps two wedges to one
    for op in (lambda v: apply_psi(component, pos, v, LINEAR),
               lambda v: apply_psi_star(component, pos, v, LINEAR)):
        assert op(vec) == add(*(op({wedge: c}) for wedge, c in vec.items()))
    hop = lambda v: apply_p(k, v, SINGLE)
    assert hop(single) == add(*(hop({wedge: c})
                                for wedge, c in single.items()))


@st.composite
def one_component_vectors(draw):
    window = Window(draw(st.sampled_from([2, 3, 4])))
    return window, draw(multi_term(st.tuples(components(window))))


@settings(max_examples=300, deadline=None)
@given(one_component_vectors())
# p_1 hops both terms onto the wedge (1, -1): their coefficients add up
@example((Window(2), {((1, -2),): 1, ((0, -1),): 1}))
def test_apply_p_matches_engine(case):
    # the one-pass hop against the psi / psi* engine it replaced, for
    # every current the window admits
    window, vec = case
    for k in range(-2 * window.cutoff, 2 * window.cutoff + 1):
        if k:
            assert apply_p(k, one_component(vec), window) == one_component(
                engine_apply_p(0, k, vec, window)), k


# ------------------------------------------------------- state identities


def test_state_identities_k6():
    report = verify.verify_states(max_weight=6)
    assert report["trials"] == len(report["partitions"]) == 30
    assert report["failures"] == 0


def test_fock_vectors_hold_ints():
    w = Window(6, 1)
    v0 = one_component(basis_vec(vacuum((0,), w)))
    state = add(apply_p(1, apply_p(1, v0, w), w),
                scale(apply_p(2, v0, w), -1))
    assert state and all(type(x) is int for x in state.values())


def test_schur_states_reproduce_hand_written_table():
    # the loop's n! * state is (n!/d) * (d * state) of the old table
    w = Window(6, 1)
    table = reference_fock.state_identities(w)
    lams = [Partition(lam) for _, lam, _, _, _ in table]
    for (name, _, d, d_state, top), (_, n_fact, state, target) in zip(
            table, verify._boson_fermion_states(lams, w.cutoff),
            strict=True):
        assert n_fact % d == 0, name
        assert state == one_component(scale(d_state, n_fact // d)), name
        assert (target,) == reference_fock.wedge_over_l(top, w), name


def conjugate(lam: Partition) -> Partition:
    return Partition(tuple(sum(p > i for p in lam.parts)
                           for i in range(lam.part(1))))


def test_failing_partition_reports_scaled_diff(monkeypatch):
    # each state built from the conjugate's Schur function: the four
    # partitions of weight <= 3 that are not self-conjugate fail, and
    # their diffs are ints on the n!-scaled states
    schur = kp.schur
    monkeypatch.setattr(kp, "schur", lambda lam, m: schur(conjugate(lam), m))
    report = verify.verify_states(max_weight=3)
    assert (report["trials"], report["failures"]) == (7, 4)
    assert report["first_failure"] == {
        "partition": [2], "scale": 2,
        "diff": [{"wedge": [[0, -1, -3]], "coeff": 2},
                 {"wedge": [[1, -2, -3]], "coeff": -2}]}


def test_state_window_of_max_weight_is_exact():
    for max_weight in range(9):
        assert verify.verify_states(max_weight=max_weight)["failures"] == 0


def test_state_identities_window_too_small():
    # one position short of K = W, some partition of weight <= W fails
    for max_weight in range(3, 9):
        lams = kp.partitions_up_to(max_weight)
        assert any(add(state, {target: -n_fact})
                   for _, n_fact, state, target
                   in verify._boson_fermion_states(lams, max_weight - 1))


# ------------------------------------------------------- covacuum blocks


@pytest.mark.parametrize("bound", [1, 3])
def test_random_group_element_draws_rows_in_order(bound):
    # s*K rows of 2sK entries, drawn row by row: one seed gives one block
    # and leaves the generator in one state
    for window in (Window(2, 1), Window(2, 2), Window(3, 4)):
        for seed in range(4):
            rng, again = random.Random(seed), random.Random(seed)
            g = random_group_element(window, rng, bound)
            assert g == random_group_element(window, again, bound)
            assert rng.getstate() == again.getstate()
            rows = random.Random(seed)
            assert g == tuple(
                tuple(rows.randint(-bound, bound) for _ in range(window.size))
                for _ in range(window.components * window.cutoff))
            assert rng.getstate() == rows.getstate()


def _oracle_calls(oracle, seed, monkeypatch, reference):
    """The report of a 3-trial oracle run and the (function, block, base)
    of every call it makes to fock.octahedron_residual and
    fock.tau_discrete, with the per-entry randint draws of
    tests/reference_fock.py patched in when reference."""
    calls = []

    def recording(name):
        real = getattr(fock, name)

        def wrapper(g, n, window):
            calls.append((name, g, tuple(n)))
            return real(g, n, window)
        return wrapper

    with monkeypatch.context() as m:
        for name in ("octahedron_residual", "tau_discrete"):
            m.setattr(fock, name, recording(name))
        if reference:
            m.setattr(fock, "random_group_element",
                      reference_fock.random_group_element)
            m.setattr(verify, "_random_base_point",
                      reference_fock.random_base_point)
        report = oracle(trials=3, seed=seed)
    return report, calls


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("oracle", [verify.verify_octahedron,
                                    verify.verify_permutation])
def test_oracle_draws_match_per_entry_randint(oracle, seed, monkeypatch):
    # the batched draw hands fock the same blocks and bases, in the same
    # order, as one randint per entry did
    report, calls = _oracle_calls(oracle, seed, monkeypatch, False)
    assert report["failures"] == 0 and calls
    assert (report, calls) == _oracle_calls(oracle, seed, monkeypatch, True)


def _recorded_values(name, run, monkeypatch):
    """The (arguments, value) of every call that run() makes to fock.name."""
    calls = []
    real = getattr(fock, name)

    def wrapper(*args):
        value = real(*args)
        calls.append((args, value))
        return value

    with monkeypatch.context() as m:
        m.setattr(fock, name, wrapper)
        run()
    return calls


def _entrywise_elimination(monkeypatch):
    monkeypatch.setattr(fock, "pair_minors", reference_intlinalg.pair_minors)
    monkeypatch.setattr(fock, "det_exact", reference_intlinalg.det_exact)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cutoff", [3, 4, 5, 6])
def test_octahedron_insertions_match_entrywise_elimination(cutoff, seed,
                                                            monkeypatch):
    # the residual is 0 on either kernel, so compare the minors themselves
    calls = _recorded_values(
        "tau_with_insertions",
        lambda: verify.verify_octahedron(trials=10, seed=seed, cutoff=cutoff),
        monkeypatch)
    _entrywise_elimination(monkeypatch)
    assert len(calls) == 10 and any(any(v.values()) for _, v in calls)
    for args, value in calls:
        assert fock.tau_with_insertions(*args) == value


def test_permutation_taus_match_entrywise_elimination(monkeypatch):
    calls = _recorded_values(
        "tau_discrete",
        lambda: verify.verify_permutation(trials=2, seed=1, cutoff=4),
        monkeypatch)
    _entrywise_elimination(monkeypatch)
    assert calls and any(value for _, value in calls)
    for args, value in calls:
        assert fock.tau_discrete(*args) == value


def test_plucker_draws_match_per_entry_randint(monkeypatch):
    drawn = []
    real = fock._draw

    def recording(dim, count, rng):
        rows = real(dim, count, rng)
        drawn.append(rows)
        return rows

    monkeypatch.setattr(fock, "_draw", recording)
    for seed in range(100):
        plucker3_residual(8, seed)
        assert drawn.pop() == reference_fock.draw(8, 10, random.Random(seed))


@st.composite
def degenerate_blocks(draw):
    """A window over four components; a drawn block with some rows zeroed
    or repeated, so often rank-deficient; filler rows that complete it to
    a square g (zero, repeated or random, so g is often singular); a
    degree -2 base whose raised points stay within the headroom; and a
    permutation of the components."""
    w = Window(draw(st.sampled_from([3, 4])), 4)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bound = draw(st.integers(1, 3))
    block = [list(row) for row in random_group_element(w, rng, bound)]
    height = len(block)
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.integers(0, height - 1))
        if draw(st.booleans()):
            block[target] = [0] * w.size
        else:
            block[target] = list(block[draw(st.integers(0, height - 1))])
    fill = draw(st.sampled_from(["zero", "repeat", "random"]))
    filler = [[0] * w.size if fill == "zero" else
              block[r % height] if fill == "repeat" else
              [rng.randint(-bound, bound) for _ in range(w.size)]
              for r in range(w.size - height)]
    room = st.integers(2 - w.cutoff, w.cutoff - 3)
    n = draw(st.lists(room, min_size=3, max_size=3))
    n.append(-2 - sum(n))
    if not 2 - w.cutoff <= n[3] <= w.cutoff - 3:
        reject()
    sigma = draw(st.permutations([1, 2, 3, 4]))
    return w, tuple(map(tuple, block)), filler, tuple(n), sigma


@settings(max_examples=150, deadline=None)
@given(degenerate_blocks())
def test_block_minors_match_square_path(case):
    # the relations are identities in the block's entries: they hold on
    # rank-deficient blocks and on blocks with no invertible completion,
    # and every value is the square path's value on the padded g
    w, block, filler, n, sigma = case
    square = reference_fock.pad(block, filler, w)
    assert reference_fock.covacuum_block(square, w) == block
    assert octahedron_residual(block, n, w) == 0
    assert tau_with_insertions(block, n, w) == {
        pair: reference_fock.square_insertion(square, n, pair, w)
        for pair in PAIRS}

    def tau(point):
        value = tau_discrete(block, point, w)
        assert value == reference_fock.square_tau(square, point, w)
        return value

    def acted(pair):
        raised = tuple(x + (c in pair) for c, x in enumerate(n, 1))
        return _acted_value(tau, sigma, raised)

    assert octahedral_combination(acted) == 0


# ------------------------------------------------------------ tau minors


def test_tau_identity_matrix():
    w = Window(4, 4)
    g = identity_element(w)
    assert tau_discrete(g, (0, 0, 0, 0), w) == 1
    assert tau_discrete(g, (1, -1, 0, 0), w) == 0


def test_tau_table_holds_int_minors():
    w = Window(4, 4)
    g = random_group_element(w, random.Random(4))
    table = reference_fock.tau_table(g, w, bound=1)
    assert table and all(type(v) is int for v in table.values())
    assert all(v == tau_discrete(g, n, w) for n, v in table.items())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_acted_value_matches_reference_table(seed, bound):
    # the permutation oracle's tau'(n), read at one point, against the
    # whole acted table of the tau-table path it replaced
    w = Window(4, 4)
    g = random_group_element(w, random.Random(seed), bound)
    table = reference_fock.tau_table(g, w)
    for sigma in itertools.permutations(range(1, 5)):
        acted = reference_fock.act_permutation(
            reference_fock.PermutationAction(sigma), table)
        assert acted.keys() == table.keys()
        for n, value in acted.items():
            assert _acted_value(table.__getitem__, sigma, n) == value


def test_tau_requires_degree_zero():
    w = Window(4, 4)
    with pytest.raises(ValueError):
        tau_discrete(identity_element(w), (1, 0, 0, 0), w)


def brute_force_tau(g, n, w) -> int:
    """Independent oracle: apply g to the wedge vectors one by one and read
    off the covacuum coefficient, never touching the determinant path."""
    # the rightmost factor of the psi product acts first, so apply the
    # columns back to front
    cols = list(reversed(reference_fock.wedge_slots(vacuum(n, w), w)))
    slot_to_pos = {}
    for c in range(w.components):
        for p in w.positions:
            slot_to_pos[reference_fock.slot(c, p, w)] = (c, p)
    # g e_col = sum_i g[i][col] e_i, and only the terms on the block's
    # neutral-vacuum rows can reach the covacuum
    empty = (() ,) * w.components
    vec: FockVector = {empty: ONE}
    for col in cols:
        new: FockVector = {}
        for i, row in zip(reference_fock.vacuum_rows(w), g):
            coeff = row[col]
            if coeff == 0:
                continue
            c, p = slot_to_pos[i]
            contrib = apply_psi(c, p, vec, w)
            for wedge, x in contrib.items():
                cur = new.get(wedge, 0) + coeff * x
                if cur:
                    new[wedge] = cur
                else:
                    new.pop(wedge, None)
        vec = new
    target = vacuum((0,) * w.components, w)
    return vec.get(target, 0)


def test_tau_against_brute_force_expansion():
    w = Window(3, 2)
    rng = random.Random(11)
    charge_vectors = [(0, 0), (1, -1), (-1, 1)]
    for _ in range(5):
        g = random_group_element(w, rng)
        for n in charge_vectors:
            assert tau_discrete(g, n, w) == brute_force_tau(g, n, w)


def test_tau_multilinear_in_rows():
    w = Window(3, 2)
    rng = random.Random(5)
    g = random_group_element(w, rng)
    assert reference_fock.vacuum_rows(w)[0] == reference_fock.slot(0, -1, w)
    g2 = (tuple(3 * x for x in g[0]),) + g[1:]
    for n in [(0, 0), (1, -1)]:
        assert tau_discrete(g2, n, w) == 3 * tau_discrete(g, n, w)


def sorting_sign(slots: list[int]) -> int:
    """Sign of the permutation that sorts distinct slots ascending."""
    inversions = sum(1 for i, a in enumerate(slots) for b in slots[i + 1:]
                     if a > b)
    return -1 if inversions % 2 else 1


def test_insertions_match_raised_tau():
    # psi_alpha psi_beta |n> is the raised vacuum up to the sign of sorting
    # the two inserted slots, written in front, into the wedge's slots
    w = Window(3, 4)
    rng = random.Random(23)
    for _ in range(50):
        g = random_group_element(w, rng)
        n = (-1, 0, 0, -1)
        values = tau_with_insertions(g, n, w)
        for pair in [(1, 2), (1, 4), (2, 4)]:
            raised = list(n)
            raised[pair[0] - 1] += 1
            raised[pair[1] - 1] += 1
            inserted = [reference_fock.slot(c - 1, n[c - 1], w) for c in pair]
            sign = sorting_sign(
                inserted + reference_fock.wedge_slots(vacuum(n, w), w))
            assert type(values[pair]) is int
            assert values[pair] == sign * tau_discrete(g, tuple(raised), w)


PAIRS = list(itertools.combinations(range(1, 5), 2))


@pytest.mark.parametrize("cutoff", [3, 4, 5])
def test_insertions_match_engine_reference(cutoff):
    # every degree -2 base within the headroom, all six pairs, exact sign
    w = Window(cutoff, 4)
    g = random_group_element(w, random.Random(cutoff))
    room = range(2 - cutoff, cutoff - 1)
    bases = [n for n in itertools.product(room, repeat=4) if sum(n) == -2]
    for n in bases:
        got = tau_with_insertions(g, n, w)
        assert all(type(v) is int for v in got.values())
        assert got == {pair: reference_fock.engine_insertion(g, n, pair, w)
                       for pair in PAIRS}


@pytest.mark.parametrize("cutoff", [3, 4, 5, 6])
def test_insertions_match_closed_form_and_engine(cutoff):
    # the shared elimination against both per-pair paths it replaced, for
    # the identity and random g, on the oracle's bases and the headroom's
    # corners
    w = Window(cutoff, 4)
    rng = random.Random(100 + cutoff)
    elements = [identity_element(w), random_group_element(w, rng)]
    edge = cutoff - 2
    values = sorted({-edge, -1, 0, 1, edge})
    bases = [n for n in itertools.product(values, repeat=4) if sum(n) == -2]
    for g in elements:
        for n in bases:
            got = tau_with_insertions(g, n, w)
            assert list(got) == PAIRS
            for pair in PAIRS:
                assert got[pair] == reference_fock.closed_form_insertion(
                    g, n, pair, w)
                assert got[pair] == reference_fock.engine_insertion(
                    g, n, pair, w)


@pytest.mark.parametrize("components", [1, 2, 4])
@pytest.mark.parametrize("cutoff", [2, 3, 4, 5, 6])
def test_column_rule_matches_wedge_slots(components, cutoff):
    # the columns read off the charge vector against the reference
    # wedge -> slot translation, at every n within the headroom, and the
    # minors of both tau functions against the reference minors
    w = Window(cutoff, components)
    g = random_group_element(w, random.Random(10 * cutoff + components))
    room = range(2 - cutoff, cutoff - 1)
    for n in itertools.product(room, repeat=components):
        ranges = fock._vacuum_columns(n, w)
        assert [j for r in ranges for j in r] == \
            reference_fock.wedge_slots(vacuum(n, w), w)
        assert [r.start - 1 for r in ranges] == \
            [reference_fock.slot(c, nc, w) for c, nc in enumerate(n)]
        if sum(n) == 0:
            assert tau_discrete(g, n, w) == reference_fock.covacuum_minor(
                g, vacuum(n, w), w)
        if sum(n) == -2:
            pairs = itertools.combinations(range(1, components + 1), 2)
            assert tau_with_insertions(g, n, w) == {
                pair: reference_fock.closed_form_insertion(g, n, pair, w)
                for pair in pairs}


def test_insertions_reject_wrong_degree():
    w = Window(4, 4)
    with pytest.raises(ValueError):
        tau_with_insertions(identity_element(w), (0, 0, 0, -1), w)


def test_reference_psi_into_occupied_slot_is_zero():
    w = Window(4, 4)
    # component 1 sits at charge 1; inserting at its own top slot again
    # is encoded by a base that already occupies the target
    n = (-1, -1, 0, 0)
    vec = {vacuum(n, w): ONE}
    out = apply_psi(0, -2, vec, w)  # -2 < charge -1: occupied
    assert out == {}


def test_insertion_restores_neutral_vacuum():
    w = Window(4, 4)
    g = identity_element(w)
    assert abs(tau_with_insertions(g, (0, 0, -1, -1), w)[(3, 4)]) == 1


# ------------------------------------------------------------ octahedron


def test_octahedron_identity_tripwire():
    # all minors concrete; the residual must still vanish for g = identity
    w = Window(4, 4)
    g = identity_element(w)
    assert octahedron_residual(g, (0, 0, -1, -1), w) == 0


def test_octahedron_random_trials():
    w = Window(4, 4)
    rng = random.Random(42)
    for _ in range(25):
        g = random_group_element(w, rng)
        while True:
            n = tuple(rng.randint(-1, 1) for _ in range(4))
            if sum(n) == -2:
                break
        residual = octahedron_residual(g, n, w)
        assert type(residual) is int and residual == 0


def test_octahedron_zero_factor():
    # same raised component twice inside one pairing is impossible by
    # construction; instead check an insertion blocked by occupancy
    w = Window(4, 4)
    g = identity_element(w)
    # base charge -2 in component 3: slot above is free, fine; occupied
    # insertion handled inside tau_with_insertions returning +-minor or 0
    assert tau_with_insertions(g, (-1, -1, 0, 0), w)[(3, 4)] == 0


# --------------------------------------------------------------- plucker


def test_plucker3_residual_zero():
    for seed in range(30):
        assert plucker3_residual(8, seed) == 0


def test_plucker3_dimension_check():
    with pytest.raises(ValueError):
        plucker3_residual(4, 0)


def test_plucker3_vector_inside_sum_vanishes_termwise():
    *common, b, c, d = fock._draw(8, 9, random.Random(9))
    inside = [sum(column) for column in zip(*common)]
    minors = pair_minors(list(zip(*common, inside, b, c, d)))
    assert minors[0, 1] == minors[0, 2] == minors[0, 3] == 0
    assert minors[1, 2] != 0


def test_plucker4_symmetric_holds_verbatim_fails():
    verbatim_nonzero = 0
    for seed in range(30):
        res = plucker4_residuals(9, seed)
        assert res["symmetric"] == 0
        if res["verbatim"] != 0:
            verbatim_nonzero += 1
    assert verbatim_nonzero > 0


def test_plucker4_bracket_antisymmetry():
    *common, a, y, z = fock._draw(9, 9, random.Random(4))
    assert det_exact(common + [a, y, z]) == -det_exact(common + [a, z, y])
