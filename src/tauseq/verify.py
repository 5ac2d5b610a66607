"""Exact verification oracles, one report dict each.

A report names its check, counts its trials and failures, and carries the
first failure; a nonzero `failures` is what the CLI's exit code 1 means.
Every oracle takes the same keyword options and ignores those it does not
use; a `cutoff` or `dim` left as None takes the oracle's own default.
fock and kp are called through their module attributes, so that a caller
who wraps those attributes sees every call.  The permutation oracle needs
no tau table: it reads each acted value tau'(n) = (-1)^q tau(sigma n) where
a probe needs it, from fock.tau_discrete memoised per covacuum block, and
computes each residual once per base and permutation: a permutation's 100
probes draw from at most 10 bases.
The states oracle turns each kp.schur polynomial into fock.apply_p chains
on the vacuum and compares the result with the partition's state.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from . import fock, kp
from .maya import Partition
from .recurrence import octahedral_combination


def _report(check: str, trials: int, failures: list, **extra) -> dict:
    return {
        "check": check,
        "trials": trials,
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
        **extra,
    }


def _random_base_point(rng: random.Random, s: int) -> tuple[int, ...]:
    while True:
        n = tuple(fock._uniform_ints(rng, 1, s))
        if sum(n) == -2:
            return n


def _four_component_window(check: str, cutoff: int | None) -> fock.Window:
    """The window of the octahedron and permutation oracles, cutoff 4 by
    default.  Every degree -2 base over four components has a negative entry,
    and the headroom |n_c| <= K - 2 admits it only from cutoff 3 on."""
    cutoff = 4 if cutoff is None else cutoff
    if cutoff < 3:
        raise ValueError(f"{check} needs cutoff >= 3, got {cutoff}: "
                         "no base point fits in its headroom")
    return fock.Window(cutoff, 4)


def verify_octahedron(trials: int, seed: int, cutoff: int | None = None,
                      **unused) -> dict:
    """fock.octahedron_residual on `trials` random blocks and base points.

    It cannot report a failure: the six insertion values are, up to one
    common factor, the 2x2 minors of one 2x4 block, from one elimination,
    and the minors of any 2x4 block satisfy the relation, so a fault in
    the minors still gives 0.  The guard of the minors is
    test_octahedron_insertions_match_entrywise_elimination in
    tests/test_fock.py, against the entry-by-entry elimination.
    """
    window = _four_component_window("octahedron", cutoff)
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        g = fock.random_group_element(window, rng)
        n = _random_base_point(rng, 4)
        residual = fock.octahedron_residual(g, n, window)
        if residual != 0:
            failures.append({"trial": trial, "base": list(n),
                             "residual": str(residual)})
    return _report("octahedron", trials, failures, seed=seed,
                   cutoff=window.cutoff)


def verify_plucker(trials: int, seed: int, dim: int | None = None,
                   **unused) -> dict:
    dim = fock.check_dim(8 if dim is None else dim, fock.PLUCKER3_DIM)
    failures = []
    for trial in range(trials):
        residual = fock.plucker3_residual(dim, seed + trial)
        if residual != 0:
            failures.append({"trial": trial, "residual": str(residual)})
    return _report("plucker", trials, failures, seed=seed, dim=dim)


def verify_plucker4(trials: int, seed: int, dim: int | None = None,
                    **unused) -> dict:
    dim = fock.check_dim(9 if dim is None else dim, fock.PLUCKER4_DIM)
    verbatim_failures = []
    failures = []
    for trial in range(trials):
        res = fock.plucker4_residuals(dim, seed + trial)
        if res["verbatim"] != 0:
            verbatim_failures.append({"trial": trial,
                                      "residual": str(res["verbatim"])})
        if res["symmetric"] != 0:
            failures.append({"trial": trial,
                             "residual": str(res["symmetric"])})
    verdict = ("symmetric reading holds; verbatim printed form fails"
               if failures == [] and verbatim_failures else
               "both readings hold" if not failures else
               "symmetric reading fails")
    return _report("plucker4", trials, failures, seed=seed, dim=dim,
                   verbatim_failures=len(verbatim_failures), verdict=verdict)


def _check_max_weight(max_weight: int) -> None:
    if max_weight < 0:
        raise ValueError(f"--max-weight must be >= 0, got {max_weight}")


def _boson_fermion_states(lams: list[Partition], cutoff: int):
    """Yield (lam, n!, n! * s_lam(p_k / k)|0>, the state |lam>) for each
    partition lam, n = |lam|, in the one-component window K = cutoff.

    Each monomial prod_k t_k^m_k of kp.schur(lam) with coefficient c is the
    chain p_mu|0> of the partition mu with m_k parts k, scaled by the int
    n! c / prod_k k^m_k = n! chi^lam(mu) / z_mu (class size times
    character), so no Fraction is formed.  |lam> occupies the positions
    lam_i - i for i = 1..K, and the vacuum |0> is |()>.  K >= n is exact:
    p_k takes a state of weight w to weight w + k <= n, so nothing lands at
    K or above, and a particle below -K would need a jump k > K - w >= n - w
    to reach a hole, all of which lie at or above -w.
    """
    window = fock.Window(cutoff, 1)
    occupied = lambda lam: tuple(lam.part(i) - i
                                 for i in range(1, cutoff + 1))

    @functools.cache
    def p_chain(mu: tuple[int, ...]) -> fock.FockVector:
        """p_mu|0>, built on the memoised chain of mu's suffix."""
        if not mu:
            return {occupied(Partition()): 1}
        return fock.apply_p(mu[0], p_chain(mu[1:]), window)

    for lam in lams:
        n = lam.size
        fact = math.factorial(n)
        terms = []
        for exp, c in kp.schur(lam, max(n, 1)).items():
            mu = tuple(k for k in range(len(exp), 0, -1)
                       for _ in range(exp[k - 1]))
            weight = fact * c.numerator // (
                c.denominator * math.prod(k ** e for k, e in enumerate(exp, 1)))
            terms.append(kp.scale(p_chain(mu), weight))
        yield lam, fact, kp.add(*terms), occupied(lam)


def verify_states(max_weight: int, **unused) -> dict:
    """The boson-fermion correspondence s_lam(p_k / k)|0> = |lam> for every
    partition of weight <= max_weight, checked as n! times both sides in
    the window K = max(max_weight, 2), which is exact."""
    _check_max_weight(max_weight)
    lams = kp.partitions_up_to(max_weight)
    failures = []
    for lam, scale, state, target in _boson_fermion_states(
            lams, max(max_weight, 2)):
        diff = kp.add(state, {target: -scale})
        if diff:
            failures.append({"partition": list(lam.parts), "scale": scale,
                             "diff": [{"wedge": [list(occ)], "coeff": x}
                                      for occ, x in sorted(diff.items())]})
    return _report("states", len(lams), failures, max_weight=max_weight,
                   partitions=[list(lam.parts) for lam in lams])


def verify_kp(max_weight: int, **unused) -> dict:
    _check_max_weight(max_weight)
    # weight w needs t_1..t_w, and the residual differentiates in t_1..t_3
    m = max(max_weight, 3)
    failures = []
    lams = kp.partitions_up_to(max_weight)
    for lam in lams:
        residual = kp.kp_bilinear_residual(kp.schur(lam, m), m)
        if residual:
            failures.append({"partition": list(lam.parts),
                             "residual": kp.render(residual)})
    return _report("kp", len(lams), failures, max_weight=max_weight)


SIGMAS = 5  # permutations drawn per covacuum block
PROBES = 100  # base points probed per permutation


def _acted_value(tau, sigma, n: tuple[int, ...]) -> int:
    """tau'(n) = (-1)^q tau(sigma n) for the 1-based image tuple sigma:
    entry n_alpha moves to slot sigma(alpha), and q sums n_alpha n_beta
    over the inversions alpha < beta, sigma(alpha) > sigma(beta)."""
    image = [0] * len(n)
    for alpha, target in enumerate(sigma):
        image[target - 1] = n[alpha]
    q = sum(n[alpha] * n[beta]
            for alpha, beta in itertools.combinations(range(len(n)), 2)
            if sigma[alpha] > sigma[beta])
    return (-1 if q % 2 else 1) * tau(tuple(image))


def verify_permutation(trials: int, seed: int, cutoff: int | None = None,
                       **unused) -> dict:
    window = _four_component_window("permutation", cutoff)
    rng = random.Random(seed)
    # a base's raised points, and so their images, need |n_c| <= cutoff - 2
    top = min(1, window.cutoff - 3)
    bases = [n for n in itertools.product(range(-1, top + 1), repeat=4)
             if sum(n) == -2]
    failures = []
    for trial in range(trials):
        g = fock.random_group_element(window, rng)
        tau = functools.cache(lambda n: fock.tau_discrete(g, n, window))
        for _ in range(SIGMAS):
            perm = list(range(1, 5))
            rng.shuffle(perm)

            @functools.cache
            def residual_at(base: tuple[int, ...]) -> int:
                # each value is read at the base raised in the pair's entries
                return octahedral_combination(
                    lambda pair: _acted_value(tau, perm, tuple(
                        x + (c in pair) for c, x in enumerate(base, 1))))

            for _ in range(PROBES):
                base = rng.choice(bases)
                residual = residual_at(base)
                if residual != 0:
                    failures.append({"trial": trial, "sigma": perm,
                                     "base": list(base),
                                     "residual": str(residual)})
    return _report("permutation", trials, failures, seed=seed,
                   cutoff=window.cutoff, sigmas=SIGMAS, probes=PROBES)


ORACLES = {
    "plucker": verify_plucker,
    "plucker4": verify_plucker4,
    "states": verify_states,
    "octahedron": verify_octahedron,
    "kp": verify_kp,
    "permutation": verify_permutation,
}
