"""Exact verification oracles, one report dict each.

A report names its check, counts its trials and failures, and carries the
first failure; a nonzero `failures` is what the CLI's exit code 1 means.
Every oracle takes the same keyword options and ignores those it does not
use; a `cutoff` or `dim` left as None takes the oracle's own default.
fock and kp are called through their module attributes, so that a caller
who wraps those attributes sees every call.  The permutation oracle needs
no tau table: it reads each acted value tau'(n) = (-1)^q tau(sigma n) where
a probe needs it, from fock.tau_discrete memoised per covacuum block.
"""

from __future__ import annotations

import functools
import itertools
import random

from . import fock, kp
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
        n = tuple(rng.randint(-1, 1) for _ in range(s))
        if sum(n) == -2:
            return n


def verify_octahedron(trials: int, seed: int, cutoff: int | None = None,
                      **unused) -> dict:
    cutoff = 4 if cutoff is None else cutoff
    if cutoff < 3:  # a drawn base has entries in {-1, 0, 1}
        raise ValueError(f"octahedron needs cutoff >= 3, got {cutoff}: "
                         "no base point fits in its headroom")
    window = fock.Window(cutoff, 4)
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        g = fock.random_group_element(window, rng)
        n = _random_base_point(rng, 4)
        residual = fock.octahedron_residual(g, n, window)
        if residual != 0:
            failures.append({"trial": trial, "base": list(n),
                             "residual": str(residual)})
    return _report("octahedron", trials, failures, seed=seed, cutoff=cutoff)


def verify_plucker(trials: int, seed: int, dim: int | None = None,
                   **unused) -> dict:
    dim = 8 if dim is None else dim
    failures = []
    for trial in range(trials):
        residual = fock.plucker3_residual(dim, seed + trial)
        if residual != 0:
            failures.append({"trial": trial, "residual": str(residual)})
    return _report("plucker", trials, failures, seed=seed, dim=dim)


def verify_plucker4(trials: int, seed: int, dim: int | None = None,
                    **unused) -> dict:
    dim = 9 if dim is None else dim
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


def verify_states(cutoff: int | None = None, **unused) -> dict:
    cutoff = 6 if cutoff is None else cutoff
    report = fock.verify_state_identities(fock.Window(cutoff, 1))
    failures = [r for r in report if not r["ok"]]
    return _report("states", len(report), failures, cutoff=cutoff,
                   identities=[{"identity": r["identity"], "ok": r["ok"]}
                               for r in report])


def verify_kp(max_weight: int = 6, **unused) -> dict:
    if max_weight < 0:
        raise ValueError(f"--max-weight must be >= 0, got {max_weight}")
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
    cutoff = 4 if cutoff is None else cutoff
    if cutoff < 3:  # every degree -2 base has an entry -1
        raise ValueError(f"permutation needs cutoff >= 3, got {cutoff}: "
                         "no base point fits in its headroom")
    window = fock.Window(cutoff, 4)
    rng = random.Random(seed)
    # a base's raised points, and so their images, need |n_c| <= cutoff - 2
    top = min(1, cutoff - 3)
    bases = [n for n in itertools.product(range(-1, top + 1), repeat=4)
             if sum(n) == -2]
    failures = []
    for trial in range(trials):
        g = fock.random_group_element(window, rng)
        tau = functools.cache(lambda n: fock.tau_discrete(g, n, window))
        for _ in range(SIGMAS):
            perm = list(range(1, 5))
            rng.shuffle(perm)
            for _ in range(PROBES):
                base = rng.choice(bases)
                # each value is read at the base raised in the pair's entries
                residual = octahedral_combination(
                    lambda pair: _acted_value(tau, perm, tuple(
                        x + (c in pair) for c, x in enumerate(base, 1))))
                if residual != 0:
                    failures.append({"trial": trial, "sigma": perm,
                                     "base": list(base),
                                     "residual": str(residual)})
    return _report("permutation", trials, failures, seed=seed, cutoff=cutoff,
                   sigmas=SIGMAS, probes=PROBES)


ORACLES = {
    "plucker": verify_plucker,
    "plucker4": verify_plucker4,
    "states": verify_states,
    "octahedron": verify_octahedron,
    "kp": verify_kp,
    "permutation": verify_permutation,
}
