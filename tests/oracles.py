"""Exhaustive enumeration oracles for small instances.

Everything here but ``dense_kernel`` and ``verify_moment_identities`` is
exact rational arithmetic, over explicit label sets or closed forms, kept
deliberately independent of the library's log-space / block-count /
float-recurrence code paths.  ``dense_kernel`` is no rational oracle: it
assembles the full kernel matrix from the library's own rows, for the tests
that need P as one array.  ``verify_moment_identities`` sets the library's
exact evolution against the closed-form moments.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from blmix import Eigenfunction, eigen_eval, evolve, point_mass, transition_row


def enum_hypergeom(population: int, successes: int, draws: int) -> dict:
    """Law of the type-1 count among ``draws`` objects, by enumerating every
    draw subset of the population."""
    counts: dict[int, int] = {}
    for subset in combinations(range(population), draws):
        c = sum(1 for i in subset if i < successes)
        counts[c] = counts.get(c, 0) + 1
    total = comb(population, draws)
    return {j: Fraction(c, total) for j, c in counts.items()}


def enum_transition_row(n: int, k: int, x: int) -> dict:
    """One-step law from state x by enumerating all C(n,k)^2 pairs of swap
    selections (one k-subset of left-urn labels, one of right-urn labels,
    red labels sorted first in each urn)."""
    selections = list(combinations(range(n), k))
    a_counts = [sum(1 for i in sel if i < x) for sel in selections]
    b_counts = [sum(1 for i in sel if i < n - x) for sel in selections]
    counts: dict[int, int] = {}
    for a in a_counts:
        for b in b_counts:
            y = x - a + b
            counts[y] = counts.get(y, 0) + 1
    total = comb(n, k) ** 2
    return {y: Fraction(c, total) for y, c in counts.items()}


def enum_coupled_joint(n: int, k: int, x: int, y: int) -> dict:
    """Joint law of one shared-selection coupled step from (x, y) by
    enumerating all C(n,k)^2 equally likely (A, B) label-set pairs."""
    selections = list(combinations(range(n), k))
    counts: dict[tuple[int, int], int] = {}
    for sel_a in selections:
        ax = sum(1 for i in sel_a if i < x)
        ay = sum(1 for i in sel_a if i < y)
        for sel_b in selections:
            bx = sum(1 for i in sel_b if i < n - x)
            by = sum(1 for i in sel_b if i < n - y)
            key = (x - ax + bx, y - ay + by)
            counts[key] = counts.get(key, 0) + 1
    total = comb(n, k) ** 2
    return {key: Fraction(c, total) for key, c in counts.items()}


def block_joint_law(n: int, k: int, x: int, y: int) -> dict:
    """Joint law of the simulator's block-count step, computed exactly from
    the two multivariate hypergeometric selection laws."""
    lo, hi = min(x, y), max(x, y)
    total = comb(n, k) ** 2
    law: dict[tuple[int, int], int] = {}
    for a1 in range(min(lo, k) + 1):
        for a2 in range(min(hi - lo, k - a1) + 1):
            if k - a1 - a2 < 0:
                continue
            wa = comb(lo, a1) * comb(hi - lo, a2) * comb(n - hi, k - a1 - a2)
            if wa == 0:
                continue
            for b1 in range(min(n - hi, k) + 1):
                for b2 in range(min(hi - lo, k - b1) + 1):
                    if k - b1 - b2 < 0:
                        continue
                    wb = (comb(n - hi, b1) * comb(hi - lo, b2)
                          * comb(lo, k - b1 - b2))
                    if wb == 0:
                        continue
                    new_lo = lo - a1 + b1 + b2
                    new_hi = hi - a1 - a2 + b1
                    key = (new_hi, new_lo) if x > y else (new_lo, new_hi)
                    law[key] = law.get(key, 0) + wa * wb
    return {key: Fraction(c, total) for key, c in law.items()}


def marginals(joint: dict) -> tuple[dict, dict]:
    """X- and Y-marginals of a joint law over integer pairs."""
    mx: dict[int, Fraction] = {}
    my: dict[int, Fraction] = {}
    for (x, y), w in joint.items():
        mx[x] = mx.get(x, Fraction(0)) + w
        my[y] = my.get(y, Fraction(0)) + w
    return mx, my


def kernel_counts(n: int, k: int) -> list:
    """The kernel as the integers C(n,k)^2 P(x, y): r of the x reds in urn 1
    and b of the n - x reds in urn 2 are swapped."""
    M = [[0] * (n + 1) for _ in range(n + 1)]
    for x in range(n + 1):
        for r in range(min(x, k) + 1):
            leave = comb(x, r) * comb(n - x, k - r)
            for b in range(min(n - x, k) + 1):
                M[x][x - r + b] += leave * comb(n - x, b) * comb(x, k - b)
    return M


def exact_worst_start_profile(n: int, k: int, t_max: int) -> list:
    """max_x TV(P^t(x, .), pi) for t = 0..t_max, in Fractions, from the
    integer kernel of ``kernel_counts``.  The starts x <= n/2 suffice, as
    the colour swap x -> n - x maps the chain to itself."""
    M = kernel_counts(n, k)
    scale = comb(n, k) ** 2
    pi_num, pi_den = [comb(n, z) ** 2 for z in range(n + 1)], comb(2 * n, n)
    rows = [[int(z == x) for z in range(n + 1)] for x in range(n // 2 + 1)]
    d = []
    for t in range(t_max + 1):
        den = scale ** t  # row r holds den * P^t(x, .)
        d.append(max(Fraction(sum(abs(r[z] * pi_den - pi_num[z] * den)
                                  for z in range(n + 1)), 2 * den * pi_den)
                     for r in rows))
        rows = [[sum(r[y] * M[y][z] for y in range(n + 1) if r[y])
                 for z in range(n + 1)] for r in rows]
    return d


def hahn_exact(n: int, i: int, x: int) -> Fraction:
    """The Hahn polynomial Q_i(x) = 3F2(-i, i-2n-1, -x; -n, -n; 1), summed
    term by term in Fractions (the sum stops at j = min(i, x))."""
    total = term = Fraction(1)
    for j in range(min(i, x)):
        term *= Fraction((j - i) * (j + i - 2 * n - 1) * (j - x),
                         (j - n) ** 2 * (j + 1))
        total += term
    return total


def hahn_recurrence_exact(n: int, x: int, top: int) -> list:
    """Q_0(x) .. Q_top(x) from the three-term recurrence in integers: with
    a_i = (2n+1-i)(n-i), c_i = i(n+1-i) and e_i = 2(2n+1-2i), Q_i is N_i /
    (a_0 ... a_{i-1}), where N_{i+1} = (a_i + c_i - e_i x) N_i -
    c_i a_{i-1} N_{i-1}."""
    a = [(2 * n + 1 - i) * (n - i) for i in range(top + 1)]
    num, den = [1, a[0] - 2 * (2 * n + 1) * x], [1, a[0]]
    for i in range(1, top):
        c = i * (n + 1 - i)
        num.append((a[i] + c - 2 * (2 * n + 1 - 2 * i) * x) * num[i]
                   - c * a[i - 1] * num[i - 1])
        den.append(den[i] * a[i])
    return [Fraction(p, q) for p, q in zip(num[:top + 1], den[:top + 1])]


def dense_kernel(params) -> np.ndarray:
    """The (n+1) x (n+1) kernel of ``params``: the untrimmed rows x <= n/2
    from ``transition_row``, and the rest mirrored, as swapping the colours
    maps the chain to itself (row n - x is row x reversed)."""
    n = params.n
    P = np.zeros((n + 1, n + 1))
    for x in range(n // 2 + 1):
        P[x] = transition_row(params, x).dense_on(0, n)
    P[n // 2 + 1:] = P[n - n // 2 - 1::-1, ::-1]
    return P


def verify_moment_identities(params, x0: int, t: int) -> tuple:
    """The first and second moments of the linear eigenfunction f1 under
    P^t(x0, .), each as ``(evolved, closed_form)``: E f1 = f1(k)^t f1(x0)
    and E f1^2 = 1/(2n-1) + (2n-2)/(2n-1) f2(k)^t f2(x0)."""
    n, k = params.n, params.k
    F1, F2 = Eigenfunction.F1, Eigenfunction.F2
    mu = evolve(params, point_mass(x0), t)
    f1 = 1.0 - 2.0 * mu.support / n
    first = eigen_eval(params, F1, k)**t * eigen_eval(params, F1, x0)
    second = (1.0 / (2 * n - 1) + (2 * n - 2) / (2 * n - 1)
              * eigen_eval(params, F2, k)**t * eigen_eval(params, F2, x0))
    return ((float(np.dot(mu.weights, f1)), first),
            (float(np.dot(mu.weights, f1**2)), second))
