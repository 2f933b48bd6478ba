"""Deterministic enumeration of ordered index tuples under a budget.

A scan of k-tuples of grid points checks one of three tuple lists, named
by its coverage. All C(m, k) of them, in lexicographic order, when they
fit the budget ("exhaustive"). Otherwise the m-k+1 contiguous windows
alone when the caller's route, asked only then, answers that they decide
the scan ("windows"): by Fekete's
criterion (Gasca and Pena, "Total positivity and Neville elimination",
Linear Algebra Appl. 165, 1992; Karlin, "Total Positivity", 1968, ch. 2),
if for each order j <= k the windows of j consecutive points under the
first j functions share one nonzero sign, every increasing j-tuple has
that sign, so the windows decide what every tuple would. A window's
sign is the exact sign of its evaluated floats
(:class:`.determinants.Windows`); a certificate whose
bordered windows share the sign "-" takes this route only when its worst
window violates, so that the verdict rests on a checked tuple. Otherwise
the windows followed by distinct seeded random tuples up to the budget
("sampled"): windows catch local sign changes of continuous determinants
first. The random tuples are those of ``random.Random(seed).sample``:
its own calls while it draws from a pool, and otherwise its redraws made
on its ``getrandbits`` stream without the per-draw overhead.

:func:`scan_tuples` returns the route's answer with the tuples, so each
scan has one shape: a classification's route is
:meth:`.determinants.Windows.keep_sign`, and a certificate's route
answers with the certificate of the windows itself, or None.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Callable, Iterator

DEFAULT_BUDGET = 50_000
DEFAULT_SEED = 0


def _draws(rng: random.Random, m: int, k: int) -> Iterator[tuple[int, ...]]:
    """``tuple(sorted(rng.sample(range(m), k)))`` for successive draws.
    Where :meth:`random.Random.sample` draws from a pool of m indices (that
    list is smaller than a set of k picks), it is called itself; where it
    redraws an index until it is new, the same redraws are made here from
    ``rng.getrandbits``: the same calls, so the same stream, without the
    per-draw overhead. :meth:`random.Random._randbelow` redraws
    ``bit_length`` bits until they fall below the bound."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if m <= setsize:
        while True:
            yield tuple(sorted(rng.sample(range(m), k)))
    getrandbits, bits = rng.getrandbits, m.bit_length()
    while True:
        picked: set[int] = set()
        while len(picked) < k:
            j = getrandbits(bits)
            if j < m:
                picked.add(j)
        yield tuple(sorted(picked))


def ordered_index_tuples(m: int, k: int, budget: int = DEFAULT_BUDGET,
                         seed: int = DEFAULT_SEED,
                         windows_only: bool = False) -> list[tuple[int, ...]]:
    """Strictly increasing k-tuples of indices drawn from range(m).

    Exhaustive (lexicographic) when C(m, k) <= budget; otherwise all m-k+1
    contiguous windows followed by distinct seeded random tuples up to the
    budget, so the budget caps the random draws, never the windows: there
    are max(budget, m-k+1) tuples at most. The result is deterministic for
    fixed (m, k, budget, seed).
    """
    if k < 1 or k > m:
        return []
    if not windows_only and math.comb(m, k) <= budget:
        return list(itertools.combinations(range(m), k))
    out = [tuple(range(i, i + k)) for i in range(m - k + 1)]
    if windows_only:
        return out
    draws = _draws(random.Random(seed), m, k)
    seen = set(out)
    attempts = 0
    max_attempts = 20 * budget
    while len(out) < budget and attempts < max_attempts:
        attempts += 1
        t = next(draws)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def scan_tuples(m: int, k: int, budget: int, seed: int, route: Callable[[], Any]
                ) -> tuple[list[tuple[int, ...]], str, Any]:
    """The k-tuples a scan over range(m) checks, their coverage (module
    docstring) and the answer of ``route``, which is asked only when C(m, k)
    exceeds the budget (None otherwise). A truthy answer says that the
    windows decide the scan by Fekete's criterion, and is the route's own
    result: the caller's verdict when the route has one."""
    if math.comb(m, k) <= budget:
        return ordered_index_tuples(m, k, budget, seed), "exhaustive", None
    answer = route()
    if answer:
        return ordered_index_tuples(m, k, windows_only=True), "windows", answer
    return ordered_index_tuples(m, k, budget, seed), "sampled", answer
