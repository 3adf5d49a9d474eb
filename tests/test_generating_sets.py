"""The two-generator sets of ``an`` and ``slp`` against the larger sets they
replaced, n - 2 three-cycles (1 2 i) and every e_ij(+-1): each reader of
``group_generators`` is patched back to the earlier sets, the kept store is
cleared between sides, and every output that a generating set could reach
must come out the same (kernel rows and classes, q_K and cl tables with
their insertion order, the derived subgroup, the shift-commutator
environment, packing, energies and strong displacers).
"""

import hashlib
import random

import pytest

from cinorm import (
    SubgroupSpec,
    commutator_length,
    derived_subgroup,
    displacement_energy,
    elementary,
    enumerate_elements,
    find_strong_displacer,
    identity,
    mod_matrix,
    packing_number,
    parse_descriptor,
    perm_from_cycles,
    qk_norm,
    support_norm,
    trivial_norm,
)
from cinorm import displacement, enumeration, fcommutator, kernel
from cinorm.fcommutator import wreath_environment
from cinorm.kernel import TABLE_BOUND, group_kernel

GROUP_GENERATORS = enumeration.group_generators
READERS = (enumeration, kernel, displacement, fcommutator)
GROUPS = ["an:5", "an:6", "an:7", "slp:2:5", "slp:3:2", "slp:4:2"]
#: Groups whose tables and classes are compared; slp:4:2 takes its 12
#: earlier generators to label 20 160 elements by payload conjugation.
TABLE_GROUPS = GROUPS[:-1]


def earlier_generators(d):
    """``group_generators`` as it was before two generators: n - 2
    three-cycles on ``an``, every e_ij(+-1) on ``slp``."""
    if d.family == "an":
        gens = [perm_from_cycles(d, (0, 1, i), one_based=False) for i in range(2, d.n)]
    elif d.family == "slp":
        gens = [elementary(d, i, j, s) for i in range(1, d.n + 1)
                for j in range(1, d.n + 1) if i != j for s in (1, d.p - 1)]
    else:
        return GROUP_GENERATORS(d)
    return tuple(dict.fromkeys(gens)) or (identity(d),)


def both_sides(monkeypatch, outputs):
    """``outputs()`` with the earlier sets, then with today's, each side on
    a cleared store."""
    sides = []
    for gens in (earlier_generators, GROUP_GENERATORS):
        with monkeypatch.context() as patch:
            for module in READERS:
                patch.setattr(module, "group_generators", gens)
            enumeration._store.cache_clear()
            sides.append(outputs())
    enumeration._store.cache_clear()
    return sides


def test_the_earlier_sets_are_larger(monkeypatch):
    # the patch reaches every reader, so the two sides differ where it counts
    d = parse_descriptor("slp:3:3")
    earlier, today = both_sides(monkeypatch, lambda: [
        len(group_kernel(d).generators()), len(displacement.group_generators(d)),
        len(fcommutator.group_generators(d))])
    assert earlier == [12, 12, 12] and today == [2, 2, 2]


def _seeded(d, seed):
    return random.Random(f"generating-sets:{d}:{seed}").choice(enumerate_elements(d)[1:])


def _normal_generator(d):
    return elementary(d, 1, 2) if d.family == "slp" else perm_from_cycles(d, (1, 2, 3))


@pytest.mark.parametrize("text", TABLE_GROUPS)
def test_kernels_tables_and_closures_match_the_earlier_sets(text, monkeypatch):
    d = parse_descriptor(text)
    K = [_normal_generator(d), _seeded(d, 0)]

    def outputs():
        G = group_kernel(d)
        labels, members = G.classes()
        rows = hashlib.sha256(b"".join(G.row(i).tobytes() for i in range(G.n))).hexdigest() \
            if G.n <= TABLE_BOUND else None
        env = wreath_environment(d, 2)
        return (rows, labels, members, list(qk_norm(d, K).values.items()),
                list(commutator_length(d).values.items()), derived_subgroup(d), env)
    earlier, today = both_sides(monkeypatch, outputs)
    assert earlier == today


def _subgroups(d):
    """Two seeded cyclic subgroups and a fixed non-abelian one: A4 on
    {1, 2, 3, 4} in ``an``, the upper triangular matrices in slp:2:p, and
    the upper-left SL(2, p) in slp:n:p for n > 2."""
    if d.family == "an":
        gens = (perm_from_cycles(d, (1, 2, 3)), perm_from_cycles(d, (2, 3, 4)))
    elif d.n == 2:
        gens = (elementary(d, 1, 2), mod_matrix(d, [[2, 0], [0, (d.p + 1) // 2]]))
    else:
        gens = (elementary(d, 1, 2), elementary(d, 2, 1))
    return [SubgroupSpec((_seeded(d, k),)) for k in (1, 2)] + [SubgroupSpec(gens)]


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", GROUPS)
def test_scans_match_the_earlier_sets(text, monkeypatch):
    d = parse_descriptor(text)
    norms = [trivial_norm] + ([support_norm] if d.family == "an" else [])

    def outputs():
        out = []
        for h in _subgroups(d):
            out.append(_outcome(lambda: packing_number(d, h)))
            out += [_outcome(lambda: displacement_energy(d, h, m, norm))
                    for norm in norms for m in (1, 2)]
            out += [_outcome(lambda: find_strong_displacer(d, h, m)) for m in (1, 2)]
        return out
    earlier, today = both_sides(monkeypatch, outputs)
    assert earlier == today
