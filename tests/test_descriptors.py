import copy
import dataclasses
import gc
import importlib.util
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import pytest

import cinorm
from cinorm import enumeration
from cinorm.descriptors import (GroupDescriptor, _Interned, _is_prime, _order_text,
                                _order_within, _size)
from cinorm import (
    GuardExceededError,
    SubgroupSpec,
    aff_z,
    alternating,
    bar,
    closure_of,
    commutator_length_over,
    displacement_energy,
    finite,
    format_descriptor,
    free_group,
    is_abelian,
    order,
    parse_descriptor,
    perm_from_cycles,
    product,
    sl_mod,
    sl_z,
    support_norm,
    symmetric,
    to_literal,
    verify_master_inequalities,
    wreath_z,
    wreath_zn,
    z2_infinity,
)
from cinorm.fcommutator import wreath_environment
from cinorm.kernel import domain_kernel
from cinorm.serialize import norm_table_payload


def test_orders():
    assert order(symmetric(5)) == 120
    assert order(alternating(5)) == 60
    assert order(alternating(1)) == 1
    assert order(wreath_zn(symmetric(3), 3)) == 6 ** 3 * 3
    assert order(bar(symmetric(3))) == 72
    assert order(sl_mod(2, 3)) == 24
    assert order(sl_mod(2, 5)) == 120
    assert order(sl_mod(3, 3)) == 3 ** 3 * (3 ** 2 - 1) * (3 ** 3 - 1)
    assert order(product(symmetric(3), symmetric(4))) == 144
    for d in (free_group(2), aff_z(), z2_infinity(), sl_z(3),
              wreath_z(symmetric(3))):
        assert order(d) is None
        assert not finite(d)


def test_abelian_flags():
    assert is_abelian(symmetric(2))
    assert not is_abelian(symmetric(3))
    assert is_abelian(alternating(3))
    assert not is_abelian(alternating(4))
    assert is_abelian(free_group(1))
    assert not is_abelian(free_group(2))
    assert is_abelian(z2_infinity())
    assert not is_abelian(aff_z())
    assert not is_abelian(sl_z(2))
    assert not is_abelian(wreath_zn(symmetric(3), 3))
    assert is_abelian(product(free_group(1), free_group(1)))


@pytest.mark.parametrize("text", ["sn:1", "sn:5", "an:6", "slp:2:5", "bar:sn:3",
                                  "wreath:sn:3:zn:2", "product:sn:3,an:4", "free:2",
                                  "z2inf", "wreath:sn:3:z"])
def test_an_order_within_a_bound_is_the_order_or_none(text):
    d = parse_descriptor(text)
    size = order(d)
    bounds = (0, 1, 10 ** 30) + (() if size is None else (size - 1, size, size + 1))
    for bound in bounds:
        assert _order_within(d, bound) == (size if size is not None and size <= bound else None)


# the exact order is stored in place of log10 |G| wherever that log is below
# 29; both sides of that bound are listed (|wreath:sn:1:zn:1000| = 1000,
# |product:sn:26,sn:5| ~ 4.8e28 and |product:sn:27,sn:4| ~ 2.6e29)
SMALL_OR_NOT = [
    ("sn:27", True), ("sn:28", False), ("an:27", True), ("slp:2:5", True),
    ("slp:6:3", True), ("slp:10:3", False), ("bar:sn:15", True), ("bar:sn:25", False),
    ("wreath:sn:3:zn:30", True), ("wreath:sn:3:zn:36", False), ("wreath:sn:1:zn:1000", True),
    ("product:sn:20,sn:10", True), ("product:sn:27,sn:10", False),
    ("product:sn:26,sn:5", True), ("product:sn:27,sn:4", False), ("free:2", False),
    ("wreath:sn:3:z", False), ("product:sn:3,free:2", False)]


@pytest.mark.parametrize("text,small", SMALL_OR_NOT)
def test_a_small_order_is_read_from_the_fields(text, small):
    d = parse_descriptor(text)
    size = order(d)
    assert (type(d._size) is int) == small
    assert not small or d._size == size < 10 ** 29


@pytest.mark.parametrize("text, size", [
    ("wreath:sn:1:zn:1000", 1000),
    ("product:sn:27,sn:4", 261332866810040451858432000000),
])
def test_an_order_stored_either_way_gives_the_same_answers(text, size):
    # a log stored in place of the order, or the order in place of its log,
    # compares and is written as the other was
    d = parse_descriptor(text)
    assert order(d) == size
    assert [_order_within(d, b) for b in (size - 1, size, size + 1)] == [None, size, size]
    assert _order_text(d) == f"= {size}"


@pytest.mark.parametrize("make", [
    lambda: GroupDescriptor("slp", n=11, p=1),
    lambda: GroupDescriptor("wreath-zn", n=0, base=symmetric(100)),
    lambda: product(GroupDescriptor("an", n=0), symmetric(100)),
], ids=["slp-modulus-1", "wreath-ring-0", "product-order-0"])
def test_degenerate_fields_are_still_sized(make):
    # sized at intern time: a log10(0) there would refuse these descriptors
    assert finite(make())


def test_library_calls_size_a_huge_group_from_its_log(monkeypatch):
    # |sn:3000| has 9131 digits: on sn:300000 these calls spent 0.1-1.6 s in
    # factorial before any guard, and the table's coverage message raised
    # Python's limit on writing an int instead of the library's own
    def sym3(d):
        return SubgroupSpec((perm_from_cycles(d, (1, 2)), perm_from_cycles(d, (1, 2, 3))))

    def cl_table(d):
        return commutator_length_over(closure_of(sym3(d)), d)
    for text, size in (("sn:3", "6 "), ("sn:6", "720 ")):
        d = parse_descriptor(text)
        with pytest.raises(ValueError, match=rf"^the norm table covers 3 elements, "
                                             rf"not all {size}of {text}$"):
            displacement_energy(d, sym3(d), 1, cl_table(d))

    def no_factorial(n):
        raise AssertionError("the order was computed")
    monkeypatch.setattr("math.factorial", no_factorial)
    d = symmetric(3000)
    h = sym3(d)
    table = cl_table(d)
    rows = [["()", "0/1"], ["(1 2 3)", "1/1"], ["(1 3 2)", "1/1"]]
    assert sorted([to_literal(g), f"{v.numerator}/{v.denominator}"]
                  for g, v in table.values.items()) == rows
    assert norm_table_payload(table)["values"] == rows
    assert enumeration.kept(d, "probe", list) is not enumeration.kept(d, "probe", list)
    kernel = domain_kernel(d, closure_of(h))
    assert kernel.n == 6 and not kernel.full
    with pytest.raises(ValueError, match=r"^the norm table covers 3 elements, "
                                         r"not all of sn:3000$"):
        displacement_energy(d, h, 1, table)
    with pytest.raises(GuardExceededError, match=r"^\|sn:3000\| has 9131 digits and "
                                                 r"exceeds the guard 10000000$"):
        verify_master_inequalities(d, h, 1, support_norm)
    assert str(wreath_environment(d, 2).ambient) == "wreath:sn:3000:zn:3"
    assert not is_abelian(wreath_zn(d, 2))


def test_validation():
    with pytest.raises(ValueError):
        symmetric(0)
    with pytest.raises(ValueError):
        wreath_zn(symmetric(3), 1)
    with pytest.raises(ValueError):
        sl_mod(2, 4)  # not prime
    with pytest.raises(ValueError):
        sl_z(1)


ROUND_TRIP = [
    "sn:5", "an:6", "free:2", "aff-z", "z2inf", "slz:3", "slp:2:5",
    "bar:sn:3", "wreath:sn:3:z", "wreath:sn:3:zn:4",
    "product:sn:3,an:4", "bar:wreath:sn:3:zn:3",
    "product:(product:sn:3,sn:3),an:4",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_grammar_round_trip(text):
    d = parse_descriptor(text)
    assert parse_descriptor(format_descriptor(d)) == d


@pytest.mark.parametrize("text", ROUND_TRIP + [
    "bar:(product:sn:2,sn:2)", "wreath:(product:sn:2,sn:2):zn:3",
    "wreath:wreath:sn:2:zn:2:zn:3", "product:bar:sn:3,sn:2", "product:aff-z,z2inf",
])
def test_canonical_text_is_formatted_back(text):
    assert format_descriptor(parse_descriptor(text)) == text


GARBAGE = [
    ("sn:", "expected integer at ''"),
    ("wreath:sn:3", "wreath descriptor needs :z or :zn:<N>"),
    ("slp:2", "slp descriptor needs a modulus: slp:<n>:<p>"),
    ("nope:4", "cannot parse descriptor at 'nope:4'"),
    ("sn:3extra", "trailing text in descriptor: 'extra'"),
    ("slp:2:", "expected integer at ''"),
    ("an", "cannot parse descriptor at 'an'"),
    ("sn:-1", "expected integer at '-1'"),
    ("wreath:sn:2:zn:", "expected integer at ''"),
    ("product:", "cannot parse descriptor at ''"),
    ("(sn:3", "unbalanced parenthesis in descriptor"),
    ("sn:3)", "trailing text in descriptor: ')'"),
]


def test_grammar_rejects_garbage():
    for bad, message in GARBAGE:
        with pytest.raises(ValueError) as err:
            parse_descriptor(bad)
        assert str(err.value) == message, bad


def test_a_pickled_descriptor_is_found_under_another_hash_seed():
    # the hash is kept on the instance, but string hashes are salted per
    # process, so a pickle must not carry it
    text = "wreath:sn:3:zn:3"
    d = parse_descriptor(text)
    assert hash(d) == hash(parse_descriptor(text))
    blob = pickle.dumps(d)
    assert b"_hash" not in blob
    code = (
        "import pickle, sys\n"
        "from cinorm import parse_descriptor\n"
        "d = pickle.loads(sys.stdin.buffer.read())\n"
        f"assert {{parse_descriptor({text!r}): 'found'}}[d] == 'found'\n")
    src = str(Path(cinorm.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        run = subprocess.run([sys.executable, "-c", code], input=blob, env=env,
                             capture_output=True, timeout=60)
        assert run.returncode == 0, run.stderr.decode()


ONE_PER_FAMILY = [
    (symmetric(5), "sn:5"), (alternating(6), "an:6"), (free_group(2), "free:2"),
    (wreath_z(symmetric(3)), "wreath:sn:3:z"), (wreath_zn(symmetric(3), 4), "wreath:sn:3:zn:4"),
    (aff_z(), "aff-z"), (bar(symmetric(3)), "bar:sn:3"), (z2_infinity(), "z2inf"),
    (sl_z(3), "slz:3"), (sl_mod(2, 5), "slp:2:5"),
    (product(symmetric(3), product(alternating(4), free_group(1))),
     "product:sn:3,(product:an:4,free:1)"),
]


# the element families of tests/test_elements.py, one of each family, both
# sides of 10^29, and SL(n, q) above it (slp:10:3 is in SMALL_OR_NOT)
SIZED = (["sn:4", "an:4", "free:2", "aff-z", "z2inf", "slz:3", "slp:2:5", "wreath:sn:3:zn:3",
          "bar:sn:3", "product:sn:3,free:1"]
         + [text for _, text in ONE_PER_FAMILY] + [text for text, _ in SMALL_OR_NOT]
         + ["slp:8:7", "slp:30:2", "bar:wreath:sn:3:zn:40", "product:(bar:sn:20),an:30"])


# the descriptors of test_degenerate_fields_are_still_sized, of order 0, 0
# and 100!: A_0 is trivial, and a zero ring or part makes the order 0
DEGENERATE = [
    pytest.param(lambda: GroupDescriptor("slp", n=11, p=1), id="slp-modulus-1"),
    pytest.param(lambda: GroupDescriptor("wreath-zn", n=0, base=symmetric(100)),
                 id="wreath-ring-0"),
    pytest.param(lambda: product(GroupDescriptor("an", n=0), symmetric(100)),
                 id="product-order-0"),
]


@pytest.mark.parametrize("text", SIZED + DEGENERATE)
def test_the_stored_size_is_the_order_or_its_log(text):
    # exact only below 10^29, where log10 |G| < 29 stores the order
    d = parse_descriptor(text) if isinstance(text, str) else text()
    size = order(d)
    if size is None:
        assert d._size is None
    elif type(d._size) is int:
        assert d._size == size < 10 ** 29
    else:  # SL(n, q) from k log10(q) + log10(1 - q^-k), not log10(q^k - 1)
        log = math.log10(size)
        assert type(d._size) is float and abs(d._size - log) <= 1e-14 * log


@pytest.mark.parametrize("text", ["sn:23", "an:43", "wreath:sn:2:zn:47", "slp:12:5",
                                  "product:sn:2,free:7"])
def test_every_copy_of_a_descriptor_carries_its_size(text):
    # groups no other test keeps alive, so the last one can be made again
    d = parse_descriptor(text)
    size = d._size
    for twin in (copy.copy(d), copy.deepcopy(d), dataclasses.replace(d),
                 pickle.loads(pickle.dumps(d))):
        assert vars(twin)["_size"] == size
    # the size is off the fields: the pickle and the repr do not carry it
    assert b"_size" not in pickle.dumps(d) and "_size" not in repr(d)
    gone = weakref.ref(d)
    del d, twin
    enumeration._store.cache_clear()
    gc.collect()
    assert gone() is None
    assert vars(parse_descriptor(text))["_size"] == size


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_the_primality_test_matches_trial_division():
    assert [p for p in range(10 ** 5) if _is_prime(p) != _trial_division(p)] == []


@pytest.mark.parametrize("p", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_not_prime(p):
    # strong pseudoprimes to the first 4 and the first 9 prime bases
    assert not _is_prime(p)
    with pytest.raises(ValueError, match="^modulus must be prime$"):
        parse_descriptor(f"slp:2:{p}")


def test_a_modulus_past_the_exact_primality_bound_is_refused():
    assert _is_prime(10 ** 18 + 3) and str(parse_descriptor("slp:2:1000000000000000003"))
    bound = 3_317_044_064_679_887_385_961_981
    for p in (bound, bound + 2, 10 ** 400 + 267):
        with pytest.raises(ValueError, match=f"^modulus must be below {bound}, "):
            sl_mod(2, p)
    with pytest.raises(ValueError, match="^modulus must be prime$"):
        parse_descriptor("slp:2:4")


@pytest.mark.parametrize("make, field", [
    (lambda: GroupDescriptor("sn", n=-1), "n"),
    (lambda: GroupDescriptor("slp", n=2, p=-5), "p"),
    (lambda: GroupDescriptor("wreath-zn", n=-3, base=symmetric(3)), "n"),
], ids=["sn", "slp", "wreath-zn"])
def test_a_negative_field_is_refused_before_it_is_sized(make, field):
    # sizing at intern time would raise from factorial or log10 instead
    with pytest.raises(ValueError, match=f"^descriptor field {field} must be non-negative"):
        make()


@pytest.mark.parametrize("make, field", [
    (lambda: GroupDescriptor("product"), "parts must hold GroupDescriptors, not ()"),
    (lambda: GroupDescriptor("bar"), "base must be a GroupDescriptor, not None"),
    (lambda: GroupDescriptor("wreath-zn", n=3), "base must be a GroupDescriptor, not None"),
], ids=["product", "bar", "wreath-zn"])
def test_a_composite_group_without_parts_is_refused(make, field):
    # sizing it read None._size and raised AttributeError
    with pytest.raises(ValueError, match=rf"^descriptor field {re.escape(field)}$"):
        make()


def _live_texts() -> set:
    return {str(d) for d in _Interned._live.values()}


@pytest.mark.parametrize("d, text", ONE_PER_FAMILY, ids=str)
def test_every_way_of_making_a_descriptor_gives_the_live_one(d, text):
    fields = (d.family, d.n, d.p, d.base, d.parts)
    for twin in (parse_descriptor(text), GroupDescriptor(*fields),
                 GroupDescriptor(d.family, n=d.n, p=d.p, base=d.base, parts=d.parts),
                 copy.copy(d), copy.deepcopy(d), dataclasses.replace(d),
                 pickle.loads(pickle.dumps(d)), pickle.loads(pickle.dumps(d, protocol=0))):
        assert twin is d
    # equality and hash are identity, not the fields'
    assert GroupDescriptor.__eq__ is object.__eq__
    assert GroupDescriptor.__hash__ is object.__hash__


def test_racing_threads_get_one_descriptor():
    # a get-or-insert that is not atomic lets two threads each insert their
    # own copy, and copies are not equal
    texts = [f"product:wreath:sn:4:zn:{k},slp:2:7" for k in range(101, 141)]
    assert not set(texts) & _live_texts()
    barrier = threading.Barrier(8)
    got = [[] for _ in range(8)]

    def parse_all(mine):
        for text in texts:
            barrier.wait()
            mine.append(parse_descriptor(text))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_all, args=(mine,)) for mine in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for i, text in enumerate(texts):
        assert len({id(mine[i]) for mine in got}) == 1 and str(got[0][i]) == text
        assert got[0][i]._size == _size(got[0][i])


def test_one_live_descriptor_per_value_after_the_words_jobs(monkeypatch):
    # each words job makes its own descriptors, 4 726 calls for 21 values
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # its dataclasses look it up
    spec.loader.exec_module(jobs)
    built = jobs.build("words", 1, 20)
    assert len(built) > 100
    alive = Counter(str(o) for o in gc.get_objects() if type(o) is GroupDescriptor)
    assert alive and max(alive.values()) == 1
    assert {"sn:3", "free:2", "wreath:sn:3:zn:3"} <= set(alive)


def test_a_dropped_descriptor_leaves_no_intern_entry():
    # the kept state of a group holds its descriptor until it is evicted
    text = "product:an:4,wreath:sn:2:zn:5"
    d = parse_descriptor(text)
    assert len(enumeration.enumerate_elements(d)) == order(d) == 12 * 2 ** 5 * 5
    assert text in _live_texts()
    gone = weakref.ref(d)
    del d
    enumeration._store.cache_clear()
    gc.collect()
    assert gone() is None and text not in _live_texts()


@pytest.mark.parametrize("make, field", [
    (lambda: symmetric(13.0), "n"),
    (lambda: GroupDescriptor("sn", n=True), "n"),
    (lambda: sl_mod(2, 13.0), "p"),
    (lambda: wreath_zn(symmetric(3), 13.0), "n"),
    (lambda: bar("sn:3"), "base"),
    (lambda: product("sn:3"), "parts"),
], ids=["float-degree", "bool-degree", "float-modulus", "float-ring", "text-base",
        "text-part"])
def test_a_field_of_another_type_is_refused_before_the_lookup(make, field):
    # the intern key compares by equality: 13.0 would become the live sn:13
    # and be handed to every later symmetric(13) while it lived
    with pytest.raises(ValueError, match=f"descriptor field {field} "):
        make()
    assert str(symmetric(13)) == "sn:13"
    assert str(sl_mod(2, 13)) == "slp:2:13"
    assert str(wreath_zn(symmetric(3), 13)) == "wreath:sn:3:zn:13"
    assert str(parse_descriptor("sn:1")) == "sn:1"
