import copy
import dataclasses
import gc
import importlib.util
import os
import pickle
import subprocess
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import pytest

import cinorm
from cinorm import enumeration
from cinorm.descriptors import GroupDescriptor, _Interned, _order_within
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


@pytest.mark.parametrize("text", [
    "sn:5", "an:6", "free:2", "aff-z", "z2inf", "slz:3", "slp:2:5",
    "bar:sn:3", "wreath:sn:3:z", "wreath:sn:3:zn:4",
    "product:sn:3,an:4", "bar:wreath:sn:3:zn:3",
    "product:(product:sn:3,sn:3),an:4",
])
def test_grammar_round_trip(text):
    d = parse_descriptor(text)
    assert parse_descriptor(format_descriptor(d)) == d


def test_grammar_rejects_garbage():
    for bad in ("sn:", "wreath:sn:3", "slp:2", "nope:4", "sn:3extra"):
        with pytest.raises(ValueError):
            parse_descriptor(bad)


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
