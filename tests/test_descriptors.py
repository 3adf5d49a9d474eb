import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cinorm
from cinorm import (
    aff_z,
    alternating,
    bar,
    finite,
    format_descriptor,
    free_group,
    is_abelian,
    order,
    parse_descriptor,
    product,
    sl_mod,
    sl_z,
    symmetric,
    wreath_z,
    wreath_zn,
    z2_infinity,
)


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
    assert hash(d) == hash(parse_descriptor(text)) and "_hash" in vars(d)
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
