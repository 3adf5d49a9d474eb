"""Every refusal of bad input: its exception type and its whole message.

One row per ``raise`` for bad input, each reached through the public call
that a user makes; ``bench/cover.py --json`` lists under ``missed`` the
statements no test runs, which is where these rows came from.
"""

import pytest

from cinorm import (
    DescriptorMismatchError,
    InfiniteGroupError,
    bar_extension,
    commutator_sup,
    counting_qm,
    defect,
    displacement_energy,
    free_word,
    homogenize,
    qk_norm,
    seven_fcommutators,
    support_norm,
    two_commutator_witness,
)
from cinorm import cache, elements, enumeration, kernel, norms, quasimorphisms
from cinorm.cli import main
from cinorm.descriptors import GroupDescriptor, parse_descriptor as P
from cinorm.enumeration import SubgroupSpec, subgroups_commute
from cinorm.fcommutator import solve_rearrange_id, wreath_environment
from cinorm.literals import from_literal

S3, S4, F2 = P("sn:3"), P("sn:4"), P("free:2")


def s3(text="(1 2)"):
    return from_literal(S3, text)


def s4(text="(1 2)"):
    return from_literal(S4, text)


def ab():
    return counting_qm(free_word(F2, (1, 2)))


# name -> (call, exception type, message)
REFUSALS = {
    # elements: constructors on the wrong family, shape or parts
    "permutation-off-sn": (lambda: elements.permutation(F2, [0, 1]),
                           ValueError, "free:2 is not a permutation family"),
    "permutation-not-bijective": (lambda: elements.permutation(S3, [0, 0, 1]),
                                  ValueError, "not a permutation of 0..2: (0, 0, 1)"),
    "free-word-off-free": (lambda: elements.free_word(S3, [1]),
                           ValueError, "sn:3 is not a free group"),
    "int-matrix-family": (lambda: elements.int_matrix(P("slp:2:3"), [[1, 0], [0, 1]]),
                          ValueError, "slp:2:3 is not an integer SL family"),
    "int-matrix-shape": (lambda: elements.int_matrix(P("slz:2"), [[1, 0, 0], [0, 1, 0]]),
                         ValueError, "matrix is not 2x2"),
    "mod-matrix-family": (lambda: elements.mod_matrix(P("slz:2"), [[1, 0], [0, 1]]),
                          ValueError, "slz:2 is not a modular SL family"),
    "mod-matrix-shape": (lambda: elements.mod_matrix(P("slp:2:3"), [[1, 0], [0, 1], [0, 0]]),
                         ValueError, "matrix is not 2x2"),
    "mod-matrix-det": (lambda: elements.mod_matrix(P("slp:2:3"), [[2, 0], [0, 1]]),
                       ValueError, "matrix determinant is not 1 mod p"),
    "elementary-family": (lambda: elements.elementary(S3, 1, 2),
                          ValueError, "sn:3 is not a matrix family"),
    "elementary-diagonal": (lambda: elements.elementary(P("slz:3"), 2, 2), ValueError,
                            "elementary position must be off-diagonal and in range"),
    "wreath-family": (lambda: elements.wreath_element(S3, {}),
                      ValueError, "sn:3 is not a wreath family"),
    "wreath-lamp": (lambda: elements.wreath_element(P("wreath:sn:3:z"), {0: s4()}),
                    DescriptorMismatchError, "lamp element is not in the base group"),
    "bar-family": (lambda: elements.bar_element(S3, s3(), s3()),
                   ValueError, "sn:3 is not a bar family"),
    "bar-coordinates": (lambda: elements.bar_element(P("bar:sn:4"), s3(), s3()),
                        DescriptorMismatchError, "bar coordinates must lie in the base group"),
    "product-family": (lambda: elements.product_element(S3, [s3()]),
                       ValueError, "sn:3 is not a product family"),
    "product-components": (lambda: elements.product_element(P("product:sn:3,sn:4"),
                                                            [s3(), s3()]),
                           DescriptorMismatchError,
                           "component descriptors do not match the product"),
    "moved-points-off-sn": (lambda: elements.moved_points(free_word(F2, [1])),
                            ValueError, "moved_points needs a permutation payload"),
    # literals
    "wreath-literal": (lambda: from_literal(P("wreath:sn:3:z"), "(1 2)"),
                       ValueError, "bad wreath literal '(1 2)'"),
    "bar-literal": (lambda: from_literal(P("bar:sn:3"), "[(1 2)]"),
                    ValueError, "bad bar literal '[(1 2)]'"),
    "bar-literal-halves": (lambda: from_literal(P("bar:sn:3"), "((1 2))"),
                           ValueError, "bar literal needs two components: '((1 2))'"),
    "product-literal": (lambda: from_literal(P("product:sn:3,sn:2"), "(1 2"),
                        ValueError, "bad product literal '(1 2'"),
    "product-literal-parts": (lambda: from_literal(P("product:sn:3,sn:2"), "((1 2))"),
                              ValueError, "product literal needs 2 components"),
    "aff-z-token": (lambda: from_literal(P("aff-z"), "z^2 q"),
                    ValueError, "bad aff-z token 'q'"),
    # descriptors and enumeration
    "unknown-family": (lambda: GroupDescriptor("foo"),
                       ValueError, "unknown group family 'foo'"),
    "generators-of-free": (lambda: enumeration.group_generators(F2),
                           InfiniteGroupError, "free:2 has no finite generating set"),
    "abelianization-of-bar-free": (lambda: enumeration.abelianization_order(P("bar:free:2")),
                                   InfiniteGroupError,
                                   "no analytic abelianization for bar:free:2"),
    "closure-empty": (lambda: enumeration.subgroup_closure([]),
                      ValueError, "closure needs at least one generator"),
    "closure-mixed": (lambda: enumeration.subgroup_closure([s3(), s4()]),
                      DescriptorMismatchError, "closure generators must share one descriptor"),
    "subgroup-spec-mixed": (lambda: SubgroupSpec((s3(), s4())), DescriptorMismatchError,
                            "subgroup generators must share one descriptor"),
    "subgroups-commute-mixed": (lambda: subgroups_commute(SubgroupSpec((s3(),)),
                                                          SubgroupSpec((s4(),))),
                                DescriptorMismatchError,
                                "subgroups live in different ambient groups"),
    "kernel-index-mixed": (lambda: kernel.group_kernel(S3).index_of(s4()),
                           DescriptorMismatchError,
                           "Element(sn:4, (1, 0, 2, 3)) is not an element of sn:3"),
    # norms and displacement
    "cgen-empty": (lambda: qk_norm(S3, []),
                   ValueError, "conjugation-generating set must be non-empty"),
    "filtration-non-abelian": (lambda: norms.generator_filtration_norm(s3(), [s3()]),
                               ValueError, "filtration norm is defined on abelian models only"),
    "energy-m-0": (lambda: displacement_energy(S4, SubgroupSpec((s4(),)), 0, support_norm),
                   ValueError, "m = 0: a displacer needs m >= 1"),
    # quasi-morphisms
    "defect-mode": (lambda: defect(ab(), "bogus"),
                    ValueError, "unknown defect mode 'bogus'"),
    "defect-exact-infinite": (lambda: defect(ab(), "exact"),
                              InfiniteGroupError, "exact defect needs a finite domain"),
    "commutator-sup-mode": (lambda: commutator_sup(ab(), mode="bogus"),
                            ValueError, "unknown mode 'bogus'"),
    "commutator-sup-exact-without-h": (lambda: commutator_sup(ab(), mode="exact"),
                                       ValueError, "exact mode needs a subgroup"),
    "homogenize-n-0": (lambda: homogenize(ab(), free_word(F2, [1]), 0),
                       ValueError, "n must be positive"),
    "bar-extension-target": (lambda: bar_extension(ab(), P("bar:sn:3")), ValueError,
                             "target descriptor must be the bar cover of the domain"),
    "splitting-off-bar": (lambda: quasimorphisms.verify_bar_splitting(s3(), 3),
                          ValueError, "splitting check needs a bar-family element"),
    "additivity-pairs": (lambda: quasimorphisms.verify_witness_additivity(
                             ab(), [SubgroupSpec((free_word(F2, [1]),))], []),
                         ValueError, "one witness pair per factor is required"),
    "quasi-morphism-domain": (lambda: ab()(s3()), DescriptorMismatchError,
                              "count[a b] is defined on free:2, not sn:3"),
    # fcommutator: capacities and bases
    "embed-mixed": (lambda: wreath_environment(S3, 2).embed(s4()),
                    DescriptorMismatchError, "embed expects a base-group element"),
    "rearrange-empty": (lambda: solve_rearrange_id(wreath_environment(S3, 2), []),
                        ValueError, "need at least one base element"),
    "rearrange-mixed": (lambda: solve_rearrange_id(wreath_environment(S3, 2), [s4()]),
                        DescriptorMismatchError, "tuple entries must be base-group elements"),
    "seven-capacity": (lambda: seven_fcommutators(wreath_environment(S3, 1), [(s3(), s3())]),
                       ValueError, "1 pairs need capacity 2, environment has 1"),
    "two-commutator-capacity": (lambda: two_commutator_witness(
                                    wreath_environment(S3, 1), [(s3(), s3())] * 2),
                                ValueError, "2 pairs exceed capacity 1"),
    # a counting quasi-morphism is named by its pattern's literal, in a..z
    "counting-past-z": (lambda: counting_qm(free_word(P("free:30"), [1, -28])), ValueError,
                        "letter -28 has no literal: words are spelt in a..z"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_type_and_message(name):
    call, exc_type, message = REFUSALS[name]
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def test_scl_bounds_without_a_defect_upper_bound_exits_2(capsys):
    assert main(["qm", "scl-bounds", "--pattern", "a b", "--word", "a b A B"]) == 2
    assert capsys.readouterr().err == "error: scl-bounds needs --defect-upper\n"


def test_a_bare_z_in_an_aff_z_literal_is_one_power():
    d = P("aff-z")
    assert from_literal(d, "z z t") == from_literal(d, "z^2 t")
    # past t the bare z counts down, as z^1 does
    assert from_literal(d, "t z") == from_literal(d, "t z^1") == from_literal(d, "z^-1 t")


def test_a_cache_entry_that_is_not_json_is_a_miss_and_is_evicted(tmp_path, monkeypatch):
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path))
    key = cache.cache_key("sn:3", "q_K", ("(1 2)",))
    cache.cache_put(key, {"rows": []})
    path = next(tmp_path.glob("*.json"))
    path.write_text("{not json")
    assert cache.cache_get(key) is None
    assert not path.exists()
