"""Every refusal of bad input: its exception type and its whole message.

One row per ``raise`` for bad input, each reached through the public call
that a user makes; ``bench/cover.py --json`` lists under ``missed`` the
statements no test runs, which is where these rows came from.
"""

from fractions import Fraction

import pytest

from cinorm import (
    DescriptorMismatchError,
    InfiniteGroupError,
    QuasiNormSpec,
    bar_extension,
    check_extremal_domination,
    commutator_sup,
    counting_qm,
    defect,
    displacement_energy,
    fcomm_norm_bound,
    free_word,
    homogenize,
    norm_table_from_payload,
    qk_norm,
    seven_fcommutators,
    support_norm,
    trivial_norm_table,
    two_commutator_witness,
    verify_master_inequalities,
    verify_quasinorm,
)
from cinorm import cache, elements, enumeration, kernel, norms, quasimorphisms
from cinorm.cli import main
from cinorm.descriptors import GroupDescriptor, parse_descriptor as P
from cinorm.enumeration import SubgroupSpec, subgroups_commute
from cinorm.fcommutator import solve_rearrange_id, wreath_environment
from cinorm.literals import from_literal

S3, S4, F2 = P("sn:3"), P("sn:4"), P("free:2")
WREATH = P("wreath:sn:2:zn:2")


def s3(text="(1 2)"):
    return from_literal(S3, text)


def s4(text="(1 2)"):
    return from_literal(S4, text)


def ab():
    return counting_qm(free_word(F2, (1, 2)))


def swapped(d, other):
    """The read trivial table of ``d`` with ``other``, an element of another
    group, as the key in place of the identity: it still has |G| entries."""
    one = elements.identity(d)
    values = {other if k == one else k: v for k, v in trivial_norm_table(d).values.items()}
    return norms.NormTable(d, values, norms.NormTableMeta("trivial"))


def s3_with_a3():
    return swapped(S3, from_literal(P("an:3"), "(1 2 3)"))


def s3_quasinorm():
    return QuasiNormSpec(S3, Fraction(0), Fraction(0), table=dict(trivial_norm_table(S3).values))


def table_rows(*rows):
    return {"group": "sn:3", "norm": "t", "values": [["()", "0/1"], *rows],
            "meta": {"diameter": "1/1", "fine": False, "discrete": True, "generator_set": []}}


def table_edit(key, value=None, meta=False):
    """Read :func:`table_rows` with ``key``, a meta field when ``meta``, set
    to ``value``, or dropped when ``value`` is None."""
    payload = table_rows()
    where = payload["meta"] if meta else payload
    if value is None:
        del where[key]
    else:
        where[key] = value
    return norm_table_from_payload(payload)


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
    # a number in a literal is read from ASCII digits only
    "cycle-arabic-digit": (lambda: from_literal(S3, "(1 \u0662)"),
                           ValueError, "bad cycle notation '(1 \u0662)'"),
    "cycle-arabic-zero": (lambda: from_literal(P("sn:12"), "(1 1\u0660)"),
                          ValueError, "bad cycle notation '(1 1\u0660)'"),
    "aff-z-arabic-power": (lambda: from_literal(P("aff-z"), "z^\u0663 t"),
                           ValueError, "bad aff-z token 'z^\u0663'"),
    "aff-z-underscore-power": (lambda: from_literal(P("aff-z"), "z^1_0"),
                               ValueError, "bad aff-z token 'z^1_0'"),
    "aff-z-letter-power": (lambda: from_literal(P("aff-z"), "z^x"),
                           ValueError, "bad aff-z token 'z^x'"),
    "aff-z-decimal-power": (lambda: from_literal(P("aff-z"), "z^1.5"),
                            ValueError, "bad aff-z token 'z^1.5'"),
    "wreath-arabic-index": (lambda: from_literal(WREATH, "{\u0663:(1 2)}"),
                            ValueError, "bad wreath literal '{\u0663:(1 2)}'"),
    "wreath-arabic-shift": (lambda: from_literal(WREATH, "{0:(1 2)}s^\u0663"),
                            ValueError, "bad wreath literal '{0:(1 2)}s^\u0663'"),
    "wreath-underscore-index": (lambda: from_literal(WREATH, "{1_0:(1 2)}"),
                                ValueError, "bad wreath literal '{1_0:(1 2)}'"),
    "wreath-letter-index": (lambda: from_literal(WREATH, "{x:(1 2)}"),
                            ValueError, "bad wreath literal '{x:(1 2)}'"),
    "wreath-empty-index": (lambda: from_literal(WREATH, "{ :(1 2)}"),
                           ValueError, "bad wreath literal '{ :(1 2)}'"),
    "matrix-not-json": (lambda: from_literal(P("slp:2:5"), "[[1,1],[0,1]"), ValueError,
                        "bad matrix literal '[[1,1],[0,1]': not 2 lists of 2 integers"),
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
    # a table with |G| entries, one of them an element of another group
    "energy-foreign-key": (lambda: displacement_energy(S3, SubgroupSpec((s3(),)), 1, s3_with_a3()),
                           DescriptorMismatchError,
                           "Element(an:3, (1, 2, 0)) is not an element of sn:3"),
    "master-foreign-key": (lambda: verify_master_inequalities(S3, SubgroupSpec((s3(),)), 1,
                                                              s3_with_a3()),
                           DescriptorMismatchError,
                           "Element(an:3, (1, 2, 0)) is not an element of sn:3"),
    "domination-foreign-key": (lambda: check_extremal_domination(s3_with_a3(), [s3()]),
                               DescriptorMismatchError,
                               "Element(an:3, (1, 2, 0)) is not an element of sn:3"),
    # the identity of wreath:sn:2:zn:3 has the same payload as WREATH's
    "fcomm-foreign-key": (lambda: fcomm_norm_bound(
                              seven_fcommutators(wreath_environment(P("sn:2"), 1), []),
                              wreath_environment(P("sn:2"), 1),
                              swapped(WREATH, elements.identity(P("wreath:sn:2:zn:3")))),
                          DescriptorMismatchError,
                          "Element(wreath:sn:2:zn:3, ((), 0)) is not an element of "
                          "wreath:sn:2:zn:2"),
    # quasi-norms: a pair of another group, and an element without a value
    "quasinorm-foreign-pair": (lambda: verify_quasinorm(s3_quasinorm(), [(s3(), s4())]),
                               DescriptorMismatchError, "the quasi-norm is on sn:3, not sn:4"),
    "quasinorm-missing-value": (lambda: QuasiNormSpec(S3, Fraction(0), Fraction(0), table={}
                                                      ).value(s3()),
                                ValueError, "the quasi-norm table has no value at (1 2)"),
    # serialize: rows whose literal or value is not a string
    "table-row-literal-list": (lambda: norm_table_from_payload(table_rows([["x"], "1/1"])),
                               ValueError, "row 1 is not a [literal, value] pair"),
    "table-row-value-list": (lambda: norm_table_from_payload(table_rows(["(1 2)", ["1"]])),
                             ValueError, "row 1 is not a [literal, value] pair"),
    "table-row-literal-int": (lambda: norm_table_from_payload(table_rows([5, "1/1"])),
                              ValueError, "row 1 is not a [literal, value] pair"),
    "table-row-value-int": (lambda: norm_table_from_payload(table_rows(["(1 2)", 7])),
                            ValueError, "row 1 is not a [literal, value] pair"),
    # serialize: a key or meta field that is missing or of the wrong type
    **{f"table-no-{key}": (lambda key=key: table_edit(key), ValueError,
                           f"the table payload has no {key!r}")
       for key in ("group", "norm", "values", "meta")},
    **{f"table-meta-no-{key}": (lambda key=key: table_edit(key, meta=True), ValueError,
                                f"the table payload's meta has no {key!r}")
       for key in ("diameter", "fine", "discrete", "generator_set")},
    "table-group-int": (lambda: table_edit("group", 5), ValueError,
                        "the table payload has a 'group' that is not a str: 5"),
    "table-meta-list": (lambda: table_edit("meta", []), ValueError,
                        "the table payload has a 'meta' that is not a dict: []"),
    "table-diameter-int": (lambda: table_edit("diameter", 5, meta=True), ValueError,
                           "the table payload's meta has a 'diameter' that is not a str: 5"),
    "table-generator-set-int": (lambda: table_edit("generator_set", 5, meta=True), ValueError,
                                "the table payload's meta has a 'generator_set' that is not "
                                "a list: 5"),
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


def test_a_sign_is_read_where_int_read_one():
    d = P("aff-z")
    assert from_literal(d, "z^+3 t") == from_literal(d, "z^3 t")
    assert from_literal(WREATH, "{+1:(1 2)}") == from_literal(WREATH, "{1:(1 2)}")
    assert from_literal(WREATH, "{ -1 :(1 2)}s^-1") == from_literal(WREATH, "{1:(1 2)}s^1")


def test_a_cache_entry_that_is_not_json_is_a_miss_and_is_evicted(tmp_path, monkeypatch):
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path))
    key = cache.cache_key("sn:3", "q_K", ("(1 2)",))
    cache.cache_put(key, {"rows": []})
    path = next(tmp_path.glob("*.json"))
    path.write_text("{not json")
    assert cache.cache_get(key) is None
    assert not path.exists()
