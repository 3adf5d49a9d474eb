"""The import graph between the modules of the package, read from the source
with ``ast`` (imports inside functions included)."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cinorm"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _imports(path: Path) -> set[str]:
    """The package modules one module imports, at any depth of its body."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("cinorm"):
                base = node.module.split(".")[1:]
            elif node.level == 1:
                base = node.module.split(".") if node.module else []
            else:
                continue
            if base:
                out.add(base[0])
            else:  # from . import x
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("cinorm."))
    return (out & MODULES) - {path.stem}


GRAPH = {p.stem: _imports(p) for p in PACKAGE.glob("*.py")}


def test_module_imports_are_acyclic():
    # the parser sees the imports at all
    assert {"descriptors", "elements", "errors"} <= GRAPH["enumeration"]
    assert {"kernel", "literals"} <= GRAPH["cli"] and "enumeration" in GRAPH["kernel"]
    try:
        tuple(TopologicalSorter(GRAPH).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def test_enumeration_does_not_import_the_kernel():
    assert "kernel" not in GRAPH["enumeration"]


def test_generator_level_modules_do_not_import_the_scans():
    assert "displacement" not in GRAPH["fcommutator"]
    assert "displacement" not in GRAPH["quasimorphisms"]


def test_moved_functions_keep_their_public_names():
    import cinorm
    from cinorm import displacement, enumeration, kernel

    assert cinorm.conjugacy_closure is kernel.conjugacy_closure
    assert cinorm.subgroups_commute is enumeration.subgroups_commute
    assert displacement.subgroups_commute is enumeration.subgroups_commute



def _names(tree: ast.AST) -> set[str]:
    """Every name a piece of source reads or imports, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, (ast.Attribute, ast.alias)):
            out.add(node.attr if isinstance(node, ast.Attribute) else node.name)
    return out


def test_one_store_keeps_per_group_state():
    # per-process caches go through enumeration.kept, so a group's state is
    # kept and evicted together; the parser is the one other cached value
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    cached = {(m, node.name) for m, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any("lru_cache" in _names(dec) for dec in node.decorator_list)}
    assert cached == {("enumeration", "_store"), ("cli", "_build_parser")}
    names = {m: _names(tree) for m, tree in trees.items()}
    assert {m for m in names if "lru_cache" in names[m]} == {"enumeration", "cli"}
    for name in ("_KEPT_ORDER", "_CACHE_SIZE"):
        assert {m for m in names if name in names[m]} == {"enumeration"}


def _sites(tree: ast.AST, match) -> set:
    """The innermost function or class around each node ``match`` accepts,
    ``None`` at module level."""
    out = set()

    def visit(node: ast.AST, owner) -> None:
        if match(node):
            out.add(owner)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)
    visit(tree, None)
    return out


def test_one_owner_keeps_per_descriptor_state():
    # a descriptor is interned, one object shared by every caller: state
    # stored on it past the frozen __setattr__ has one owner per store, the
    # size descriptors stores when it interns the group and the payload
    # record, and only descriptors decides its equality, hash and pickling
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}

    def object_setattr(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object")
    stores = {(m, site) for m, tree in trees.items() for site in _sites(tree, object_setattr)}
    assert stores == {("descriptors", "__call__"), ("elements", "_payload_ops")}

    dunders = {"__eq__", "__hash__", "__reduce__"}
    owners = set()
    for m, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "GroupDescriptor":
                owners |= {(m, f.name) for f in node.body
                           if isinstance(f, ast.FunctionDef) and f.name in dunders}
            elif (isinstance(node, ast.Attribute) and node.attr in dunders
                  and isinstance(node.ctx, ast.Store)):
                owners.add((m, node.attr))
            elif (isinstance(node, ast.Call) and _names(node.func) == {"setattr"}
                  and node.args and "GroupDescriptor" in _names(node.args[0])):
                owners.add((m, "setattr"))
    assert owners == {("descriptors", "__reduce__")}


def test_displacement_forms_no_commutator_element():
    # the inequality verifiers read [f, g] from H's kernel and form the rest
    # on payloads; the witness re-checks conjugate, and form no commutator
    tree = ast.parse((PACKAGE / "displacement.py").read_text())
    assert "commutator_of" not in _names(tree)


def test_only_descriptors_reads_the_stored_size():
    # every other module sizes a group through descriptors' functions, so the
    # guards read one size and write one message
    readers = {p.stem for p in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_size"}
    assert readers == {"descriptors"}


def test_one_generating_set_per_kernel():
    # the table build and the class labelling read the generators of every
    # kernel, whole group or subgroup, from FiniteGroup.generators alone
    tree = ast.parse((PACKAGE / "kernel.py").read_text())

    def reads(node):
        return isinstance(node, ast.Name) and node.id == "group_generators"
    assert _sites(tree, reads) == {"generators"}


def test_only_descriptors_computes_an_order():
    # |G| of a huge group costs seconds of factorial before any guard; every
    # other module sizes a group through descriptors._order_within, finite()
    # or enumeration._checked_order, which read the size stored at intern time
    callers = set()
    for p in PACKAGE.glob("*.py"):
        tree = ast.parse(p.read_text())
        modules, functions = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("descriptors"):
                functions |= {a.asname or a.name for a in node.names if a.name == "order"}
            if isinstance(node, (ast.ImportFrom, ast.Import)):
                modules |= {a.asname or a.name for a in node.names
                            if a.name.split(".")[-1] == "descriptors"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id in functions) or (
                    isinstance(f, ast.Attribute) and f.attr == "order"
                    and isinstance(f.value, ast.Name) and f.value.id in modules):
                callers.add(p.stem)
    assert callers == set()


def test_only_descriptors_settles_a_digit_count():
    # |G| in a refusal is written by descriptors._order_text alone, so the
    # rules that settle its digit count from the stored log live beside it
    rules = {"_digits_settled", "_slack", "_EXACT_DIGITS"}
    writers = set()
    for p in PACKAGE.glob("*.py"):
        tree = ast.parse(p.read_text())
        strings = [node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        if _names(tree) & rules or any("digits and" in x for x in strings):
            writers.add(p.stem)
    assert writers == {"descriptors"}


def test_only_norms_reads_or_drops_a_tables_rule():
    # a whole-group table holds the rule it tabulates until its values are
    # read; norms alone turns a norm into values (payload_value_fn) and a
    # floor (_floor), and refuses it, so one module decides how a norm is read
    private = {"_rule", "_rule_of", "_refuse_partial_table"}
    namers, asks, names = set(), set(), {}
    for p in PACKAGE.glob("*.py"):
        tree = ast.parse(p.read_text())
        names[p.stem] = _names(tree)
        strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        if private & (names[p.stem] | strings):
            namers.add(p.stem)
        for node in ast.walk(tree):  # `x is support_norm` or `x is trivial_norm`
            if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Is) and \
                    getattr(node.comparators[0], "id", None) in ("support_norm", "trivial_norm"):
                asks.add(p.stem)
    assert namers == {"norms"}
    assert asks == {"norms"}
    for stem in ("displacement", "fcommutator"):
        assert "payload_value_fn" in names[stem]
        assert not names[stem] & {"NormTable", "support_norm", "trivial_norm"}, stem
    assert not any("norm_value_fn" in n for n in names.values())


def test_only_sampling_draws_random_bits():
    # every seeded word and element comes from one stream: a second reader
    # of getrandbits would fork it, and seeded reports would drift apart
    readers = {p.stem for p in PACKAGE.glob("*.py")
               if "getrandbits" in _names(ast.parse(p.read_text()))}
    assert readers == {"sampling"}
