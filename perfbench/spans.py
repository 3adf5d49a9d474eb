"""Layer access for the benchmark, with optional span tracing.

Every call the benchmark makes into cinorm goes through a ``Layers``
namespace (``L.norms.qk_norm(...)``).  Untraced, the namespace holds the
library functions themselves.  Traced, each function is wrapped so that the
call records a span: name, start, end, parent span and job id.  Spans stay in
memory and are summarised when the run ends.

A traced call into the ``cli`` module also wraps, for its duration, the
library functions the CLI module calls, so the CLI's own time (its self time)
is separated from the library work it triggers.
"""

from __future__ import annotations

import importlib
import random
import statistics
import time
from types import SimpleNamespace

from cinorm import order

MODULES = ("elements", "enumeration", "norms", "displacement", "fcommutator",
           "quasimorphisms", "serialize", "cache", "literals", "cli")

#: The public functions of each module that the benchmark calls.
CALLED = {
    "elements": ("compose", "invert", "commutator_of", "conjugate_of",
                 "identity", "power", "elementary", "wreath_element"),
    "enumeration": ("enumerate_elements", "subgroup_closure"),
    "norms": ("qk_norm", "commutator_length", "verify_norm_axioms",
              "trivial_norm_table", "support_norm_table",
              "coset_extension_qnorm", "quasinorm_to_norm"),
    "displacement": ("displacement_energy", "find_strong_displacer",
                     "disjunction_energy", "packing_number",
                     "verify_master_inequalities", "subgroups_commute"),
    "fcommutator": ("wreath_environment", "seven_fcommutators",
                    "two_commutator_witness", "fcomm_norm_bound"),
    "quasimorphisms": ("counting_qm", "defect", "commutator_sup", "homogenize",
                       "scl_bounds", "bar_extension"),
    "serialize": ("norm_table_payload", "norm_table_to_json",
                  "norm_table_from_payload", "dumps"),
    "cache": ("cache_key", "cache_get", "cache_put"),
    "literals": ("to_literal", "from_literal"),
    "cli": ("main", "run_suite"),
}


def _cli_command(args, kwargs, result) -> str:
    argv = list(args[0])
    if argv[0] == "qm":
        return f"qm-{argv[1]}"
    if argv[0] == "verify":
        return "verify-" + argv[argv.index("--suite") + 1]
    return argv[0]


#: Work counts recorded on a span, computed from the call and its result.
WORK = {
    "norms.qk_norm": lambda a, k, r: len(r.values),
    "norms.commutator_length": lambda a, k, r: order(a[0]),
    "norms.verify_norm_axioms": lambda a, k, r: r.pairs_checked,
    "norms.quasinorm_to_norm": lambda a, k, r: len(r.values) ** 2,
    "displacement.packing_number": lambda a, k, r: order(a[0]),
    "quasimorphisms.defect": lambda a, k, r: r.sample_count,
    "quasimorphisms.commutator_sup": lambda a, k, r: r.sample_count,
    "cache.cache_get": lambda a, k, r: 0 if r is None else 1,
    "cli.main": _cli_command,
}


class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent,
    job, work]``; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.spans[idx][5] = work(args, kwargs, result)
            return result
        return traced

    def wrap_cli(self, name: str, fn):
        """Trace a cli entry point together with the library calls it makes."""
        cli_mod = importlib.import_module("cinorm.cli")
        cache_mod = importlib.import_module("cinorm.cache")
        patches = []
        for mod_name, names in CALLED.items():
            if mod_name == "cli":
                continue
            mod = importlib.import_module(f"cinorm.{mod_name}")
            for fname in names:
                orig = getattr(mod, fname)
                if mod is cache_mod:
                    patches.append((cache_mod, fname, orig, f"{mod_name}.{fname}"))
                elif getattr(cli_mod, fname, None) is orig:
                    patches.append((cli_mod, fname, orig, f"{mod_name}.{fname}"))
        wrapped = [(target, fname, self.wrap(full, orig))
                   for target, fname, orig, full in patches]
        inner = self.wrap(name, fn)

        def traced(*args, **kwargs):
            for target, fname, w in wrapped:
                setattr(target, fname, w)
            try:
                return inner(*args, **kwargs)
            finally:
                for target, fname, orig, _ in patches:
                    setattr(target, fname, orig)
        return traced


def layers(tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace ``L.<module>.<function>`` over the functions in CALLED."""
    out = {}
    for mod_name, names in CALLED.items():
        mod = importlib.import_module(f"cinorm.{mod_name}")
        fns = {}
        for fname in names:
            fn = getattr(mod, fname)
            if tracer is not None:
                full = f"{mod_name}.{fname}"
                fn = tracer.wrap_cli(full, fn) if mod_name == "cli" else tracer.wrap(full, fn)
            fns[fname] = fn
        out[mod_name] = SimpleNamespace(**fns)
    return SimpleNamespace(**out)


def summarize(spans: list[list], wall: float) -> dict:
    """Per-function and per-module figures from the spans of one traced pass.

    ``busy_s`` of a function is the summed duration of its spans; ``busy_s``
    of a module is the summed *self* time of its spans (duration minus the
    time covered by child layer spans), so module shares add up to at most 1.
    """
    is_layer = [s[0].split(".")[0] in CALLED for s in spans]
    child = [0.0] * len(spans)
    covered = 0.0
    for i, s in enumerate(spans):
        if not is_layer[i]:
            continue
        dur = s[2] - s[1]
        p = s[3]
        if p >= 0 and is_layer[p]:
            child[p] += dur
        else:
            covered += dur
    fns: dict[str, dict] = {}
    mods = {m: 0.0 for m in MODULES}
    cli_cmds: dict[str, dict] = {}
    hits = gets = 0
    for i, s in enumerate(spans):
        if not is_layer[i]:
            continue
        name, dur = s[0], s[2] - s[1]
        self_t = dur - child[i]
        f = fns.setdefault(name, {"calls": 0, "busy_s": 0.0, "work": 0})
        f["calls"] += 1
        f["busy_s"] += dur
        if isinstance(s[5], int):
            f["work"] += s[5]
        mods[name.split(".")[0]] += self_t
        if name == "cli.main":
            c = cli_cmds.setdefault(s[5], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            c["calls"] += 1
            c["busy_s"] += dur
            c["self_s"] += self_t
        if name == "cache.cache_get":
            gets += 1
            hits += s[5]
    for f in fns.values():
        f["share"] = f["busy_s"] / wall
    return {"functions": fns, "modules": mods, "cli": cli_cmds,
            "cache_gets": gets, "cache_hits": hits,
            "coverage": covered / wall}


# ---------------------------------------------------------------------------
# element microcalls


#: family label -> (descriptor, word length or size knob of the sampler)
MICRO = {"sn9": ("sn:9", 8), "free2_w64": ("free:2", 64), "slz4": ("slz:4", 8),
         "wreath_sn3_zn3": ("wreath:sn:3:zn:3", 8), "bar_sn5": ("bar:sn:5", 8)}


def _per_call_us(batch, calls: int, repeats: int = 7) -> float:
    """Median over repeats of the time per call, each repeat >= 10 ms."""
    samples = []
    for _ in range(repeats):
        k = 0
        t0 = time.perf_counter()
        while True:
            batch()
            k += 1
            dt = time.perf_counter() - t0
            if dt >= 0.01:
                break
        samples.append(dt / (k * calls) * 1e6)
    return statistics.median(samples)


def microcalls(seed: int) -> tuple[dict, bool]:
    """Microseconds per compose and per invert on 64 seeded elements of each
    family; every element is checked with compose(a, invert(a)) = 1."""
    from cinorm import compose, invert, parse_descriptor, sampling
    out, ok = {}, True
    for fam, (desc, size) in MICRO.items():
        d = parse_descriptor(desc)
        rng = random.Random(f"micro:{seed}:{fam}")
        if d.family == "free":
            elems = [sampling.random_word(d, rng, size) for _ in range(64)]
        else:
            elems = [sampling.random_element(d, rng, size) for _ in range(64)]
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        ok = ok and all(compose(a, invert(a)).is_identity() for a in elems)
        out[f"elements.compose_us.{fam}"] = (
            _per_call_us(lambda: [compose(a, b) for a, b in pairs], len(pairs)), "us")
        out[f"elements.invert_us.{fam}"] = (
            _per_call_us(lambda: [invert(a) for a in elems], len(elems)), "us")
    return out, ok


# ---------------------------------------------------------------------------
# per-layer metrics


#: rate metric -> the function whose recorded work (``WORK``) it divides
#: by that function's busy time
RATES = {
    "norms.verify_norm_axioms.pairs_per_s": "norms.verify_norm_axioms",
    "norms.quasinorm_to_norm.pairs_per_s": "norms.quasinorm_to_norm",
    "norms.qk_norm.elements_per_s": "norms.qk_norm",
    "norms.commutator_length.elements_per_s": "norms.commutator_length",
    "displacement.packing_number.conjugators_per_s": "displacement.packing_number",
    "quasimorphisms.defect.pairs_per_s": "quasimorphisms.defect",
    "quasimorphisms.commutator_sup.pairs_per_s": "quasimorphisms.commutator_sup",
}
CLI_COMMANDS = ("qk", "norm-verify", "packing", "energy", "fcomm",
                "qm-scl-bounds", "verify-seven-fcomm")


def layer_metrics(spans: list[list], wall: float, micro: dict) -> tuple[dict, str]:
    """The per-layer figures of one traced pass, as name -> (value, unit),
    and a printable table of all functions called."""
    s = summarize(spans, wall)
    out = dict(micro)
    for mod, busy in s["modules"].items():
        out[f"{mod}.busy_s"] = (busy, "s")
        out[f"{mod}.share"] = (busy / wall, "1")
    for mod, names in CALLED.items():
        for fname in names:
            f = s["functions"].get(f"{mod}.{fname}", {"calls": 0, "busy_s": 0.0})
            out[f"{mod}.{fname}.busy_s"] = (f["busy_s"], "s")
            out[f"{mod}.{fname}.calls"] = (f["calls"], "count")
    for metric, fn in RATES.items():
        f = s["functions"].get(fn)
        out[metric] = (f["work"] / f["busy_s"] if f else 0.0, "1/s")
    out["cache.hit_ratio"] = (s["cache_hits"] / s["cache_gets"] if s["cache_gets"] else 0.0, "1")
    for cmd in CLI_COMMANDS:
        c = s["cli"].get(cmd, {"busy_s": 0.0, "self_s": 0.0})
        out[f"cli.main.{cmd}.busy_s"] = (c["busy_s"], "s")
        out[f"cli.main.{cmd}.self_s"] = (c["self_s"], "s")
    out["trace.coverage"] = (s["coverage"], "1")
    out["trace.wall_s"] = (wall, "s")

    lines = [f"traced wall {wall:.3f} s; named spans cover {s['coverage']:.1%} of it",
             f"{'function':46} {'calls':>8} {'busy_s':>9} {'share':>7}"]
    for name, f in sorted(s["functions"].items(), key=lambda kv: -kv[1]["busy_s"]):
        lines.append(f"{name:46} {f['calls']:8d} {f['busy_s']:9.4f} {f['share']:7.2%}")
    lines.append(f"{'module (self time)':46} {'':8} {'busy_s':>9} {'share':>7}")
    for mod, busy in sorted(s["modules"].items(), key=lambda kv: -kv[1]):
        lines.append(f"{mod:46} {'':8} {busy:9.4f} {busy / wall:7.2%}")
    for cmd, c in sorted(s["cli"].items()):
        lines.append(f"cli.main {cmd:37} {c['calls']:8d} {c['busy_s']:9.4f} "
                     f"self {c['self_s']:.4f} s")
    return out, "\n".join(lines)
