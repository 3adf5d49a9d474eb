"""A/B runs of the benchmark: a base revision against the working tree.

    python3 bench/ab.py --base HEAD --workload scans --seeds 1 2 --pairs 10

Run from the repository root.  It makes two copies with ``git archive``: the
base revision, and the working tree (tracked and untracked files that git
does not ignore, written to a throwaway index).  Both are compiled alike
with ``compileall``, so neither pays for writing its bytecode on the first
import.  Then, for each workload and seed, it runs ``perfbench/run.py
--trace 0`` in each copy ``--pairs`` times, one process at a time,
alternating which side runs first.  For each end-to-end metric of
``BENCHMARK.json`` (read, never written) it prints each side's median and
quartiles, the pairs the change wins by the metric's ``better``, and
whether the medians differ by more than the base's interquartile range.
It prints the same row for two figures of the run's ``notes`` line: the raw
loop seconds (``raw.loop_wall_s``), before any scaling to reference speed,
and the machine-speed factor that scaled them (``median_speed_factor``,
higher when the machine ran faster), so that a move in ``jobs_per_s`` can
be told from a move in the machine's speed.  For each job kind it also prints each side's median of the run's
``run_s_per_kind`` note, so that a gain can be traced to the kinds that
moved.  Before the runs it prints each side's line count of the ``*.py``
files under ``src/`` and ``tests/``, the code lines of ``src/`` (without
docstrings, comments and blank lines), and the differences, then the code
lines of each module of ``src/`` whose count differs.  ``--pairs 0``
prints the line counts alone.  ``--json FILE`` also writes every run's
values, the line counts and the summary.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The figures of a run's ``notes`` line summarized beside the metrics.
NOTES = [{"name": "raw.loop_wall_s", "better": "lower"},
         {"name": "median_speed_factor", "better": "higher"}]


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _working_tree() -> str:
    """A tree object of the working tree, built in a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        return _git("write-tree", env=env)


def checkout(treeish: str, dest: Path) -> Path:
    """``git archive`` of ``treeish`` unpacked into ``dest``, compiled."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", treeish], cwd=ROOT, stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=dest, check=True)
    return dest


#: Tokens that hold no code: comments, line breaks and indentation.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: bytes) -> int:
    """The lines of Python ``source`` that hold code: every line that a
    token of a statement spans, except statements that are strings alone
    (docstrings), and so without comments and blank lines."""
    lines, statement = set(), []
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def module_code_lines(tree: Path) -> dict[str, int]:
    """The :func:`code_lines` of each ``*.py`` file under ``src/`` of
    ``tree``, by its path there (``cinorm/descriptors.py``)."""
    src = tree / "src"
    return {p.relative_to(src).as_posix(): code_lines(p.read_bytes()) for p in src.rglob("*.py")}


def line_counts(tree: Path) -> dict[str, int]:
    """The lines of the ``*.py`` files under ``src/`` and under ``tests/`` of
    ``tree``, counted as ``wc -l`` does, and under ``"src code"`` the
    :func:`code_lines` of those under ``src/``."""
    counts = {part: sum(p.read_bytes().count(b"\n") for p in (tree / part).rglob("*.py"))
              for part in ("src", "tests")}
    counts["src code"] = sum(module_code_lines(tree).values())
    return counts


def format_line_counts(base: dict[str, int], change: dict[str, int]) -> str:
    w = max([8] + [len(part) for part in base])
    lines = [f"{'lines':<{w}} {'base':>7} {'change':>7} {'diff':>6}"]
    for part in base:
        lines.append(f"{part:<{w}} {base[part]:>7} {change[part]:>7} "
                     f"{change[part] - base[part]:>+6}")
    return "\n".join(lines)


def changed_modules(base: dict[str, int], change: dict[str, int]) -> tuple[dict, dict]:
    """The entries of two :func:`module_code_lines` whose counts differ,
    sorted by path, each side with 0 for a module it lacks."""
    paths = sorted(p for p in base.keys() | change.keys() if base.get(p) != change.get(p))
    return ({p: base.get(p, 0) for p in paths}, {p: change.get(p, 0) for p in paths})


def parse_run(out: str) -> dict:
    """The end-to-end metric values in the output of one ``perfbench/run.py
    --trace 0`` run (its last line), and from its ``notes`` line the figures
    of :data:`NOTES` and, under ``"run_s_per_kind"``, the seconds that each
    job kind took."""
    lines = out.strip().splitlines()
    run = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        if line.startswith("notes "):
            notes = json.loads(line[len("notes "):])
            run["run_s_per_kind"] = notes["run_s_per_kind"]
            run["raw.loop_wall_s"] = notes["raw"]["loop_wall_s"]
            run["median_speed_factor"] = notes["median_speed_factor"]
    return run


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """:func:`parse_run` of one ``perfbench/run.py`` run."""
    return parse_run(subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric of ``metrics`` (``BENCHMARK.json``'s end-to-end
    entries) over ``(base, change)`` value pairs: each side's quartiles, the
    pairs in which the change is strictly better, and whether the medians
    differ by more than the base's interquartile range."""
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        bq, cq = _quartiles(base), _quartiles(change)
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        rows.append({"name": name, "better": m["better"], "base": bq, "change": cq,
                     "wins": wins, "pairs": len(pairs),
                     "beyond_iqr": abs(cq[1] - bq[1]) > bq[2] - bq[0]})
    return rows


def format_rows(rows: list[dict]) -> str:
    w = max([12] + [len(r["name"]) for r in rows])
    lines = [f"{'metric':<{w}} {'base q1/med/q3':>26} {'change q1/med/q3':>26} "
             f"{'wins':>6} gap>IQR"]
    for r in rows:
        b = "/".join(f"{x:.4g}" for x in r["base"])
        c = "/".join(f"{x:.4g}" for x in r["change"])
        lines.append(f"{r['name']:<{w}} {b:>26} {c:>26} "
                     f"{r['wins']:>3}/{r['pairs']:<2} {'yes' if r['beyond_iqr'] else 'no'}")
    return "\n".join(lines)


def kind_medians(pairs: list[tuple[dict, dict]]) -> list[tuple[str, float, float]]:
    """``(kind, base, change)`` for each job kind met in ``pairs``: the
    median over the pairs of each side's ``run_s_per_kind`` (0 where a run
    has no job of that kind)."""
    kinds = sorted({k for pair in pairs for run in pair for k in run.get("run_s_per_kind", {})})
    return [(k, *(statistics.median(pair[side].get("run_s_per_kind", {}).get(k, 0.0)
                                    for pair in pairs) for side in (0, 1)))
            for k in kinds]


def format_kinds(rows: list[tuple[str, float, float]]) -> str:
    w = max([len("job kind")] + [len(kind) for kind, _, _ in rows])
    lines = [f"{'job kind':<{w}} {'base s':>9} {'change s':>9} {'ratio':>6}"]
    for kind, base, change in rows:
        ratio = f"{change / base:.3f}" if base else "-"
        lines.append(f"{kind:<{w}} {base:>9.4f} {change:>9.4f} {ratio:>6}")
    return "\n".join(lines)


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="the revision to compare against")
    p.add_argument("--workload", nargs="+", default=["scans"])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--pairs", type=_count, default=10, help="0 prints the line counts alone")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--json", type=Path, help="write every run's values and the summary here")
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    work = Path(tempfile.mkdtemp(prefix="cinorm-ab-"))
    report = []
    try:
        trees = (checkout(args.base, work / "base"), checkout(_working_tree(), work / "change"))
        counts = [line_counts(tree) for tree in trees]
        modules = changed_modules(*map(module_code_lines, trees))
        print(f"{args.base} -> working tree\n{format_line_counts(*counts)}")
        if modules[0]:
            print(f"\nsrc code per module, where it differs\n{format_line_counts(*modules)}")
        sys.stdout.flush()
        for workload in args.workload if args.pairs else []:
            for seed in args.seeds:
                pairs = []
                for i in range(args.pairs):
                    order = (0, 1) if i % 2 == 0 else (1, 0)
                    got = {side: run_once(trees[side], workload, seed, args.seconds)
                           for side in order}
                    pairs.append((got[0], got[1]))
                    print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}",
                          file=sys.stderr, flush=True)
                rows = summarize(pairs, metrics)
                notes = summarize(pairs, NOTES)
                print(f"\n{workload}, seed {seed}, {args.base} -> working tree")
                print(format_rows(rows))
                print("\nraw loop seconds and machine speed (notes)")
                print(format_rows(notes))
                print("\nmedian run seconds per job kind")
                print(format_kinds(kind_medians(pairs)), flush=True)
                report.append({"workload": workload, "seed": seed, "pairs": pairs,
                               "summary": rows, "notes": notes})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.json:
        args.json.write_text(json.dumps({"base": args.base, "lines": counts, "runs": report},
                                        indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
