#!/usr/bin/env python3
"""A/B two commits on the repository benchmark (perfbench) with interleaved pairs.

Run from anywhere inside a checkout:

    python3 scripts/ab.py BASE CHANGE --workload individual --seed 5 --pairs 10
    python3 scripts/ab.py HEAD~1 HEAD --workload paper reduced --seed 0 1000 --seconds 6
    python3 scripts/ab.py --selftest     # checks the verdicts on canned samples

Each side is checked out with `git worktree add --detach` under --workdir and
its perfbench is built into its own CARGO_TARGET_DIR there; both are reused by
the next run (remove them with `git worktree remove --force DIR`).  For every
workload and seed the script then runs --pairs pairs of `perfbench/run.py`
runs, alternating which side runs first, so drift of the host hits both
sides alike.  A run whose provenance says "host_perturbed" is skipped with
its whole pair, reported, and replaced by a fresh pair, up to 2 x --pairs
pairs in all.  When fewer than MIN_PAIRS pairs are kept, the workload and
seed end with an explicit "no verdict" line.

Per metric it prints the BASE and CHANGE medians, the relative change, the
interquartile range of BASE's runs and how many pairs CHANGE won.  Verdicts:

  claim met    CHANGE won at least 9 of every 10 kept pairs (and at least 10
               pairs were kept) and the medians differ, in CHANGE's favour, by
               more than BASE's IQR;
  REGRESSION   CHANGE's median is worse than BASE's by more than the metric's
               bound in BENCHMARK.json (end-to-end metrics only);
  FAILED       a run reported failed evaluations or exited non-zero.

The exit code is 1 when any REGRESSION or FAILED verdict is printed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def iqr(values):
    return quantile(values, 0.75) - quantile(values, 0.25)


def summarize(pairs, metrics):
    """Verdicts for one workload and seed.

    `pairs` is a list of (base_run, change_run); a run is a dict with
    "metrics" ({name: value}), "failed" (int) and "perturbed" (bool).
    `metrics` lists {"name", "better", "bound" (optional)}.  Returns
    (rows, skipped, failed): one row per metric, the number of pairs skipped
    as perturbed and the number of runs that failed.
    """
    kept = [(b, c) for b, c in pairs if not b["perturbed"] and not c["perturbed"]]
    skipped = len(pairs) - len(kept)
    failed = sum(1 for b, c in pairs for run in (b, c) if run["failed"])
    rows = []
    for m in metrics:
        name = m["name"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        base = [b["metrics"][name] for b, _ in kept if name in b["metrics"]]
        change = [c["metrics"][name] for _, c in kept if name in c["metrics"]]
        if not base or len(base) != len(change):
            continue
        base_median = median(base)
        change_median = median(change)
        spread = iqr(base)
        wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
        gain = sign * (base_median - change_median)  # > 0: CHANGE is better
        rel = (change_median - base_median) / base_median if base_median else 0.0
        claim = (len(kept) >= MIN_PAIRS and wins >= WIN_SHARE * len(kept) and gain > spread)
        bound = m.get("bound")
        regression = (bound is not None and base_median > 0
                      and -gain / base_median > bound)
        rows.append({"metric": name, "base": base_median, "change": change_median,
                     "rel": rel, "base_iqr": spread, "wins": wins, "pairs": len(kept),
                     "claim": claim, "regression": regression})
    return rows, skipped, failed


def collect_pairs(run_pair, wanted):
    """Runs pairs until `wanted` unperturbed ones are kept, replacing every
    perturbed pair, with at most 2 x `wanted` pairs run.  `run_pair(i)`
    runs attempt i and returns (base_run, change_run).  Returns every pair
    run, perturbed ones included: summarize() drops those."""
    pairs = []
    kept = 0
    while kept < wanted and len(pairs) < 2 * wanted:
        base, change = run_pair(len(pairs))
        pairs.append((base, change))
        if not base["perturbed"] and not change["perturbed"]:
            kept += 1
    return pairs


def format_rows(title, rows, skipped, failed, run):
    """The report of one workload and seed; `run` counts the pairs run."""
    lines = [title]
    for r in rows:
        flags = []
        if r["claim"]:
            flags.append("claim met")
        if r["regression"]:
            flags.append("REGRESSION")
        lines.append(f"  {r['metric']:<33} {r['base']:>11.5g} -> {r['change']:<11.5g} "
                     f"{r['rel']:+7.1%}  base IQR {r['base_iqr']:<9.3g} "
                     f"wins {r['wins']}/{r['pairs']}  {' '.join(flags)}".rstrip())
    if skipped:
        lines.append(f"  skipped {skipped} pair(s): host_perturbed")
    if run - skipped < MIN_PAIRS:
        lines.append(f"  no verdict: {run - skipped} of {run} pairs kept, {MIN_PAIRS} needed")
    if failed:
        lines.append(f"  FAILED: {failed} run(s) reported failures")
    return "\n".join(lines)


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(repo, rev, where):
    """A detached worktree of `rev` at `where`, reused when already there."""
    commit = git(repo, "rev-parse", "--verify", rev + "^{commit}")
    if where.exists():
        if git(where, "rev-parse", "HEAD") != commit:
            sys.exit(f"ab: {where} holds another commit; remove it or pick another --workdir")
    else:
        git(repo, "worktree", "add", "--detach", str(where), commit)
    return commit


def build(tree, target_dir):
    """Builds the side's perfbench the way perfbench/run.py does, so the
    first measured run does not pay for it."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    log = target_dir.parent / (target_dir.name + ".log")
    target_dir.mkdir(parents=True, exist_ok=True)
    with log.open("w") as sink:
        for step in (["cmake", "-S", str(tree / "perfbench"), "-B", str(target_dir),
                      *generator, "-DCMAKE_BUILD_TYPE=Release"],
                     ["cmake", "--build", str(target_dir), "--target", "arcade_perfbench",
                      "-j", str(len(os.sched_getaffinity(0)))]):
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sys.exit(f"ab: build of {tree} failed; see {log}")


def run_once(tree, target_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, env=env, capture_output=True, text=True)
    perturbed = False
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("# provenance "):
            perturbed = bool(json.loads(line[len("# provenance "):]).get("host_perturbed"))
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        sys.stderr.write(proc.stderr)
        return {"metrics": {}, "failed": 1, "perturbed": perturbed}
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"] + (proc.returncode != 0), "perturbed": perturbed}


def selftest():
    """The verdicts on canned samples; builds and runs nothing."""
    metrics = [{"name": "setup_s", "better": "lower", "bound": 0.25},
               {"name": "rate", "better": "higher"}]

    def run(setup, rate, perturbed=False, failed=0):
        return {"metrics": {"setup_s": setup, "rate": rate}, "failed": failed,
                "perturbed": perturbed}

    def rows_of(pairs):
        rows, skipped, failed = summarize(pairs, metrics)
        return {r["metric"]: r for r in rows}, skipped, failed

    base = [0.20, 0.21, 0.19, 0.22, 0.20, 0.21, 0.20, 0.19, 0.23, 0.20]
    checks = []
    # A clear gain on every pair: claim met, no regression.
    rows, skipped, failed = rows_of([(run(b, 1.0), run(b - 0.04, 1.1)) for b in base])
    checks.append(("gain claimed", rows["setup_s"]["claim"] and rows["rate"]["claim"]))
    checks.append(("gain not a regression", not rows["setup_s"]["regression"]))
    # Wins 8 of 10: not claimed.
    pairs = [(run(b, 1.0), run(b - 0.04 if i < 8 else b + 0.01, 1.0)) for i, b in enumerate(base)]
    rows, _, _ = rows_of(pairs)
    checks.append(("8/10 wins not claimed", not rows["setup_s"]["claim"]))
    # Wins every pair by less than the IQR: not claimed.
    rows, _, _ = rows_of([(run(b, 1.0), run(b - 0.001, 1.0)) for b in base])
    checks.append(("gap inside IQR not claimed",
                   rows["setup_s"]["wins"] == 10 and not rows["setup_s"]["claim"]))
    # 30% slower: a regression past the 0.25 bound; 20% slower is not.
    rows, _, _ = rows_of([(run(b, 1.0), run(b * 1.3, 1.0)) for b in base])
    checks.append(("30% slower is a regression", rows["setup_s"]["regression"]))
    rows, _, _ = rows_of([(run(b, 1.0), run(b * 1.2, 1.0)) for b in base])
    checks.append(("20% slower is inside the bound", not rows["setup_s"]["regression"]))
    # No bound, no regression verdict, however bad.
    rows, _, _ = rows_of([(run(b, 1.0), run(b, 0.1)) for b in base])
    checks.append(("unbounded metric never regresses", not rows["rate"]["regression"]))
    # Perturbed pairs are dropped and counted; too few kept pairs: no claim.
    pairs = [(run(b, 1.0, perturbed=i < 2), run(b - 0.04, 1.1)) for i, b in enumerate(base)]
    rows, skipped, _ = rows_of(pairs)
    checks.append(("perturbed pairs skipped", skipped == 2 and rows["setup_s"]["pairs"] == 8))
    checks.append(("8 kept pairs cannot claim", not rows["setup_s"]["claim"]))
    # A perturbed outlier does not reach the medians.
    pairs = [(run(b, 1.0), run(b - 0.04, 1.1)) for b in base]
    pairs.append((run(0.2, 1.0), run(9.0, 1.1, perturbed=True)))
    rows, skipped, _ = rows_of(pairs)
    checks.append(("perturbed outlier ignored", skipped == 1 and rows["setup_s"]["claim"]))
    # Failed runs are counted.
    pairs = [(run(b, 1.0), run(b, 1.0, failed=1 if i == 3 else 0)) for i, b in enumerate(base)]
    _, _, failed = rows_of(pairs)
    checks.append(("failed runs counted", failed == 1))

    def canned(perturbed_attempts, total=20):
        """run_pair over canned attempts: base[i % 10] vs a clear gain, the
        listed attempts perturbed (with an outlier that must not count)."""
        def run_pair(i):
            if i >= total:
                raise AssertionError("more attempts than the cap")
            b = base[i % len(base)]
            if i in perturbed_attempts:
                return run(b, 1.0), run(9.0, 1.1, perturbed=True)
            return run(b, 1.0), run(b - 0.04, 1.1)
        return run_pair

    # Perturbed pairs are replaced until --pairs pairs are kept.
    pairs = collect_pairs(canned({1, 4}), 10)
    rows, skipped, _ = rows_of(pairs)
    checks.append(("perturbed pairs replaced", len(pairs) == 12 and skipped == 2
                   and rows["setup_s"]["pairs"] == 10 and rows["setup_s"]["claim"]))
    checks.append(("replaced run has a verdict",
                   "no verdict" not in format_rows("t", list(rows.values()), skipped, 0,
                                                   len(pairs))))
    # A steady steal runs out of attempts: capped at 2 x pairs, no verdict.
    pairs = collect_pairs(canned(set(range(0, 20, 2)) | {3, 5}), 10)
    rows, skipped, _ = rows_of(pairs)
    report = format_rows("t", list(rows.values()), skipped, 0, len(pairs))
    checks.append(("attempts capped at 2 x pairs", len(pairs) == 20 and skipped == 12))
    checks.append(("too few kept pairs: no verdict",
                   "no verdict: 8 of 20 pairs kept, 10 needed" in report
                   and not rows["setup_s"]["claim"]))
    checks.append(("perturbed outliers never reach a median",
                   rows["setup_s"]["change"] < 0.2))

    bad = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"# selftest: {'ok  ' if ok else 'FAIL'} {name}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", help="parent commit (any git revision)")
    parser.add_argument("change", nargs="?", help="changed commit (any git revision)")
    parser.add_argument("--workload", nargs="+", default=["individual"])
    parser.add_argument("--seed", type=int, nargs="+", default=[5])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the worktrees and builds go (default: .ab/ in the repo)")
    parser.add_argument("--json", type=Path, default=None, help="also write every run here")
    parser.add_argument("--selftest", action="store_true",
                        help="check the verdicts on canned samples, build nothing")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.base or not args.change:
        parser.error("BASE and CHANGE are required")

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    workdir = (args.workdir or repo / ".ab").resolve()
    sides = {}
    for label, rev in (("base", args.base), ("change", args.change)):
        tree = workdir / label
        commit = checkout(repo, rev, tree)
        target = workdir / f"{label}-build"
        build(tree, target)
        sides[label] = (tree, target)
        print(f"# {label}: {rev} = {commit[:12]}", flush=True)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = []
    worst = 0
    for workload in args.workload:
        for seed in args.seed:
            def run_pair(i):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                runs = {}
                for label in order:
                    runs[label] = run_once(*sides[label], workload, seed, args.seconds,
                                           args.trace)
                perturbed = runs["base"]["perturbed"] or runs["change"]["perturbed"]
                print(f"# {workload} seed {seed} pair {i + 1} done"
                      f"{' (host_perturbed: replaced)' if perturbed else ''}", flush=True)
                return runs["base"], runs["change"]

            pairs = collect_pairs(run_pair, args.pairs)
            rows, skipped, failed = summarize(pairs, metrics)
            print(format_rows(f"{workload} seed {seed}", rows, skipped, failed, len(pairs)),
                  flush=True)
            record.append({"workload": workload, "seed": seed, "pairs": pairs, "rows": rows})
            if failed or any(r["regression"] for r in rows):
                worst = 1
    if args.json:
        args.json.write_text(json.dumps(record, indent=1))
    return worst


if __name__ == "__main__":
    sys.exit(main())
