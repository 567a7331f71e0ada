#!/usr/bin/env python3
"""Repository benchmark: cold / set-up / solve time of the Arcade evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --list        # workloads, metrics, units, targets
    python3 perfbench/run.py --selftest    # a planted wrong value must be caught

The script builds perfbench/ (Release, into $CARGO_TARGET_DIR or
.bench_build), runs the independent oracle in its own process, then runs the
measuring program for --seconds.  Every cell is compared with the
stored expected output of the seed (perfbench/expected/, when shipped) and
with the oracle.  Provenance and every metric (name, value, unit) are printed
as '#' lines; the last line is the JSON result.  Any failure exits non-zero.
A run during which the host stole more than STEAL_WARN of the CPU time is
flagged in the provenance and on stderr: its timings are not comparable.
"""

import argparse
import hashlib
import json
import lzma
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
LAYERS = BENCH_DIR / "layers.json"
EXPECTED_DIR = BENCH_DIR / "expected"
# Seeds with stored expected outputs.  HELD_OUT is not used while tuning a
# change; a claim made on seeds 0-10 should be confirmed on it.
SHIPPED_SEEDS = list(range(11))
HELD_OUT_SEED = 1000
RUN_LIMIT_S = 175.0
# Share of the machine's CPU time taken by the hypervisor above which a run's
# timings are flagged as perturbed.
STEAL_WARN = 0.05


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(nproc):
    """Configures (once) and builds arcade_perfbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {BENCH_DIR.name}/ (run from a full checkout)", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        cache.unlink()  # configured for another checkout
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "arcade_perfbench",
                  "-j", str(nproc)])
    with log.open("w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log}", 2)
    return out / "arcade_perfbench"


def host_facts():
    cpu = "unknown"
    flags = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu == "unknown":
                cpu = value.strip()
            if key.strip() == "flags" and not flags:
                flags = value
    except OSError:
        pass
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "avx2": "avx2" in flags.split(), "l3": l3}


def source_facts():
    """Git commit when the checkout is a repository, and a digest of the
    sources the benchmark builds (the commit's stand-in elsewhere)."""
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "bench" / "bench_common.hpp"]
    files += sorted((ROOT / "src").rglob("*")) + sorted((BENCH_DIR / "src").rglob("*"))
    files.append(BENCH_DIR / "CMakeLists.txt")
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def child_env():
    """The environment of the measuring program: no ARCADE_* mode overrides
    (runs use the default modes) and no allocator tuning, so the program
    runs the way a user runs it."""
    drop = ("ARCADE_", "GLIBC_TUNABLES", "MALLOC_")
    env = {k: v for k, v in os.environ.items() if not k.startswith(drop)}
    removed = sorted(k for k in os.environ if k.startswith(drop))
    return env, removed


def expected_path(seed):
    """The grid workloads evaluate the same cells on three encodings whose
    values agree far inside the gate's tolerance: one file per seed."""
    return EXPECTED_DIR / f"grid-seed{seed}.txt.xz"


def plant_wrong_value(path):
    """Shifts the first value of the first line by 0.1%; returns its key."""
    lines = path.read_text().splitlines()
    key, _, values = lines[0].partition("\t")
    numbers = values.split(" ")
    numbers[0] = repr(float(numbers[0]) * 1.001 + 1e-6)
    lines[0] = key + "\t" + " ".join(numbers)
    path.write_text("\n".join(lines) + "\n")
    return key


def run_program(cmd, env, deadline, what):
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        fail(f"no time left for {what}")
    try:
        return subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{what} exceeded the {RUN_LIMIT_S:.0f} s limit")


def measure(args, spec, *, plant=False, dump_values=None):
    """One benchmark run; returns (result dict, exit code)."""
    host = host_facts()
    binary = build(host["nproc"])
    # The limit covers the oracle and the measurement; the first build in a
    # checkout may take longer.
    deadline = time.monotonic() + RUN_LIMIT_S
    out = build_dir() / "out"
    out.mkdir(exist_ok=True)
    env, removed = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(host["nproc"])]

    oracle = out / f"oracle-{args.workload}-seed{args.seed}.txt"
    proc = run_program([str(binary), *common, "--oracle", str(oracle)], env, deadline, "oracle")
    if proc.returncode != 0:
        fail(f"oracle failed with exit code {proc.returncode}")

    cmd = [str(binary), *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--oracle-values", str(oracle)]
    stored = expected_path(args.seed)
    planted = None
    if stored.is_file():
        expected = out / f"expected-{args.workload}-seed{args.seed}.txt"
        expected.write_bytes(lzma.decompress(stored.read_bytes()))
        if plant:
            planted = plant_wrong_value(expected)
        cmd += ["--expected", str(expected)]
    elif plant:
        fail(f"no stored expected output for seed {args.seed} to plant a value in")
    if dump_values:
        cmd += ["--dump-values", str(dump_values)]

    ticks_before = cpu_ticks()
    proc = run_program(cmd, env, deadline, "measuring run")
    ticks_after = cpu_ticks()
    # Share of the machine's CPU time the hypervisor took away during the
    # run: wall-time metrics grow with it, so a perturbed run can be told.
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
    try:
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"measuring run printed no result (exit code {proc.returncode})")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            fail(f"measuring run did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = proc.returncode == 0 and raw["failed"] == 0 and raw["misses"] == 0
    perturbed = steal is not None and steal > STEAL_WARN
    if perturbed:
        print(f"perfbench: warning: the host stole {steal:.1%} of the CPU time during this "
              "run; its timings are perturbed and should not be compared", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host,
        "build": {"build_type": raw["build_type"], **source_facts()},
        "threads": raw["threads"], "hardware_concurrency": raw["hardware_concurrency"],
        "modes": raw["modes"], "env_removed": removed,
        "expected_output": stored.name if stored.is_file() else None,
        "tolerance": raw["tolerance"], "planted": planted, "host_steal_frac": steal,
        "host_perturbed": perturbed,
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    attempted = max(1, int(raw["attempted"]))
    print(f"# failed_frac = {raw['failed'] / attempted:.6g} ratio "
          f"({raw['failed']} of {attempted} evaluations)")
    result = {"correct": correct, "attempted": attempted, "failed": int(raw["failed"]),
              "metrics": metrics}
    return result, (0 if correct else 1)


def list_benchmark(spec, layers):
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<11} {w['why']}")
    print("\nend-to-end metrics (--trace 0), per workload:")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<14} {m['unit']:<6} {m['better']:<6} bound {m['bound']:.0%}  "
              f"{layers['end_to_end'][m['name']]}")
    print(f"  {'failed_frac':<14} {'ratio':<6} {'lower':<6} must be 0  "
          f"{layers['end_to_end']['failed_frac']}")
    print("\nper-layer metrics (--trace 1) -> end-to-end metric they should move, on which "
          "workloads:")
    for m in spec["per_layer"]:
        row = layers["per_layer"][m["name"]]
        target = f"{row['moves']:<8} on {', '.join(row['on'])}" if row["on"] else row["moves"]
        print(f"  {m['name']:<33} {m['unit']:<7} {m['better']:<6} -> {target}")
        print(f"  {'':<33} {row['how']}; elsewhere: {row['elsewhere']}")


def check_spec(spec, layers):
    names = {w["name"] for w in spec["workloads"]}
    if names != set(layers["workloads"]):
        fail("BENCHMARK.json workloads and perfbench/layers.json disagree: "
             f"{sorted(names ^ set(layers['workloads']))}")
    names = {m["name"] for m in spec["per_layer"]}
    if names != set(layers["per_layer"]):
        fail("BENCHMARK.json per_layer and perfbench/layers.json disagree: "
             f"{sorted(names ^ set(layers['per_layer']))}")


def selftest(spec):
    """Plants one wrong expected value; the run must report it and fail."""
    args = argparse.Namespace(workload="paper", seed=0, seconds=1, trace=0)
    result, code = measure(args, spec, plant=True)
    if code != 0 and not result["correct"] and result["failed"] >= 1:
        print("# selftest: the planted wrong value was caught "
              f"({result['failed']} failed of {result['attempted']})")
        return 0
    print("# selftest: the planted wrong value was NOT caught", file=sys.stderr)
    return 1


def regenerate_expected(spec, seeds):
    """Stores the outputs of this commit for `seeds` (each run also passes
    the oracle).  The grid file comes from the paper workload and is then
    checked against the individual and reduced workloads."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        dump = build_dir() / "out" / f"values-paper-seed{seed}.txt"
        target = expected_path(seed)
        if target.exists():
            target.unlink()
        args = argparse.Namespace(workload="paper", seed=seed, seconds=0, trace=0)
        _, code = measure(args, spec, dump_values=dump)
        if code != 0:
            fail(f"paper seed {seed} failed its oracle; nothing stored")
        lines = []
        for line in dump.read_text().splitlines():
            key, _, values = line.partition("\t")
            lines.append(key + "\t" + " ".join(f"{float(v):.12g}" for v in values.split()))
        target.write_bytes(lzma.compress(("\n".join(lines) + "\n").encode(), preset=9))
        for workload in ("individual", "reduced"):
            args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=0)
            _, code = measure(args, spec)
            if code != 0:
                fail(f"{workload} seed {seed} disagrees with the stored grid outputs")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="list workloads and metrics")
    parser.add_argument("--selftest", action="store_true",
                        help="check that a planted wrong expected value is caught")
    parser.add_argument("--regen-expected", action="store_true",
                        help="store this commit's outputs for the shipped seeds")
    args = parser.parse_args()

    spec = load_json(SPEC)
    layers = load_json(LAYERS)
    check_spec(spec, layers)
    if args.list:
        list_benchmark(spec, layers)
        return 0
    if args.selftest:
        return selftest(spec)
    if args.regen_expected:
        regenerate_expected(spec, SHIPPED_SEEDS + [HELD_OUT_SEED])
        return 0
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error("--workload must be one of " + ", ".join(workloads))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    result, code = measure(args, spec)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
