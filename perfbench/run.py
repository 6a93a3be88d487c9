#!/usr/bin/env python3
"""End-to-end benchmark of the NetDIMM simulator (see NOTES.md).

Builds the benchmark program from the checkout's sources into
.bench_build/, runs one workload for a fixed host time and prints the
result as the last line of stdout:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Other modes:

    --workload all        every workload, untraced and traced, as a table
    --selftest            tiny-size checks of the benchmark itself
    --out FILE            also save the full record (fingerprint, digest)
    --compare BASE NEW    compare two saved records; refused when their
                          host fingerprints differ
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "netdimm_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then rebuild incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to "
                           "perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "netdimm_perfbench"],
                   check=True, stdout=sys.stderr)


def run_program(workload, seed, seconds, trace, size="full", extra=()):
    """Run the program once; return (human lines, parsed record)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, *extra]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s.csv" % workload)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (
            " ".join(cmd), proc.returncode, proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def select_metrics(spec, record, trace):
    """The result's metrics: every metric BENCHMARK.json names for
    this mode, with the program's value and unit. A per-layer metric
    the workload does not exercise reads 0; an end-to-end metric must
    be measured."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in names:
        got = record["metrics"].get(m["name"])
        if got is None:
            if not trace:
                raise RuntimeError("end-to-end metric %s not measured"
                                   % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise RuntimeError("metric %s: unit %s, BENCHMARK.json says %s"
                               % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def result_line(spec, record, trace):
    metrics = select_metrics(spec, record, trace)
    return {"correct": record["failed"] == 0 and record["attempted"] > 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics}


def run_one(args, spec):
    human, record = run_program(args.workload, args.seed, args.seconds,
                                args.trace)
    for line in human:
        print(line)
    print("fingerprint: " + json.dumps(record["fingerprint"]))
    print("digest: " + record["digest"])
    result = result_line(spec, record, args.trace)
    if args.out:
        saved = dict(record, seed=args.seed, trace=args.trace,
                     seconds=args.seconds, metrics=result["metrics"])
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, spec):
    """Every workload, untraced then traced: each metric with its unit,
    the digest and the operation counts."""
    bad = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        rows, digests, ops = {}, [], [0, 0]
        for trace in (0, 1):
            human, record = run_program(name, args.seed, args.seconds, trace)
            if trace:
                print("\n".join(human))
            digests.append(record["digest"])
            ops[0] += record["attempted"]
            ops[1] += record["failed"]
            rows.update(select_metrics(spec, record, trace))
            for f in record["failures"]:
                print("FAILED: " + f)
        same = digests[0] == digests[1]
        bad += ops[1] + (not same)
        print("== %s  digest %s (%s traced)  attempted %d  failed %d  %s" % (
            name, digests[0], "same as" if same else "DIFFERS from",
            ops[0], ops[1], json.dumps(record["fingerprint"])))
        for key, m in rows.items():
            print("  %-34s %18.6g %s" % (key, m["value"], m["unit"]))
    return 1 if bad else 0


def compare(base_path, new_path, spec):
    """Compare two saved records metric by metric against the
    end-to-end bounds. Refused when the records come from different
    hosts, compilers or build types."""
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if base["fingerprint"] != new["fingerprint"]:
        log("refused: fingerprints differ\n  %s\n  %s" % (
            json.dumps(base["fingerprint"]), json.dumps(new["fingerprint"])))
        return 3
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for name, m in sorted(new["metrics"].items()):
        b = base["metrics"].get(name)
        if not b:
            continue
        ratio = m["value"] / b["value"] if b["value"] else float("nan")
        note = ""
        if name in bounds:
            lower = bounds[name]["better"] == "lower"
            change = ratio - 1 if lower else 1 - ratio
            if change > bounds[name]["bound"]:
                note = "  WORSE than bound %.2f" % bounds[name]["bound"]
                worse += 1
        print("%-34s %14.6g -> %-14.6g x%.4f %s%s" % (
            name, b["value"], m["value"], ratio, m["unit"], note))
    if base["digest"] != new["digest"]:
        print("digest changed: %s -> %s" % (base["digest"], new["digest"]))
    return 1 if worse else 0


def selftest(spec):
    """Tiny-size run of every workload. Fails when a metric named in
    BENCHMARK.json is missing or has no unit, when a planted
    undelivered frame is not counted as failed, or when the traced and
    untraced digests differ."""
    problems = []
    seen = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        digests = []
        for trace in (0, 1):
            _, record = run_program(name, 7, 0.2, trace, size="tiny")
            digests.append(record["digest"])
            if record["failed"]:
                problems.append("%s trace=%d: %s" % (
                    name, trace, record["failures"]))
            for key, m in record["metrics"].items():
                if not m.get("unit"):
                    problems.append("%s: metric %s has no unit" % (name, key))
                seen.setdefault(key, []).append(m)
            if not trace:
                for m in spec["end_to_end"]:
                    if m["name"] not in record["metrics"]:
                        problems.append("%s: end-to-end metric %s missing"
                                        % (name, m["name"]))
        if digests[0] != digests[1]:
            problems.append("%s: traced digest %s != untraced %s" % (
                name, digests[1], digests[0]))
    for m in spec["end_to_end"] + spec["per_layer"]:
        got = seen.get(m["name"])
        if not got:
            problems.append("metric %s is produced by no workload"
                            % m["name"])
        elif any(g["unit"] != m["unit"] for g in got):
            problems.append("metric %s: unit differs from BENCHMARK.json"
                            % m["name"])
    _, planted = run_program("replay", 7, 0.2, 0, size="tiny",
                             extra=["--plant-undelivered"])
    if planted["failed"] == 0 or result_line(spec, planted, 0)["correct"]:
        problems.append("a planted undelivered frame was not counted "
                        "as a failed operation")
    for p in problems:
        print("SELFTEST FAIL: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(args.compare[0], args.compare[1], spec)
        names = [w["name"] for w in spec["workloads"]]
        if not args.selftest and args.workload not in names + ["all"]:
            ap.error("--workload must be one of %s or all"
                     % ", ".join(names))
        build()
        if args.selftest:
            return selftest(spec)
        if args.workload == "all":
            return run_all(args, spec)
        return run_one(args, spec)
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
