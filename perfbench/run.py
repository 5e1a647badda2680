#!/usr/bin/env python3
"""dlinksim benchmark runner.

Run from the root of a dlinksim checkout:

    python3 perfbench/run.py --workload serve_sweep --seed 1 --seconds 30 --trace 0

It builds perfbench/bench.exe (release profile), then spawns one process
per round of the workload for about --seconds, timing each round from
outside (wall clock, CPU and peak RSS of the round's process).  With
--trace 0 it reports the end-to-end metrics, medians over the rounds of
host times scaled to a nominal host speed (see REF_NOMINAL_S).
With --trace 1 it alternates plain and traced rounds, reports the
per-layer metrics (stage self times from the spans, the modelled outputs,
and the per-layer probes of `bench.exe layers`) and the tracing overhead,
and checks that traced and plain rounds produce the same digests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full results, with the host
manifest and every round, go to .bench_out/.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from statistics import median

WORKLOADS = ("serve_sweep", "serve_bigcell", "churn", "multi_tenant")
DEFAULT_SEED = 1
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 850
ROUND_TIMEOUT_S = 120
MIN_ROUNDS = 3
# After each plain round, extra processes that only set the workload up
# take about this share of the round's wall time (at least one), so that
# setup_s, a short span on some workloads, is a median of many samples.
SETUP_SHARE = 0.15
# Host times are reported at a fixed nominal host speed.  Right after
# every plain round one `bench.exe calib` process times a fixed reference
# kernel (perfbench/calib.ml); each host time of the round, and of the
# set-up processes that follow it, is scaled by REF_NOMINAL_S / that
# reference time before the medians are taken.  The host is a shared
# virtual machine whose speed drifts by tens of percent over minutes; the
# reference moves with it, while a change to the simulator does not move
# the reference.  Scaled values read as seconds on a host where the
# reference takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.2

# ops_failed_ratio is printed but is not a BENCHMARK.json metric: it is 0
# whenever the simulator is correct, and the result's attempted/failed
# keys already carry it.
SPEC = "BENCHMARK.json"


def metric_units(spec, key):
    """name -> unit of the metrics listed under `key` in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec[key]}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the worker from source in this checkout (release profile)."""
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--display", "quiet", "./perfbench/bench.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError(f"build failed (exit {r.returncode})")


def spawn(args):
    """Run the worker once, passing it the spawn instant (monotonic ns);
    return (its last stdout line as JSON, wall seconds from just before
    spawn to reaping, CPU seconds, peak RSS in MB)."""
    t0 = time.monotonic_ns()
    p = subprocess.Popen([EXE] + args + ["--t0-ns", str(t0)],
                         stdout=subprocess.PIPE)
    timer = threading.Timer(ROUND_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
        t1 = time.monotonic_ns()
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {p.returncode}")
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return (result, (t1 - t0) / 1e9,
            ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def run_round(workload, seed, trace, expected):
    args = ["round", "--workload", workload, "--seed", str(seed)]
    if expected:
        args += ["--expected", expected]
    if trace:
        args += ["--trace", "--spans",
                 os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")]
    r, wall, cpu, rss = spawn(args)
    r.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss, traced=trace)
    return r


def setup_samples(workload, seed, budget):
    """Set-up times of fresh processes that set the workload up and exit,
    spawned for about `budget` seconds (at least one)."""
    out = []
    start = time.monotonic()
    while not out or time.monotonic() - start < budget:
        r, _, _, _ = spawn(["setup", "--workload", workload,
                            "--seed", str(seed)])
        out.append(r["setup_s"])
    return out


def ref_sample():
    """Seconds the reference kernel takes now (see REF_NOMINAL_S)."""
    r, _, _, _ = spawn(["calib"])
    return r["ref_s"]


def end_to_end(rounds, setups, nominal=None):
    """The end-to-end metrics.  `setups` holds (set-up seconds, reference
    seconds) pairs.  With `nominal`, every host time is scaled by nominal
    over the reference time measured right after it; without, the host
    times are reported as measured."""
    def scaled(t, ref):
        return t * nominal / ref if nominal else t

    return {
        "wall_s": median([scaled(r["wall_s"], r["ref_s"]) for r in rounds]),
        "sim_mips": median([r["instructions"] / 1e6
                            / scaled(r["wall_s"], r["ref_s"])
                            for r in rounds]),
        "setup_s": median([scaled(t, ref) for t, ref in setups]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "cpu_s": median([scaled(r["cpu_s"], r["ref_s"]) for r in rounds]),
    }


def select(names, computed):
    """The metrics `names`, in that order; each must have been computed."""
    missing = [k for k in names if k not in computed]
    if missing:
        raise BenchError(f"metrics missing: {missing}")
    return {k: computed[k] for k in names}


def per_layer(names, plain, traced, probes):
    m = {}
    for k in names:
        vals = [r["layer"][k] for r in traced if k in r["layer"]]
        if vals:
            m[k] = median(vals)
        elif k in probes:
            m[k] = probes[k]
    m["proc.cpu_ns_per_insn"] = median(
        [r["cpu_s"] * 1e9 / r["instructions"] for r in plain])
    m["proc.parallel_util"] = median(
        [r["cpu_s"] / (r["wall_s"] * r["domains"]) for r in plain])
    m["bench.trace_overhead_s"] = (median([r["wall_s"] for r in traced])
                                   - median([r["wall_s"] for r in plain]))
    return select(names, m)


def digests(r):
    return [(op["label"], op["digest"]) for op in r["ops"]]


def git_revision():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return None
        rev = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_sha256():
    """Digest of the simulator and benchmark sources, which identifies the
    code measured where no git revision is available."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for d, _, fs in os.walk(top):
            files += [os.path.join(d, f) for f in fs
                      if f == "dune" or f.endswith((".ml", ".mli", ".py"))]
    for f in sorted(files):
        h.update(f.encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def manifest(args, first_round):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "nproc": os.cpu_count(),
        "domains": first_round["domains"],
        "ocaml": first_round["ocaml"],
        "build_profile": "release",
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_expected(path, seed, rounds):
    """Replace this seed's lines in the committed digest file."""
    keep = []
    if os.path.isfile(path):
        with open(path) as f:
            keep = [ln for ln in f.read().splitlines()
                    if ln.strip() and ln.split()[0] != str(seed)]
    keep += [f"{seed} {label} {d}" for label, d in digests(rounds[0])]
    with open(path, "w") as f:
        f.write("\n".join(sorted(keep, key=lambda ln: int(ln.split()[0])))
                + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="record this seed's digests as the expected ones")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))
            and os.path.isfile(SPEC)):
        log("perfbench: run from the root of a dlinksim checkout "
            f"(dune-project, lib/, perfbench/ and {SPEC} must be present)")
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    try:
        build()
        os.makedirs(OUT_DIR, exist_ok=True)
        expected = os.path.join("perfbench", "expected", f"{args.workload}.txt")
        check = None if args.write_expected or not os.path.isfile(expected) \
            else expected
        start = time.monotonic()
        plain, traced, setups = [], [], []
        # Rounds while the next one is expected to end within the time
        # (at least MIN_ROUNDS plain ones); with tracing, plain and traced
        # rounds alternate so that host drift hits both alike.
        while True:
            t = time.monotonic()
            plain.append(run_round(args.workload, args.seed, False, check))
            if args.trace:
                traced.append(run_round(args.workload, args.seed, True, check))
            else:
                ref = plain[-1]["ref_s"] = ref_sample()
                setups += [(t, ref) for t in [plain[-1]["setup_s"]]
                           + setup_samples(args.workload, args.seed,
                                           SETUP_SHARE * plain[-1]["wall_s"])]
            step = time.monotonic() - t
            if time.monotonic() - start + step > args.seconds and \
                    (args.trace or len(plain) >= MIN_ROUNDS):
                break
        probes = {}
        if args.trace:
            probes, _, _, _ = spawn(["layers", "--workload", args.workload,
                                     "--seed", str(args.seed)])
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    rounds = plain + traced
    ref = digests(plain[0])
    consistent = all(digests(r) == ref for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = consistent and failed == 0
    for label in sorted({m for r in rounds for m in r["missing"]}):
        log(f"perfbench: committed operation {label} did not run")
    if args.write_expected:
        if not correct:
            log("perfbench: not recording digests of an incorrect run")
            return 1
        write_expected(expected, args.seed, plain)

    man = manifest(args, plain[0])
    raw = {}
    try:
        if args.trace:
            units = metric_units(spec, "per_layer")
            metrics = per_layer(units, plain, traced, probes)
        else:
            units = metric_units(spec, "end_to_end")
            metrics = select(units, end_to_end(plain, setups, REF_NOMINAL_S))
            raw = end_to_end(plain, setups)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    print("manifest " + json.dumps(man, sort_keys=True))
    print(f"rounds {len(plain)} plain, {len(traced)} traced, "
          f"{len(setups)} set-ups; "
          f"digests {'consistent' if consistent else 'DIFFER'} across rounds"
          + ("; traced == plain" if args.trace and consistent else ""))
    if not args.trace:
        print(f"reference kernel {median([r['ref_s'] for r in plain]):.6g} s "
              f"(median), nominal {REF_NOMINAL_S} s")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}"
              + (f" (unscaled {raw[k]:.6g})" if k in raw and raw[k] != v
                 else ""))
    print(f"ops_failed_ratio {failed / attempted:.6g} ratio")

    result = {
        "manifest": man,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "rounds": rounds,
        "setup_samples": setups,
        "unscaled": raw,
        "probes": probes,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
