#!/usr/bin/env python3
"""perfbench: GCON's train -> publish -> serve benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload serve_node --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1     # every workload
  python3 perfbench/run.py --selftest                  # tiny-scale self-test

The first run builds gcon_cli and the harness from source into .bench_build/
(perfbench/CMakeLists.txt); later runs only bring that build up to date. A
workload run prints "# config {...}" (the run configuration) and, as its last
line, the result document {"correct", "attempted", "failed", "metrics"}:
--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. The exit code is 0 only when every output check passed and
every declared metric was emitted with its declared unit. See README.md here.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s.
RUN_LIMIT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures, then brings gcon_cli and the harness up to date.

    Configuring on every run is cheap once the cache exists, and it is what
    refreshes the git sha the root project stamps into build_info, so the
    sha a run records is that of the code it measured.

    Returns (gcon_cli, harness) paths, or None when the build fails (for
    example outside a full checkout, where the root CMakeLists.txt is absent).
    """
    os.makedirs(BUILD_DIR, exist_ok=True)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    build_log = os.path.join(BUILD_DIR, "build.log")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(cache) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", BUILD_DIR, "--target", "gcon_cli",
              "perfbench_harness", "--parallel", str(os.cpu_count() or 1)]]
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                if cmd is configure and os.path.isfile(cache):
                    os.remove(cache)  # a failed configure is retried next run
                log("build failed: %s (log: %s)" % (" ".join(cmd), build_log))
                return None
    return (os.path.abspath(os.path.join(BUILD_DIR, "gcon", "gcon_cli")),
            os.path.abspath(os.path.join(BUILD_DIR, "perfbench_harness")))


def run_harness(tools, workload, seed, seconds, trace, scale):
    """Runs one workload; returns (result document or None, exit code)."""
    cli, harness = tools
    work = os.path.abspath(os.path.join(
        BUILD_DIR, "work", "%d-%s-%d" % (os.getpid(), workload, trace)))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env.pop("OMP_NUM_THREADS", None)  # measure gcon_cli's shipped defaults
    cmd = [harness, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cli", cli,
           "--work", work, "--scale", scale]
    # Its own process group, so nothing it started can outlive the run.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("%s timed out" % workload)
        return None, 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return result, proc.returncode


def problems(result, manifest, trace):
    """Every way `result` departs from what BENCHMARK.json declares."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["malformed result document"]
    declared = {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    found = []
    for name, unit in declared.items():
        if name not in got:
            found.append("missing metric " + name)
        elif got[name].get("unit") != unit:
            found.append("metric %s has unit %r, declared %r"
                         % (name, got[name].get("unit"), unit))
    found += ["undeclared metric " + name for name in sorted(set(got) - set(declared))]
    if not result["correct"] or result["failed"]:
        found.append("output checks failed (%d of %d)"
                     % (result["failed"], result["attempted"]))
    return found


def selftest(tools, manifest, names):
    """Every workload, both passes, at TinySpec scale on a short schedule."""
    failures = 0
    for name in names:
        for trace in (0, 1):
            result, _ = run_harness(tools, name, 1, 4, trace, "tiny")
            issues = (["no result document"] if result is None
                      else problems(result, manifest, trace))
            print("selftest %s trace=%d: %s" % (
                name, trace, "ok" if not issues else "; ".join(issues)),
                  flush=True)
            failures += bool(issues)
    print("selftest: %s" % ("ok" if not failures else "%d failed" % failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    names = [w["name"] for w in manifest["workloads"]]
    if not args.selftest and args.workload not in names + ["all"]:
        parser.error("--workload must be one of: " + ", ".join(names + ["all"]))
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    tools = build()
    if tools is None:
        return 1
    if "OMP_NUM_THREADS" in os.environ:
        log("OMP_NUM_THREADS is set here; it is removed so gcon_cli runs "
            "with its shipped thread defaults")
    if args.selftest:
        return selftest(tools, manifest, names)

    seconds = args.seconds or manifest["run_seconds"]
    todo = names if args.workload == "all" else [args.workload]
    rc = 0
    for name in todo:
        result, code = run_harness(tools, name, args.seed, seconds, args.trace,
                                   "paper")
        issues = (["no result document"] if result is None
                  else problems(result, manifest, args.trace))
        for issue in issues:
            log("%s: %s" % (name, issue))
        if result is not None:
            if issues:
                result["correct"] = False
            print(json.dumps(result), flush=True)
        if issues or code != 0:
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
