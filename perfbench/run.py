#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload route|serve-churn \
        --seed N --seconds S --trace 0|1

Builds the wavelength package with dune (the first run in a fresh checkout
compiles the whole tree), then the benchmark, a dune project of its own in
perfbench/ocaml, against the libraries the first build installs under
_build/install; runs the benchmark's own test, runs the benchmark and
passes its report through.  The last line printed is one JSON object holding exactly the
metrics BENCHMARK.json lists: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.  Sockets, logs and traces go under
_perfbench/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench", "ocaml")
OUT = "_perfbench"


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit_id(env):
    # The checkout may be a plain file tree; never let git walk above it.
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """A digest of the sources the benchmark builds, so two results from
    checkouts without git history can still be told apart."""
    h = hashlib.sha256()
    for top in ["dune-project", "dune", "lib", "bin", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "_build" not in os.path.relpath(d, ROOT).split(os.sep))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as fh:
        spec = json.load(fh)
    for need in ["dune-project", "lib", os.path.join("bin", "wl.ml")]:
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is missing: run from a checkout of the repository" % need)

    os.makedirs(os.path.join(ROOT, OUT, "tmp"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               TMPDIR=os.path.join(ROOT, OUT, "tmp"))
    dune = ["dune", "build", "--root", ".", "--display", "quiet"]
    if subprocess.run(dune + ["@install"], cwd=ROOT, env=env,
                      stdout=sys.stderr).returncode != 0:
        die("build of the wavelength package failed")
    installed = os.path.join(ROOT, "_build", "install", "default")
    lib = os.path.join(installed, "lib")
    env["OCAMLPATH"] = os.pathsep.join(
        [lib] + ([env["OCAMLPATH"]] if env.get("OCAMLPATH") else []))
    if subprocess.run(dune + ["./bench.exe", "@runtest"], cwd=BENCH, env=env,
                      stdout=sys.stderr).returncode != 0:
        die("build or test of the benchmark failed")

    cmd = [os.path.join(BENCH, "_build", "default", "bench.exe"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--wl", os.path.join(installed, "bin", "wl"),
           "--out", OUT, "--commit", commit_id(env),
           "--source", source_digest()]
    run = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True)
    try:
        out, _ = run.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the benchmark stop its daemons on the way out.
        run.send_signal(signal.SIGTERM)
        try:
            run.wait(timeout=10)
        except subprocess.TimeoutExpired:
            run.kill()
            run.wait()
        die("benchmark did not finish within 170 s")
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        die("benchmark produced no result (exit %d)" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            die("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            die("metric %s measured in %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
