#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload sweep|explore|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the OCaml benchmark with dune,
runs it, and passes its output through. The benchmark's last stdout line
is a JSON result; for untraced runs this script adds peak_rss_mb, the
peak resident set of the benchmark's whole process tree (the process and
every descendant it reaped), read from the rusage of the reaped process.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "perfbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a checkout "
                 "(dune-project and lib/ not found)")
    # the shared dune cache lives outside the checkout; build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bin/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    proc = subprocess.Popen([EXE] + sys.argv[1:], stdout=subprocess.PIPE,
                            text=True)
    lines = proc.stdout.read().splitlines()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not lines:
        # a failed run prints its report but no result line
        for line in lines:
            if not line.startswith("{"):
                print(line)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    if "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "0":
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
