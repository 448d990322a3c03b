"""CLUGP benchmark: builds the program from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload web-pagerank --seed 14 --seconds 10 --trace 0

The last line of standard output is the result as one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything the run writes goes under ``.bench_build/``. See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["web-pagerank", "web-restream", "web-distributed"]

# The JDK module opens Spark needs, as spark-submit passes them.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]
# Fixed heap size (-Xms = -Xmx): a heap that grows during the run made
# run-to-run times less steady.
HEAP = "6g"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=14, help="workload seed: the graph generator's seed")
    ap.add_argument("--seconds", type=float, default=10, help="seconds of operations to measure")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--graph", choices=["uk-lite", "tiny"], default="uk-lite",
                    help="input graph; tiny is for the benchmark's self-test")
    args = ap.parse_args()

    try:
        build.build()
    except build.BuildError as e:
        sys.exit(f"perfbench: build failed: {e}")

    out = build.BUILD
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    log4j = Path(__file__).resolve().parent / "log4j2.properties"
    cmd = (["java", "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}",
            f"-Djava.io.tmpdir={tmp}", f"-Dlog4j2.configurationFile={log4j}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in OPENS]
           + ["-cp", build.classpath(), "repro.perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--graph", args.graph, "--out", str(out)])
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(out / "spark-local"))
    child = subprocess.Popen(cmd, env=env, cwd=build.ROOT)

    # pass a stop on to the JVM, then wait below until it has ended
    signal.signal(signal.SIGTERM, lambda _sig, _frame: child.terminate())
    signal.signal(signal.SIGINT, lambda _sig, _frame: child.terminate())
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
