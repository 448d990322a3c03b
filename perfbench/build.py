"""Build file of the benchmark.

Compiles the program's Scala sources (``src/main/scala``) together with the
benchmark's own (``perfbench/src``) into ``.bench_build/perfbench/classes``
with the Scala compiler that ships in the Spark distribution. The compile is
skipped when a stamp of every source file, the compiler and the JDK is
unchanged. Run ``python3 perfbench/build.py`` to build by hand.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CLASSES = BUILD / "classes"
STAMP = BUILD / "classes.stamp"


class BuildError(Exception):
    pass


def spark_jars():
    """Jars of the Spark distribution at $SPARK_HOME, or else the jar directory
    the project's build.sbt compiles against (`Compile / unmanagedBase`)."""
    if os.environ.get("SPARK_HOME"):
        jars = Path(os.environ["SPARK_HOME"]) / "jars"
    else:
        sbt = ROOT / "build.sbt"
        m = re.search(r'Compile\s*/\s*unmanagedBase\s*:=\s*file\("([^"]+)"\)',
                      sbt.read_text() if sbt.is_file() else "")
        jars = Path(m.group(1)) if m else None
    found = sorted(jars.glob("*.jar")) if jars else []
    if not found:
        raise BuildError("no Spark jars found; set SPARK_HOME")
    return found


def sources():
    program = ROOT / "src" / "main" / "scala"
    if not (program / "repro" / "core" / "Clugp.scala").is_file():
        raise BuildError(f"program sources not found under {program}")
    own = Path(__file__).resolve().parent / "src"
    return sorted(program.rglob("*.scala")) + sorted(own.rglob("*.scala"))


def stamp(srcs, jars):
    h = hashlib.sha256()
    for f in srcs:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    h.update(" ".join(j.name for j in jars).encode())
    h.update(subprocess.run(["java", "-XX:-UsePerfData", "-version"], capture_output=True).stderr)
    return h.hexdigest()


def classpath():
    """Classpath for running the benchmark: its classes, then Spark's jars."""
    return os.pathsep.join([str(CLASSES)] + [str(j) for j in spark_jars()])


def build():
    jars = spark_jars()
    srcs = sources()
    want = stamp(srcs, jars)
    if CLASSES.is_dir() and STAMP.is_file() and STAMP.read_text() == want:
        return
    compiler = [j for j in jars if j.name.startswith(("scala-compiler", "scala-library", "scala-reflect"))]
    if len(compiler) != 3:
        raise BuildError("scala-compiler, scala-library and scala-reflect jars are required")
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    argfile = BUILD / "scalac.args"
    argfile.write_text("\n".join(
        ["-deprecation", "-d", str(CLASSES),
         "-classpath", os.pathsep.join(str(j) for j in jars)] + [str(s) for s in srcs]) + "\n")
    print(f"perfbench: compiling {len(srcs)} Scala sources", file=sys.stderr, flush=True)
    res = subprocess.run(
        ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(str(j) for j in compiler),
         "scala.tools.nsc.Main", f"@{argfile}"],
        stdout=sys.stderr)
    if res.returncode != 0:
        raise BuildError(f"scalac exited with {res.returncode}")
    STAMP.write_text(want)


if __name__ == "__main__":
    try:
        build()
    except BuildError as e:
        sys.exit(f"perfbench: build failed: {e}")
