package repro.perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.WebGraphs
import repro.core.{Clugp, EdgeStream}

/** Benchmark entry point; `perfbench/run.py` builds and launches it.
  *
  * Usage: `Main --workload W --seed N --seconds S --trace 0|1 --graph G --out DIR`
  *
  * Untraced, a run sets up its input seven times, then repeats the
  * workload's operation until `S` seconds of operations have passed and
  * prints the end-to-end metrics. Traced, it runs the operation once
  * untraced and once traced, then traces the layers the operation does
  * not reach, and prints the per-layer metrics. The last stdout line is
  * the result as one JSON object.
  */
object Main {
  val Workloads = Seq("web-pagerank", "web-restream", "web-distributed")
  val Layers = Seq("ingest", "clustering", "cluster_graph", "game", "transform",
                   "egress", "topology", "gas", "distributed")
  /** Input graphs; the self-test uses the tiny one. */
  val Graphs = Seq(WebGraphs.UKLite, WebGraphs.Tiny)
  val SetupRepeats = 7
  val K = 64

  /** Every end-to-end metric and its unit, in output order. */
  val EndToEnd = Seq("setup_s" -> "s", "op_s" -> "s", "rf" -> "ratio", "balance" -> "ratio")

  /** Counts recorded per layer besides `.ms`, `.cpu_ms` and `.gc_ms`. */
  val LayerCounts = Seq(
    "ingest.edges" -> "count", "ingest.vertices" -> "count", "ingest.result_bytes" -> "bytes",
    "clustering.clusters_allocated" -> "count", "clustering.clusters_occupied" -> "count",
    "clustering.occupied_ratio" -> "ratio", "clustering.divided" -> "count",
    "cluster_graph.cut_edges" -> "count", "cluster_graph.adjacency_entries" -> "count",
    "game.rounds" -> "count", "game.moves" -> "count", "game.batches" -> "count",
    "game.occupied_per_batch" -> "count",
    "transform.same_partition" -> "count", "transform.endpoint_cut" -> "count",
    "transform.spill" -> "count",
    "topology.mirrors" -> "count",
    "gas.spark_jobs" -> "count", "gas.shuffle_records" -> "count", "gas.shuffle_bytes" -> "bytes",
    "gas.task_busy_ratio" -> "ratio", "gas.msgs_modelled" -> "count",
    "distributed.spark_jobs" -> "count", "distributed.shuffle_bytes" -> "bytes",
    "distributed.slice_skew" -> "ratio",
    "trace.composition_identical" -> "bool", "trace.coverage" -> "ratio",
    "trace.overhead_ms" -> "ms", "trace.bookkeeping_ms" -> "ms", "trace.heap_peak_mb" -> "MiB")

  /** Every per-layer metric and its unit, in output order. */
  val PerLayer: Seq[(String, String)] =
    Layers.flatMap(l => Seq(s"$l.ms" -> "ms", s"$l.cpu_ms" -> "ms", s"$l.gc_ms" -> "ms")) ++ LayerCounts

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        graph: String, out: String)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val o = Opts(m.getOrElse("workload", ""), m.getOrElse("seed", "14").toLong,
      m.getOrElse("seconds", "10").toDouble, m.getOrElse("trace", "0") == "1",
      m.getOrElse("graph", "uk-lite"), m.getOrElse("out", ".bench_build/perfbench"))
    require(Workloads.contains(o.workload), s"--workload must be one of ${Workloads.mkString(", ")}")
    require(Graphs.exists(_.name == o.graph), s"--graph must be one of ${Graphs.map(_.name).mkString(", ")}")
    o
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder().master(s"local[$cores]").appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${o.out}/spark-local")
      .config("spark.sql.warehouse.dir", s"${o.out}/spark-warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try run(spark, o, cores)
    finally spark.stop()
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  private def run(spark: SparkSession, o: Opts, cores: Int): Unit = {
    val spec = Graphs.find(_.name == o.graph).get.copy(seed = o.seed)
    val p = new Pipeline(spark, spec, s"${o.out}/data/${spec.name}.parquet", cores)
    val counters = new SparkCounters(spark.sparkContext)

    // set-up: web-pagerank writes the columnar file its operation reads;
    // web-restream ingests the generated graph into the stream it restreams
    var stream: EdgeStream = null
    val setupS = (1 to SetupRepeats).map { _ =>
      System.gc()
      val t0 = System.nanoTime()
      if (o.workload == "web-restream") stream = p.generateStream() else p.writeInput()
      (System.nanoTime() - t0) / 1e9
    }

    var attempted = 0; var failed = 0
    val first = scala.collection.mutable.LinkedHashMap.empty[(String, Int), Placement]
    def op(sp: Spans, workload: String = o.workload): OpResult = {
      val chk = new Checks
      val r = workload match {
        case "web-pagerank"    => p.pageRankOp(K, sp, chk)
        case "web-restream"    => p.restreamOp(stream, sp, chk)
        case "web-distributed" => p.distributedOp(K, sp, chk)
      }
      // At a fixed seed a single-node placement repeats exactly. The
      // distributed one repeats across runs but not within one: its slice
      // bounds come from RangePartitioner sampling, which Spark seeds with
      // the RDD id. Its first placement, which the run reports, is compared
      // across runs by the self-test.
      r.placements.foreach { pl =>
        val f = first.getOrElseUpdate((workload, pl.k), pl)
        if (workload != "web-distributed") chk(f.rf == pl.rf && f.balance == pl.balance,
          s"k=${pl.k}: rf/balance ${pl.rf}/${pl.balance} differ from ${f.rf}/${f.balance}")
      }
      attempted += 1
      if (chk.failures.nonEmpty) {
        failed += 1
        chk.failures.foreach(f => System.err.println(s"perfbench: check failed: $workload: $f"))
      }
      r
    }

    var samples = ""
    val metrics: Seq[(String, String, Double)] = if (!o.trace) {
      val ops = scala.collection.mutable.ArrayBuffer.empty[OpResult]
      while (ops.isEmpty || ops.map(_.opS).sum < o.seconds) {
        System.gc()
        ops += op(NoSpans)
      }
      val pls = ops.head.placements
      samples = s" op_s=${ops.map(_.opS).mkString(",")} place_s=${ops.map(_.placeS).mkString(",")}" +
        s" op_cpu_s=${ops.map(_.cpuS).mkString(",")} setup_s=${setupS.mkString(",")}"
      Seq(("setup_s", "s", median(setupS)),
        ("op_s", "s", median(ops.map(_.opS).toSeq)),
        ("rf", "ratio", pls.head.rf),
        ("balance", "ratio", pls.map(_.balance).max))
    } else {
      val tracer = new Tracer(counters)
      System.gc()
      val plain = op(NoSpans).opS
      System.gc()
      Clocks.resetHeapPeak()
      val traced = tracer("op", o.workload)(op(tracer)).opS
      // trace the layers this workload's operation does not reach
      if (o.workload == "web-restream") p.writeInput()
      tracer("complement") {
        if (o.workload != "web-pagerank") op(tracer, "web-pagerank")
        if (o.workload != "web-distributed") op(tracer, "web-distributed")
      }
      Files.writeString(Paths.get(o.out, s"spans-${o.workload}-seed${o.seed}.json"), tracer.json)
      traceMetrics(tracer, p, plain, traced, cores)
    }
    assert(metrics.map(m => m._1 -> m._2) == (if (o.trace) PerLayer else EndToEnd))

    val summary = s"workload=${o.workload} graph=${spec.name} seed=${o.seed} cores=$cores " +
      s"edges=${p.numEdges} attempted=$attempted failed=$failed " +
      first.map { case ((w, k), pl) => s"$w/k$k:rf=${pl.rf},balance=${pl.balance},hash=${pl.hash}" }
        .mkString(" ") + samples
    println(s"perfbench: $summary")
    val result = s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {""" +
      metrics.map { case (n, u, v) => s""""$n": {"value": $v, "unit": "$u"}""" }.mkString(", ") + "}}"
    val dir = Paths.get(o.out, "results"); Files.createDirectories(dir)
    val tag = s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    Files.writeString(dir.resolve(s"$tag.txt"), s"$summary\n$result\n")
    println(result)
  }

  private def traceMetrics(t: Tracer, p: Pipeline, plainS: Double, tracedS: Double,
                           cores: Int): Seq[(String, String, Double)] = {
    val composedOk = p.composed.forall { case (s, k, part) =>
      java.util.Arrays.equals(part, Clugp.run(s, k, p.cfg).part)
    }
    // a layer the operation reaches is measured under the `op` root only;
    // the others under `complement`
    def root(layer: String) = if (t.layerSpans(layer, "op").nonEmpty) "op" else "complement"
    def sum(layer: String, f: Span => Double) = t.layerSpans(layer, root(layer)).map(f).sum
    def count(name: String) = t.counts((root(name.takeWhile(_ != '.')), name))
    val opSpan = t.spans.find(_.name == "op").get
    val derived = Map(
      "clustering.occupied_ratio" -> count("clustering.clusters_occupied") / count("clustering.clusters_allocated"),
      "game.occupied_per_batch" -> count("clustering.clusters_occupied") / count("game.batches"),
      "ingest.result_bytes" -> sum("ingest", _.spark.resultBytes.toDouble),
      "gas.spark_jobs" -> sum("gas", _.spark.jobs.toDouble),
      "gas.shuffle_records" -> sum("gas", _.spark.shuffleRecords.toDouble),
      "gas.shuffle_bytes" -> sum("gas", _.spark.shuffleBytes.toDouble),
      "gas.task_busy_ratio" -> sum("gas", _.spark.taskRunMs.toDouble) / (sum("gas", _.ms) * cores),
      "distributed.spark_jobs" -> sum("distributed", _.spark.jobs.toDouble),
      "distributed.shuffle_bytes" -> sum("distributed", _.spark.shuffleBytes.toDouble),
      "trace.composition_identical" -> (if (composedOk) 1.0 else 0.0),
      "trace.coverage" -> t.spans.filter(_.parent == opSpan.id).map(_.ms).sum / (tracedS * 1000),
      "trace.overhead_ms" -> (tracedS - plainS) * 1000,
      "trace.bookkeeping_ms" -> t.bookkeepingNs / 1e6,
      "trace.heap_peak_mb" -> Clocks.heapPeakMb)

    val timed = Layers.flatMap(l => Seq(
      (s"$l.ms", "ms", sum(l, _.ms)),
      (s"$l.cpu_ms", "ms", sum(l, _.cpuNs / 1e6)),
      (s"$l.gc_ms", "ms", sum(l, _.gcMs.toDouble))))
    timed ++ LayerCounts.map { case (n, u) => (n, u, derived.getOrElse(n, count(n))) }
  }
}
