package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.WebGraphs.GraphSpec
import repro.core._
import repro.gas.{GasEngine, VertexCutGraph}

/** Failed checks of one operation; an operation fails if any check does. */
final class Checks {
  val failures = mutable.ArrayBuffer.empty[String]
  def apply(ok: Boolean, what: => String): Unit = if (!ok) failures += what
}

/** Quality of one placement, compared across the operations of a run. */
final case class Placement(k: Int, rf: Double, balance: Double, hash: Int)

/** Wall and process-CPU seconds of one operation and the placements it
  * made. `placeS` is the part of `opS` up to the edge→partition assignment
  * the workload reports. */
final case class OpResult(opS: Double, placeS: Double, cpuS: Double, placements: Seq[Placement])

/** The system's public API driven from outside, with a span around each
  * call into a layer. Every CLUGP call uses the paper's defaults with one
  * game thread per core. */
final class Pipeline(spark: SparkSession, val spec: GraphSpec, val file: String, val cores: Int) {
  val cfg = ClugpConfig(gameMode = ParallelGame(threads = cores))
  val PageRankIters = 5

  /** Edges in the columnar file, counted at set-up. */
  var numEdges = 0L

  /** Generates the graph and writes it to the columnar file. */
  def writeInput(): Unit = {
    spec.df(spark).write.mode("overwrite").parquet(file)
    numEdges = spark.read.parquet(file).count()
  }

  /** Generates the graph and ingests it straight into a stream. */
  def generateStream(): EdgeStream = {
    val s = EdgeStream.fromDF(spec.df(spark))
    numEdges = s.numEdges
    s
  }

  def ingest(sp: Spans): EdgeStream = {
    val s = sp("ingest")(EdgeStream.fromDF(spark.read.parquet(file)))
    sp.count("ingest.edges", s.numEdges.toDouble)
    sp.count("ingest.vertices", s.numVertices.toDouble)
    s
  }

  /** Composed placements of a traced run, kept to compare with `Clugp.run`. */
  val composed = mutable.ArrayBuffer.empty[(EdgeStream, Int, Array[Int])]

  /** Edge→partition assignment of `stream`. Untraced, this is `Clugp.run`;
    * traced, it calls the four passes the way `Clugp.partition` composes
    * them, so each gets its own span. */
  def place(stream: EdgeStream, k: Int, sp: Spans, chk: Checks): Array[Int] = {
    if (!sp.traced) return Clugp.run(stream, k, cfg).part
    val d = s"k=$k"
    val vMax = math.max(2L, (cfg.vMaxFactor * stream.numEdges / k).toLong)
    val clustering = sp("clustering", d)(StreamingClustering.cluster(stream, vMax, cfg.splitting))
    val cg = sp("cluster_graph", d)(ClusterGraph.build(stream, clustering))
    val lambda = cg.lambdaMax(k) * (cfg.weight / (1.0 - cfg.weight))
    val ParallelGame(batchSize, threads) = cfg.gameMode
    val game = sp("game", d)(ClusterPartitioning.parallelGame(
      cg, k, lambda, batchSize, threads, cfg.seed, init = cfg.init))
    val part = sp("transform", d)(PartitionTransformation.transform(
      stream, clustering, game.assignment, k, cfg.tau))

    chk(clustering.volumes.sum == 2L * stream.numEdges,
      s"k=$k: cluster volumes sum to ${clustering.volumes.sum}, not 2|E| = ${2L * stream.numEdges}")
    val occupied = clustering.numOccupiedClusters
    sp.count("clustering.clusters_allocated", clustering.numClusters.toDouble)
    sp.count("clustering.clusters_occupied", occupied.toDouble)
    sp.count("clustering.divided", (clustering.divided.count(identity)).toDouble)
    sp.count("cluster_graph.cut_edges", cg.totalCutEdges.toDouble)
    sp.count("cluster_graph.adjacency_entries", (cg.neighborIds.map(_.length.toLong).sum).toDouble)
    sp.count("game.rounds", game.rounds.toDouble)
    sp.count("game.moves", game.moves.toDouble)
    sp.count("game.batches", ((clustering.numClusters + batchSize - 1) / batchSize).toDouble)
    // transform rule outcome, derived from the outputs of passes 1–3
    val clu = clustering.clu; val cp = game.assignment
    var same = 0L; var endpoint = 0L; var spill = 0L
    var i = 0
    while (i < part.length) {
      val pu = cp(clu(stream.src(i))); val pv = cp(clu(stream.dst(i)))
      if (part(i) != pu && part(i) != pv) spill += 1
      else if (pu == pv) same += 1
      else endpoint += 1
      i += 1
    }
    sp.count("transform.same_partition", same.toDouble)
    sp.count("transform.endpoint_cut", endpoint.toDouble)
    sp.count("transform.spill", spill.toDouble)
    composed += ((stream, k, part))
    part
  }

  /** Checks every edge is assigned once to a partition in [0,k) and the
    * largest partition holds at most `maxLoad` edges; returns the quality. */
  def checkPlacement(stream: EdgeStream, part: Array[Int], k: Int, maxLoad: Long,
                     chk: Checks): (PartitionQuality, Placement) = {
    chk(part.length == stream.numEdges && stream.numEdges == numEdges,
      s"k=$k: ${part.length} assignments for ${stream.numEdges} stream edges, $numEdges in the file")
    val bad = part.count(p => p < 0 || p >= k)
    chk(bad == 0, s"k=$k: $bad edges assigned outside [0,$k)")
    if (bad > 0) return (null, Placement(k, Double.NaN, Double.NaN, 0))
    val q = Metrics.evaluate(stream, part, k)
    chk(q.partitionSizes.max <= maxLoad,
      s"k=$k: largest partition holds ${q.partitionSizes.max} edges, bound $maxLoad")
    (q, Placement(k, q.replicationFactor, q.relativeBalance, java.util.Arrays.hashCode(part)))
  }

  /** ⌈τ|E|/k⌉, the load bound of pass 3. */
  def loadBound(nE: Long, k: Int): Long = math.ceil(cfg.tau * nE / k).toLong

  /** web-pagerank: columnar file → stream → CLUGP → assignment DataFrame →
    * master/mirror topology → PageRank, the user's whole path. */
  def pageRankOp(k: Int, sp: Spans, chk: Checks): OpResult = {
    val c0 = Clocks.cpuNs; val t0 = System.nanoTime()
    val stream = ingest(sp)
    val part = place(stream, k, sp, chk)
    val assigned = sp("egress")(Metrics.assignmentDF(spark, stream, part))
    val t1 = System.nanoTime()
    val topo = sp("topology")(VertexCutGraph.topology(assigned, k))
    val ranks = sp("gas") {
      val r = new Array[Double](stream.numVertices)
      java.util.Arrays.fill(r, Double.NaN)
      GasEngine.pageRank(spark, assigned, PageRankIters).collect()
        .foreach(row => r(row.getLong(0).toInt) = row.getDouble(1))
      r
    }
    val t2 = System.nanoTime(); val c2 = Clocks.cpuNs

    val (q, pl) = checkPlacement(stream, part, k, loadBound(stream.numEdges, k), chk)
    if (q != null) chk(topo.mirrors == q.numReplicas,
      s"topology has ${topo.mirrors} mirrors, Metrics.evaluate ${q.numReplicas}")
    sp.count("topology.mirrors", topo.mirrors.toDouble)
    sp.count("gas.msgs_modelled", topo.messagesPerIteration.toDouble)
    val ref = GasEngine.pageRankReference(stream.src, stream.dst, stream.numVertices, PageRankIters)
    val worst = ref.indices.map(v => math.abs(ranks(v) - ref(v))).foldLeft(0.0)(
      (a, b) => if (b.isNaN || a.isNaN) Double.NaN else math.max(a, b))
    chk(worst <= 1e-9, s"PageRank differs from the reference by $worst")
    chk(math.abs(ranks.sum - 1.0) <= 1e-6, s"ranks sum to ${ranks.sum}")
    OpResult((t2 - t0) / 1e9, (t1 - t0) / 1e9, (c2 - c0) / 1e9, Seq(pl))
  }

  /** web-restream: CLUGP alone over an ingested stream at k=4, then k=256. */
  def restreamOp(stream: EdgeStream, sp: Spans, chk: Checks): OpResult = {
    val c0 = Clocks.cpuNs; val t0 = System.nanoTime()
    val small = place(stream, 4, sp, chk)
    val t1 = System.nanoTime()
    val large = place(stream, 256, sp, chk)
    val t2 = System.nanoTime(); val c2 = Clocks.cpuNs
    val pls = Seq(4 -> small, 256 -> large).map { case (k, part) =>
      checkPlacement(stream, part, k, loadBound(stream.numEdges, k), chk)._2
    }
    OpResult((t2 - t0) / 1e9, (t1 - t0) / 1e9, (c2 - c0) / 1e9, pls)
  }

  /** Distributed mode, run in the complement of every traced run:
    * `Clugp.partitionDistributed` on the columnar file with one slice per
    * core, every output row collected. */
  def distributedOp(k: Int, sp: Spans, chk: Checks): OpResult = {
    val c0 = Clocks.cpuNs; val t0 = System.nanoTime()
    val slices = sp("distributed") {
      Clugp.partitionDistributed(spark, spark.read.parquet(file), k, cfg, cores).rdd
        .mapPartitionsWithIndex { (s, it) =>
          val rows = it.toArray
          Iterator((s, rows.map(_.getLong(0)), rows.map(_.getLong(1)),
            rows.map(_.getLong(2)), rows.map(_.getInt(3))))
        }.collect()
    }
    val t1 = System.nanoTime(); val c1 = Clocks.cpuNs

    val ids = slices.flatMap(_._2)
    val order = ids.indices.sortBy(ids(_)).toArray
    chk(ids.length == numEdges, s"${ids.length} output rows for $numEdges input edges")
    chk(order.indices.forall(j => j == 0 || ids(order(j)) != ids(order(j - 1))),
      "output edge ids are not unique")
    val src = slices.flatMap(_._3); val dst = slices.flatMap(_._4); val part = slices.flatMap(_._5)
    val stream = EdgeStream.fromPairs(order.map(j => (src(j), dst(j))).toIndexedSeq)
    // The mode runs pass 3 on each slice by itself, so what it guarantees is
    // ⌈τ|E_s|/k⌉ per partition within each slice s; the union may exceed
    // ⌈τ|E|/k⌉ by up to one edge per slice.
    slices.foreach { case (s, sliceIds, _, _, sliceParts) =>
      val largest = if (sliceParts.isEmpty) 0 else sliceParts.groupBy(identity).values.map(_.length).max
      chk(largest <= loadBound(sliceIds.length, k),
        s"slice $s: largest partition holds $largest edges, bound ${loadBound(sliceIds.length, k)}")
    }
    val (_, pl) = checkPlacement(stream, order.map(part), k,
      slices.map(s => loadBound(s._2.length, k)).sum, chk)
    val sizes = slices.map(_._2.length.toDouble)
    sp.count("distributed.slice_skew", if (sizes.isEmpty) 0.0 else sizes.max * sizes.length / sizes.sum)
    OpResult((t1 - t0) / 1e9, (t1 - t0) / 1e9, (c1 - c0) / 1e9, Seq(pl))
  }
}
