package repro.gas

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Frames

/** PowerGraph-like Gather-Apply-Scatter engine over a vertex-cut
  * placement, on the [[Shards]] substrate.
  *
  * Each iteration is the GAS two-level aggregation the real system runs,
  * as one Spark job: the current vertex values are broadcast by dense
  * vertex id; each shard gathers *locally* over its own edge arrays — the
  * work each distributed node does — and sends one partial per (vertex,
  * partition) to the masters; the masters, one primitive array on the
  * driver, combine the partials and apply. The partials a vertex's
  * mirrors send are the mirror→master synchronization whose message count
  * the paper's Fig. 8 measures. Values are therefore identical to a single-machine run,
  * while costs (max per-partition edges, mirror messages) come from the
  * placement.
  */
object GasEngine {

  /** PageRank over the placement.
    *
    * Standard normalized formulation with dangling-mass redistribution:
    * `r'(v) = (1−d)/n + d·(Σ_{u→v} r(u)/outdeg(u) + dangling/n)`.
    * Ranks sum to 1 every iteration.
    *
    * @param assigned DataFrame `(id, src, dst, part)`
    * @return DataFrame `(v, rank)` for every vertex in the graph
    */
  def pageRank(spark: SparkSession, assigned: DataFrame, iters: Int = 10,
               damping: Double = 0.85): DataFrame = {
    val (ids, rank) = onShards(assigned) { (ids, outDeg, graph) =>
      val n = ids.length
      var rank = Array.fill(n)(1.0 / n)
      var it = 0
      while (it < iters) {
        val contrib = new Array[Double](n)
        var dangling = 0.0
        var v = 0
        while (v < n) {
          if (outDeg(v) == 0) dangling += rank(v) else contrib(v) = rank(v) / outDeg(v)
          v += 1
        }
        val acc = superstep(graph, contrib, 0.0, undirected = false)(_ + _)
        val next = new Array[Double](n)
        v = 0
        while (v < n) {
          next(v) = (1.0 - damping) / n + damping * (acc(v) + dangling / n)
          v += 1
        }
        rank = next; it += 1
      }
      (ids, rank)
    }
    Frames.fromColumns(spark, (ids, rank), ids.length, "v", "rank")((c, v) => (c._1(v), c._2(v)))
  }

  /** Connected components (edges treated as undirected, as PowerGraph's
    * CC does): iterated min-label propagation until a fixpoint.
    *
    * @return DataFrame `(v, component)` where component is the minimum
    *         vertex id of the component, and the iterations run
    */
  def connectedComponents(spark: SparkSession, assigned: DataFrame,
                          maxIters: Int = 50): (DataFrame, Int) = {
    val (ids, label, iters) = onShards(assigned) { (ids, _, graph) =>
      // labels are dense ids: `ids` is sorted, so the least dense id of a
      // component is its least vertex id
      var label = Array.tabulate(ids.length)(_.toDouble)
      var it = 0
      var converged = false
      while (it < maxIters && !converged) {
        val nbrMin = superstep(graph, label, Double.PositiveInfinity, undirected = true)(math.min)
        val next = Array.tabulate(ids.length)(v => math.min(label(v), nbrMin(v)))
        converged = java.util.Arrays.equals(next, label)
        label = next; it += 1
      }
      (ids, label, it)
    }
    (Frames.fromColumns(spark, (ids, label), ids.length, "v", "component") { (c, v) =>
      (c._1(v), c._1(c._2(v).toInt))
    }, iters)
  }

  /** Runs `body` over the placement's shards, each paired with its
    * local→dense id table and persisted for the iterations. Dense ids are
    * positions in `ids`, the sorted distinct vertex ids, built on the
    * driver in one set-up job that also collects out-degrees by dense id. */
  private def onShards[A](assigned: DataFrame)
                         (body: (Array[Long], Array[Int], RDD[(Shard, Array[Int])]) => A): A = {
    val shards = Shards(assigned).persist()
    val tables = shards.map(s => (s.vertices, s.outDegrees)).collect()
    val ids = Shards.sortedDistinct(tables.map(_._1).toSeq)
    val outDeg = new Array[Int](ids.length)
    tables.foreach { case (vertices, deg) =>
      val dense = Shards.indexIn(ids, vertices)
      var l = 0
      while (l < dense.length) { outDeg(dense(l)) += deg(l); l += 1 }
    }
    val bIds = shards.sparkContext.broadcast(ids)
    val graph = shards.map(s => (s, Shards.indexIn(bIds.value, s.vertices))).persist()
    try body(ids, outDeg, graph)
    finally { graph.unpersist(false); shards.unpersist(false); bIds.destroy() }
  }

  /** One GAS iteration: `value` is broadcast by dense id, every shard
    * gathers locally with `op`, and the masters combine the partials with
    * `op` from `zero`. Returns the gathered value of every vertex. */
  private def superstep(graph: RDD[(Shard, Array[Int])], value: Array[Double], zero: Double,
                        undirected: Boolean)(op: (Double, Double) => Double): Array[Double] = {
    val b = graph.sparkContext.broadcast(value)
    val partials = graph.map { case (s, dense) => s.gather(dense, b.value, zero, undirected)(op) }
      .collect()
    b.destroy()
    val acc = Array.fill(value.length)(zero)
    partials.foreach { case (ids, xs) =>
      var i = 0
      while (i < ids.length) { acc(ids(i)) = op(acc(ids(i)), xs(i)); i += 1 }
    }
    acc
  }

  /** Exact driver-side PageRank reference (same formulation) for
    * correctness checks of the GAS path. */
  def pageRankReference(src: Array[Int], dst: Array[Int], nV: Int,
                        iters: Int = 10, damping: Double = 0.85): Array[Double] = {
    val outDeg = new Array[Int](nV)
    src.foreach(outDeg(_) += 1)
    var r = Array.fill(nV)(1.0 / nV)
    var it = 0
    while (it < iters) {
      val acc = new Array[Double](nV)
      var i = 0
      while (i < src.length) { acc(dst(i)) += r(src(i)) / outDeg(src(i)); i += 1 }
      var dangling = 0.0
      var v = 0
      while (v < nV) { if (outDeg(v) == 0) dangling += r(v); v += 1 }
      val next = new Array[Double](nV)
      v = 0
      while (v < nV) {
        next(v) = (1.0 - damping) / nV + damping * (acc(v) + dangling / nV)
        v += 1
      }
      r = next; it += 1
    }
    r
  }

  /** Exact driver-side connected-components reference (union-find). */
  def connectedComponentsReference(src: Array[Int], dst: Array[Int], nV: Int): Array[Int] = {
    val parent = Array.tabulate(nV)(identity)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    var i = 0
    while (i < src.length) {
      val a = find(src(i)); val b = find(dst(i))
      if (a != b) parent(math.max(a, b)) = math.min(a, b)
      i += 1
    }
    // component id = min vertex id in component
    Array.tabulate(nV)(find)
  }
}
