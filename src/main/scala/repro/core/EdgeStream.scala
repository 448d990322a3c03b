package repro.core

import org.apache.spark.sql.DataFrame

/** A materialized edge stream: the paper's `G_S = {e_1 … e_|E|}`.
  *
  * Vertex ids are dense 0-based ints (remapped from the generator's
  * 1-based longs); edges are stored column-wise so the single-pass
  * streaming partitioners touch primitive arrays only. Order of the
  * arrays IS the stream order.
  *
  * @param src source vertex of each edge, in stream order
  * @param dst destination vertex of each edge, in stream order
  * @param numVertices number of distinct vertices (= max id + 1)
  */
final class EdgeStream(val src: Array[Int], val dst: Array[Int], val numVertices: Int) {
  require(src.length == dst.length, "src/dst length mismatch")

  /** Number of edges |E|. */
  def numEdges: Int = src.length

  /** Out+in degree of every vertex over the whole stream. */
  lazy val degrees: Array[Int] = {
    val d = new Array[Int](numVertices)
    var i = 0
    while (i < src.length) { d(src(i)) += 1; d(dst(i)) += 1; i += 1 }
    d
  }

  /** The stream with edges in a deterministic pseudo-random order — the
    * paper runs HDRF/Greedy/Hashing/DBH on random order ("best order for
    * each competitor", §VI-A).
    */
  def shuffled(seed: Long): EdgeStream = {
    val n    = numEdges
    val perm = Array.tabulate(n)(identity)
    val rnd  = new scala.util.Random(seed)
    var i = n - 1
    while (i > 0) { // Fisher–Yates
      val j = rnd.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i -= 1
    }
    val s2 = new Array[Int](n); val d2 = new Array[Int](n)
    i = 0
    while (i < n) { s2(i) = src(perm(i)); d2(i) = dst(perm(i)); i += 1 }
    new EdgeStream(s2, d2, numVertices)
  }

  /** Prefix of the stream (first `n` edges) — used by slice-wise
    * distributed runs and tests. */
  def take(n: Int): EdgeStream = {
    val m = math.min(n, numEdges)
    new EdgeStream(src.take(m), dst.take(m), numVertices)
  }
}

object EdgeStream {

  /** Build the BFS-ordered stream from a generator DataFrame with
    * columns `(src, dst, id)`: edges are sorted by `(src, id)` — vertex
    * ids are crawl-order, so source-sorted arrival is the BFS order the
    * paper assumes — and vertex ids are remapped to dense 0-based ints
    * in first-appearance order.
    */
  def fromDF(edges: DataFrame): EdgeStream = {
    val rows = edges.select("src", "dst", "id").collect()
    fromPairs(rows.sortBy(r => (r.getLong(0), r.getLong(2)))
      .map(r => (r.getLong(0), r.getLong(1))).toIndexedSeq)
  }

  /** Build a stream from (src, dst) pairs already in stream order,
    * remapping arbitrary long ids to dense 0-based ints by first
    * appearance. */
  def fromPairs(pairs: Seq[(Long, Long)]): EdgeStream = {
    val idOf = new java.util.HashMap[Long, Int]()
    def map(v: Long): Int = {
      var id = idOf.getOrDefault(v, -1)
      if (id < 0) { id = idOf.size(); idOf.put(v, id) }
      id
    }
    val n = pairs.length
    val s = new Array[Int](n); val d = new Array[Int](n)
    var i = 0
    pairs.foreach { case (u, v) => s(i) = map(u); d(i) = map(v); i += 1 }
    new EdgeStream(s, d, idOf.size())
  }
}
