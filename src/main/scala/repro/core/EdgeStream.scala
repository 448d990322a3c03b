package repro.core

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.LongType

/** A materialized edge stream: the paper's `G_S = {e_1 … e_|E|}`.
  *
  * Vertex ids are dense 0-based ints, remapped from arbitrary long ids in
  * first-appearance order; edges are stored column-wise so the single-pass
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

  private val ColumnNames = Seq("src", "dst", "id")

  /** Build the BFS-ordered stream from a DataFrame with long columns
    * `(src, dst, id)`: edges are sorted by `(src, id)` — vertex ids are
    * crawl-order, so source-sorted arrival is the BFS order the paper
    * assumes — and vertex ids are remapped to dense 0-based ints in
    * first-appearance order.
    *
    * Columnar: each Spark partition reads its rows into primitive
    * `src`/`dst`/`id` columns and sorts them by `(src, id)`; the driver
    * concatenates the sorted chunks and merges them, the earlier chunk
    * winning ties. Equal `(src, id)` keys therefore keep their collection
    * order, as a stable sort of the collected rows would.
    */
  def fromDF(edges: DataFrame): EdgeStream = {
    ColumnNames.foreach { c =>
      val t = edges.schema(c).dataType
      require(t == LongType, s"EdgeStream.fromDF: column $c must be long, got ${t.simpleString}")
    }
    val chunks = edges.select(ColumnNames.head, ColumnNames.tail: _*).queryExecution.toRdd
      .mapPartitions { rows =>
        val cols = Array.fill(3)(new mutable.ArrayBuilder.ofLong)
        var nullIn = -1
        while (nullIn < 0 && rows.hasNext) {
          val r = rows.next()
          var j = 0
          while (j < 3) { if (r.isNullAt(j)) nullIn = j else cols(j) += r.getLong(j); j += 1 }
        }
        val Array(src, dst, id) = cols.map(_.result())
        Iterator((nullIn,
          if (nullIn >= 0) Array.fill(3)(Array.emptyLongArray) else inStreamOrder(src, dst, id)))
      }.collect()
    chunks.foreach { case (nullIn, _) =>
      require(nullIn < 0, s"EdgeStream.fromDF: column ${ColumnNames(nullIn)} holds a null")
    }
    val lengths = chunks.map(_._2(0).length)
    val n = edgeCount(lengths)
    val Array(src, dst, id) = Array.tabulate(3)(j => concat(chunks.map(_._2(j)), n))
    val order = stableOrder(src, id, lengths.scanLeft(0)(_ + _))
    fromColumns(permute(src, order), permute(dst, order))
  }

  /** Build a stream from (src, dst) pairs already in stream order,
    * remapping arbitrary long ids to dense 0-based ints by first
    * appearance. */
  def fromPairs(pairs: Seq[(Long, Long)]): EdgeStream = {
    val src = new Array[Long](pairs.length); val dst = new Array[Long](pairs.length)
    var i = 0
    pairs.foreach { case (u, v) => src(i) = u; dst(i) = v; i += 1 }
    fromColumns(src, dst)
  }

  /** Build a stream from source and destination columns already in stream
    * order, remapping arbitrary long ids to dense 0-based ints by first
    * appearance — the one remap of every ingest path. */
  def fromColumns(src: Array[Long], dst: Array[Long]): EdgeStream = {
    require(src.length == dst.length, "src/dst length mismatch")
    val ids = new DenseIds
    val s = new Array[Int](src.length); val d = new Array[Int](src.length)
    var i = 0
    while (i < src.length) { s(i) = ids(src(i)); d(i) = ids(dst(i)); i += 1 }
    new EdgeStream(s, d, ids.size)
  }

  /** The columns `(src, dst, id)` of one chunk of edges, reordered by
    * `(src, id)` into the chunk's stream order; equal keys keep their order. */
  private[core] def inStreamOrder(src: Array[Long], dst: Array[Long],
                                   id: Array[Long]): Array[Array[Long]] = {
    val order = stableOrder(src, id, Array.range(0, src.length + 1))
    Array(src, dst, id).map(permute(_, order))
  }

  /** Number of edges in chunks of the given lengths; the stream indexes
    * its edges by `Int`, so the sum, taken as a `Long`, must fit one. */
  private[core] def edgeCount(chunkLengths: Iterable[Int]): Int = {
    val n = chunkLengths.foldLeft(0L)(_ + _)
    require(n <= Int.MaxValue, s"EdgeStream: |E| = $n edges exceeds the limit of ${Int.MaxValue}")
    n.toInt
  }

  private def concat(parts: Array[Array[Long]], n: Int): Array[Long] = {
    val all = new Array[Long](n)
    var off = 0
    parts.foreach { p => System.arraycopy(p, 0, all, off, p.length); off += p.length }
    all
  }

  private def permute(xs: Array[Long], order: Array[Int]): Array[Long] = {
    val out = new Array[Long](order.length)
    var i = 0
    while (i < order.length) { out(i) = xs(order(i)); i += 1 }
    out
  }

  /** Indices [0, |a|) in stable `(a(i), b(i))` order, where every run
    * `[bounds(r), bounds(r+1))` is already in that order: bottom-up merges
    * of adjacent runs, the left run winning ties. */
  private def stableOrder(a: Array[Long], b: Array[Long], bounds: Array[Int]): Array[Int] = {
    var from = Array.range(0, a.length)
    var to = new Array[Int](a.length)
    var runs = bounds
    while (runs.length > 2) {
      val r = runs.length - 1
      val next = new Array[Int]((r + 1) / 2 + 1)
      var j = 0
      while (j < r) {
        val lo = runs(j); val mid = runs(math.min(j + 1, r)); val hi = runs(math.min(j + 2, r))
        var x = lo; var y = mid; var o = lo
        while (o < hi) {
          if (y >= hi || (x < mid && !before(a, b, from(y), from(x)))) { to(o) = from(x); x += 1 }
          else { to(o) = from(y); y += 1 }
          o += 1
        }
        next(j / 2) = lo
        j += 2
      }
      next(next.length - 1) = a.length
      val t = from; from = to; to = t
      runs = next
    }
    from
  }

  @inline private def before(a: Array[Long], b: Array[Long], p: Int, q: Int): Boolean =
    a(p) < a(q) || (a(p) == a(q) && b(p) < b(q))
}

/** Dense ids 0, 1, 2, … for arbitrary long keys in first-appearance order:
  * an open-addressing table with linear probing, doubled at half load. */
private final class DenseIds {
  private var keys = new Array[Long](16)
  private var ids = Array.fill(16)(-1)
  private var shift = 64 - 4
  private var n = 0

  /** Number of distinct keys seen. */
  def size: Int = n

  private def slot(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt

  /** The id of `key`, assigning the next one if it is new. */
  def apply(key: Long): Int = {
    val mask = keys.length - 1
    var i = slot(key)
    while (ids(i) >= 0) {
      if (keys(i) == key) return ids(i)
      i = (i + 1) & mask
    }
    keys(i) = key; ids(i) = n; n += 1
    if (2L * n > keys.length) grow()
    n - 1
  }

  private def grow(): Unit = {
    val capacity = 2L * keys.length
    require(capacity <= (1 << 30), s"EdgeStream: more than ${1 << 29} distinct vertices")
    val (oldKeys, oldIds) = (keys, ids)
    keys = new Array[Long](capacity.toInt)
    ids = Array.fill(capacity.toInt)(-1)
    shift -= 1
    val mask = keys.length - 1
    var j = 0
    while (j < oldKeys.length) {
      if (oldIds(j) >= 0) {
        var i = slot(oldKeys(j))
        while (ids(i) >= 0) i = (i + 1) & mask
        keys(i) = oldKeys(j); ids(i) = oldIds(j)
      }
      j += 1
    }
  }
}
