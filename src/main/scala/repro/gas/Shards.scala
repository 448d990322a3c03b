package repro.gas

import scala.collection.mutable
import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** One graph partition's edges — what one PowerGraph machine holds.
  *
  * @param part     graph partition id
  * @param vertices local→global vertex table, sorted ascending: the
  *                 vertices this partition holds a replica of
  * @param src      source of each edge, as an index into `vertices`
  * @param dst      destination of each edge, as an index into `vertices`
  */
final class Shard(val part: Int, val vertices: Array[Long], val src: Array[Int], val dst: Array[Int])
    extends Serializable {

  def numEdges: Int = src.length

  /** Out-degree of every local vertex over this shard's edges. */
  def outDegrees: Array[Int] = {
    val d = new Array[Int](vertices.length)
    var i = 0
    while (i < src.length) { d(src(i)) += 1; i += 1 }
    d
  }

  /** The local gather of one GAS iteration: for every local vertex v,
    * `op` folded from `zero` over `value(dense(u))` of each neighbour u on
    * an in-edge u→v, and also on an out-edge v→u when `undirected`.
    *
    * @param dense position of every local vertex in `value`
    * @return one partial per local vertex reached, as (dense id, partial)
    *         columns — the mirror→master messages of this partition
    */
  def gather(dense: Array[Int], value: Array[Double], zero: Double, undirected: Boolean)
            (op: (Double, Double) => Double): (Array[Int], Array[Double]) = {
    val acc = Array.fill(vertices.length)(zero)
    val reached = new Array[Boolean](vertices.length)
    var n = 0
    def reach(l: Int): Unit = if (!reached(l)) { reached(l) = true; n += 1 }
    var i = 0
    while (i < src.length) {
      val u = src(i); val v = dst(i)
      acc(v) = op(acc(v), value(dense(u))); reach(v)
      if (undirected) { acc(u) = op(acc(u), value(dense(v))); reach(u) }
      i += 1
    }
    val ids = new Array[Int](n); val partials = new Array[Double](n)
    var j = 0
    var l = 0
    while (l < vertices.length) {
      if (reached(l)) { ids(j) = dense(l); partials(j) = acc(l); j += 1 }
      l += 1
    }
    (ids, partials)
  }
}

object Shard {
  /** The shard of partition `part` holding the edges `src(i)→dst(i)`. */
  def apply(part: Int, src: Array[Long], dst: Array[Long]): Shard = {
    val vertices = Shards.sortedDistinct(Seq(src, dst))
    new Shard(part, vertices, Shards.indexIn(vertices, src), Shards.indexIn(vertices, dst))
  }
}

/** Sends graph partition `part` to Spark partition `part mod numPartitions`,
  * so one Spark task may hold several shards but a shard never spans two. */
private final class ByPart(val numPartitions: Int) extends Partitioner {
  def getPartition(key: Any): Int = Math.floorMod(key.asInstanceOf[Int], numPartitions)
}

/** Growing source and destination columns of one partition's edges. */
private final class Columns extends Serializable {
  val src = new mutable.ArrayBuilder.ofLong
  val dst = new mutable.ArrayBuilder.ofLong
  def add(e: (Long, Long)): Columns = { src += e._1; dst += e._2; this }
  def addAll(o: Columns): Columns = { src ++= o.src.result(); dst ++= o.dst.result(); this }
}

/** The substrate of the GAS engine and of [[VertexCutGraph.topology]]: a
  * vertex-cut placement as an RDD of [[Shard]]s, one per non-empty graph
  * partition, so gather runs over co-located primitive edge arrays and only
  * vertex values cross partitions. */
object Shards {

  /** Shards of an assignment DataFrame `(…, src, dst, part)`, built by one
    * shuffle keyed by `part` into `defaultParallelism` Spark partitions.
    * Edges are combined into primitive columns on the map side, so the
    * shuffle carries one record per (map task, graph partition). */
  def apply(assigned: DataFrame): RDD[Shard] = {
    val slices = assigned.sparkSession.sparkContext.defaultParallelism
    assigned.select("src", "dst", "part").rdd
      .map(r => (r.getInt(2), (r.getLong(0), r.getLong(1))))
      .combineByKey(new Columns().add(_), (c: Columns, e: (Long, Long)) => c.add(e),
        (a: Columns, b: Columns) => a.addAll(b), new ByPart(slices))
      .map { case (p, c) => Shard(p, c.src.result(), c.dst.result()) }
  }

  /** The distinct values of `tables`, sorted ascending. */
  def sortedDistinct(tables: Seq[Array[Long]]): Array[Long] = {
    val all = new Array[Long](tables.map(_.length).sum)
    var n = 0
    tables.foreach { t => System.arraycopy(t, 0, all, n, t.length); n += t.length }
    java.util.Arrays.sort(all)
    n = 0
    var i = 0
    while (i < all.length) {
      if (n == 0 || all(i) != all(n - 1)) { all(n) = all(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(all, n)
  }

  /** Position of every value of `xs` in `sorted`, which must hold them all. */
  def indexIn(sorted: Array[Long], xs: Array[Long]): Array[Int] = {
    val out = new Array[Int](xs.length)
    var i = 0
    while (i < xs.length) { out(i) = java.util.Arrays.binarySearch(sorted, xs(i)); i += 1 }
    out
  }
}
