package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.partitioners.ReplicaTable

/** Partition-quality metrics of paper §II-B.
  *
  * @param replicationFactor `1/|V| Σ_v |P(v)|` — average number of
  *        partitions holding each vertex (1.0 = no replicas)
  * @param relativeBalance `k·max|p_i| / |E|` (1.0 = perfectly balanced)
  * @param partitionSizes  edges per partition
  * @param numReplicas     Σ_v (|P(v)| − 1) — mirror count, the per-iteration
  *        synchronization message unit of the GAS engine
  */
final case class PartitionQuality(
    replicationFactor: Double,
    relativeBalance: Double,
    partitionSizes: Array[Long],
    numReplicas: Long) {
  override def toString: String =
    f"PartitionQuality(rf=$replicationFactor%.4f, balance=$relativeBalance%.4f, " +
      s"mirrors=$numReplicas, k=${partitionSizes.length})"
}

/** Metric computations over an edge→partition assignment. */
object Metrics {

  /** Driver-side evaluation of an assignment (partition id per edge). */
  def evaluate(stream: EdgeStream, part: Array[Int], k: Int): PartitionQuality = {
    require(part.length == stream.numEdges, "assignment length != |E|")
    val nV = stream.numVertices
    val held = new ReplicaTable(nV, k)
    val sizes = new Array[Long](k)
    var i = 0
    while (i < part.length) {
      val p = part(i)
      require(p >= 0 && p < k, s"edge $i assigned to invalid partition $p")
      held.add(stream.src(i), p); held.add(stream.dst(i), p)
      sizes(p) += 1
      i += 1
    }
    var seen = 0L
    var v = 0
    while (v < nV) { if (!held.isEmpty(v)) seen += 1; v += 1 }
    val replicas = held.entries
    val rf  = if (seen == 0) 0.0 else replicas.toDouble / seen
    val bal = if (stream.numEdges == 0) 1.0 else k.toDouble * sizes.max / stream.numEdges
    PartitionQuality(rf, bal, sizes, replicas - seen)
  }

  /** DataFrame `(id, src, dst, part)` from a stream + assignment, the
    * input of the GAS engine and of [[repro.gas.VertexCutGraph.topology]].
    * It reads copies of the columns taken at the call. */
  def assignmentDF(spark: SparkSession, stream: EdgeStream, part: Array[Int]): DataFrame = {
    require(part.length == stream.numEdges, "assignment length != |E|")
    Frames.fromColumns(spark, (stream.src.clone(), stream.dst.clone(), part.clone()),
        stream.numEdges, "id", "src", "dst", "part") { (c, i) =>
      (i.toLong, c._1(i).toLong, c._2(i).toLong, c._3(i))
    }
  }
}
