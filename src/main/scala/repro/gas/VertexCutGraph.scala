package repro.gas

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Master/mirror topology of a vertex-cut placement — what PowerGraph
  * materializes after loading a partitioned graph.
  *
  * @param k          number of partitions
  * @param masters    number of distinct vertices
  * @param replicas   Σ_v |P(v)| — rows of the replica table
  * @param mirrors    replicas − masters; one gather partial and one apply
  *                   sync cross the network per mirror per iteration
  * @param edgesPerPartition edges held by each partition (gather/scatter
  *                   work is proportional to this; the slowest partition
  *                   gates the bulk-synchronous iteration)
  */
final case class GasTopology(
    k: Int,
    masters: Long,
    replicas: Long,
    mirrors: Long,
    edgesPerPartition: Array[Long]) {
  /** Edges on the busiest partition — the per-iteration compute bound. */
  def maxEdges: Long = if (edgesPerPartition.isEmpty) 0 else edgesPerPartition.max
  /** Replication factor implied by the placement. */
  def replicationFactor: Double = if (masters == 0) 0 else replicas.toDouble / masters
  /** Messages per bulk-synchronous iteration: each mirror sends its
    * gather partial to the master and receives the applied value back. */
  def messagesPerIteration: Long = 2L * mirrors
}

/** Builds the master/mirror topology from an edge→partition assignment. */
object VertexCutGraph {

  /** @param assigned DataFrame `(id, src, dst, part)` */
  def topology(assigned: DataFrame, k: Int): GasTopology = {
    val replicasDf = assigned.select(col("src") as "v", col("part"))
      .union(assigned.select(col("dst") as "v", col("part")))
      .distinct()
    val replicas = replicasDf.count()
    val masters  = replicasDf.select("v").distinct().count()
    val sizes    = assigned.groupBy("part").agg(count(lit(1)) as "edges")
      .collect().map(r => (r.getInt(0), r.getLong(1))).toMap
    GasTopology(k, masters, replicas, replicas - masters,
      Array.tabulate(k)(p => sizes.getOrElse(p, 0L)))
  }
}
