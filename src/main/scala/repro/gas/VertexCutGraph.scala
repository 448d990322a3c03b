package repro.gas

import org.apache.spark.sql.DataFrame

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

  /** One job over the placement's [[Shards]]: each shard's edge count and
    * vertex table are collected, and the masters are the distinct
    * vertices across the tables.
    *
    * @param assigned DataFrame `(id, src, dst, part)` with every `part` in [0,k)
    */
  def topology(assigned: DataFrame, k: Int): GasTopology = {
    val shards = Shards(assigned).map(s => (s.part, s.numEdges.toLong, s.vertices)).collect()
    val edges = new Array[Long](k)
    shards.foreach { case (p, m, _) =>
      require(p >= 0 && p < k, s"edges assigned to partition $p, outside [0,$k)")
      edges(p) = m
    }
    val replicas = shards.map(_._3.length.toLong).sum
    val masters = Shards.sortedDistinct(shards.map(_._3).toSeq).length.toLong
    GasTopology(k, masters, replicas, replicas - masters, edges)
  }
}
