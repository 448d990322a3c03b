package repro.gas

import repro.core.{Clugp, EdgeStream, Metrics}
import repro.partitioners.HashingPartitioner
import repro.{Oracle, SparkSpec, TestGraphs}

class VertexCutGraphSpec extends SparkSpec {

  test("topology counts agree with driver-side metrics") {
    val s = TestGraphs.tiny(spark).take(5000)
    val seen = (s.src ++ s.dst).distinct.length.toLong
    for (k <- Seq(4, 16)) {
      val part = Clugp.run(s, k).part
      val q = Metrics.evaluate(s, part, k)
      val topo = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, part), k)
      assert(topo.k == k)
      assert(topo.masters == seen)
      assert(topo.mirrors == q.numReplicas)
      assert(topo.replicas == q.numReplicas + seen)
      assert(math.abs(topo.replicationFactor - q.replicationFactor) < 1e-9)
      assert(topo.edgesPerPartition.toSeq == q.partitionSizes.toSeq)
      assert(topo.maxEdges == q.partitionSizes.max)
      assert(topo.messagesPerIteration == 2 * q.numReplicas)
    }
  }

  test("hand example topology") {
    // (0,1)->p0, (1,2)->p1: vertex 1 is mirrored
    val s = EdgeStream.fromPairs(Seq((1L, 2L), (2L, 3L)))
    val topo = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, Array(0, 1)), 2)
    assert(topo.masters == 3 && topo.replicas == 4 && topo.mirrors == 1)
    assert(topo.messagesPerIteration == 2)
    assert(topo.edgesPerPartition.toSeq == Seq(1L, 1L))
  }

  test("oracle: replica table cardinality matches DuckDB") {
    import spark.implicits._
    val s = TestGraphs.handStream
    val df = Metrics.assignmentDF(spark, s, Array(0, 1, 0, 1, 2, 2, 0, 1))
    val topo = VertexCutGraph.topology(df, 3)
    Oracle.assertEquivalent(Seq((topo.masters, topo.replicas)).toDF("masters", "replicas"),
      """SELECT COUNT(DISTINCT v) AS masters, COUNT(*) AS replicas FROM (
        |  SELECT DISTINCT v, part FROM (
        |    SELECT src AS v, part FROM assigned
        |    UNION ALL SELECT dst AS v, part FROM assigned
        |  )
        |)""".stripMargin,
      "assigned" -> df)
  }

  test("empty partitions report zero edges") {
    val s = EdgeStream.fromPairs(Seq((1L, 2L)))
    val topo = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, Array(0)), 4)
    assert(topo.edgesPerPartition.toSeq == Seq(1L, 0L, 0L, 0L))
    assert(topo.mirrors == 0)
  }

  test("topology is exact with empty partitions and with more partitions than Spark slices") {
    val s = TestGraphs.tiny(spark).take(5000)
    val wide = spark.sparkContext.defaultParallelism * 3 + 1
    val placements = Seq(
      7 -> Array.tabulate(s.numEdges)(i => if (s.src(i) % 3 == 0) 5 else 0),
      wide -> new HashingPartitioner().partition(s, wide).part)
    for ((k, part) <- placements) {
      val q = Metrics.evaluate(s, part, k)
      val topo = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, part), k)
      assert(topo.edgesPerPartition.toSeq == q.partitionSizes.toSeq, s"k=$k")
      assert(topo.mirrors == q.numReplicas, s"k=$k")
    }
  }

  test("partition ids outside [0,k) are rejected with the bad value") {
    val s = EdgeStream.fromPairs(Seq((1L, 2L), (2L, 3L)))
    for (bad <- Seq(4, -1)) {
      val e = intercept[IllegalArgumentException] {
        VertexCutGraph.topology(Metrics.assignmentDF(spark, s, Array(0, bad)), 4)
      }
      assert(e.getMessage.contains(s"partition $bad,"), e.getMessage)
    }
  }
}
