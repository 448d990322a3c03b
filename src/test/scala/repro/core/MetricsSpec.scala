package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.gas.VertexCutGraph

class MetricsSpec extends SparkSpec {

  test("replication factor on a hand example") {
    // edges (0,1),(0,2) split across partitions 0 and 1:
    // P(0)={0,1}, P(1)={0}, P(2)={1} -> rf = 4/3
    val s = EdgeStream.fromPairs(Seq((1L, 2L), (1L, 3L)))
    val q = Metrics.evaluate(s, Array(0, 1), 2)
    assert(math.abs(q.replicationFactor - 4.0 / 3.0) < 1e-12)
    assert(q.numReplicas == 1)
    assert(q.partitionSizes.toSeq == Seq(1L, 1L))
    assert(q.relativeBalance == 1.0)
  }

  test("rf = 1 when every vertex stays in one partition") {
    val s = EdgeStream.fromPairs(Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    val q = Metrics.evaluate(s, Array(0, 0, 0), 4)
    assert(q.replicationFactor == 1.0)
    assert(q.numReplicas == 0)
    assert(q.relativeBalance == 4.0) // all edges on 1 of 4 partitions
  }

  test("invalid partition ids are rejected") {
    val s = EdgeStream.fromPairs(Seq((1L, 2L)))
    intercept[IllegalArgumentException] { Metrics.evaluate(s, Array(7), 2) }
    intercept[IllegalArgumentException] { Metrics.evaluate(s, Array(-1), 2) }
  }

  test("assignment length must match the stream") {
    val s = EdgeStream.fromPairs(Seq((1L, 2L), (2L, 3L)))
    intercept[IllegalArgumentException] { Metrics.evaluate(s, Array(0), 2) }
  }

  test("bitset path works beyond 64 partitions") {
    // star around vertex 1 across 100 partitions
    val n = 100
    val s = EdgeStream.fromPairs((1 to n).map(i => (0L, i.toLong)))
    val q = Metrics.evaluate(s, Array.tabulate(n)(identity), n)
    assert(q.replicationFactor == (n + n).toDouble / (n + 1))
    assert(q.partitionSizes.forall(_ == 1L))
  }

  test("driver metrics match the DataFrame metrics") {
    val s = TestGraphs.tiny(spark)
    val part = new repro.partitioners.DbhPartitioner().partition(s, 8).part
    val q = Metrics.evaluate(s, part, 8)
    val topo = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, part), 8)
    assert(math.abs(topo.replicationFactor - q.replicationFactor) < 1e-9)
    assert(topo.masters == s.numVertices)
    assert(topo.replicas == q.numReplicas + s.numVertices)
    assert(topo.edgesPerPartition.toSeq == q.partitionSizes.toSeq)
  }

  test("oracle: DataFrame replication factor matches DuckDB") {
    import spark.implicits._
    val s = TestGraphs.handStream
    val part = Array(0, 1, 0, 1, 2, 2, 0, 1)
    val df = Metrics.assignmentDF(spark, s, part)
    val topo = VertexCutGraph.topology(df, 3)
    Oracle.assertEquivalent(
      Seq((topo.replicationFactor, topo.masters, topo.replicas)).toDF("rf", "vertices", "replicas"),
      """SELECT AVG(np) AS rf, COUNT(*) AS vertices, SUM(np) AS replicas FROM (
        |  SELECT v, COUNT(DISTINCT part) AS np FROM (
        |    SELECT src AS v, part FROM assigned
        |    UNION SELECT dst AS v, part FROM assigned
        |  ) GROUP BY v
        |)""".stripMargin,
      "assigned" -> df)
  }

  test("oracle: DataFrame partition sizes match DuckDB") {
    import spark.implicits._
    val s = TestGraphs.tiny(spark)
    val part = new repro.partitioners.HashingPartitioner().partition(s, 16).part
    val df = Metrics.assignmentDF(spark, s, part)
    val sizes = VertexCutGraph.topology(df, 16).edgesPerPartition.zipWithIndex
      .collect { case (edges, p) if edges > 0 => (p, edges) }
    Oracle.assertEquivalent(sizes.toSeq.toDF("part", "edges"),
      "SELECT part, COUNT(*) AS edges FROM assigned GROUP BY part ORDER BY part",
      "assigned" -> df)
  }

  test("assignmentDF roundtrips the stream and the assignment") {
    val s = TestGraphs.handStream
    val part = Array(0, 1, 0, 1, 2, 2, 0, 1)
    val back = Metrics.assignmentDF(spark, s, part).orderBy("id").collect()
    assert(back.map(_.getLong(0)).toSeq == s.src.indices.map(_.toLong))
    assert(back.map(_.getLong(1)).toSeq == s.src.map(_.toLong).toSeq)
    assert(back.map(_.getLong(2)).toSeq == s.dst.map(_.toLong).toSeq)
    assert(back.map(_.getInt(3)).toSeq == part.toSeq)
  }

  test("assignmentDF keeps its schema, and is empty for an empty stream") {
    import org.apache.spark.sql.types._
    val schema = StructType(Seq(
      StructField("id", LongType, nullable = false), StructField("src", LongType, nullable = false),
      StructField("dst", LongType, nullable = false), StructField("part", IntegerType, nullable = false)))
    assert(Metrics.assignmentDF(spark, TestGraphs.handStream, new Array[Int](8)).schema == schema)
    val empty = Metrics.assignmentDF(spark, new EdgeStream(Array.empty, Array.empty, 0), Array.empty)
    assert(empty.schema == schema)
    assert(empty.count() == 0)
  }

  test("a replica table too large to index is rejected before allocation") {
    // 600M vertices x 4 words at k = 256 exceeds Int.MaxValue array slots
    val s = new EdgeStream(Array.empty, Array.empty, 600_000_000)
    val e = intercept[IllegalArgumentException] { Metrics.evaluate(s, Array.empty, 256) }
    assert(e.getMessage.contains("exceeds"))
  }

  test("oracle: mirror counts per partition match DuckDB") {
    val s = TestGraphs.handStream
    val part = Array(0, 1, 0, 1, 2, 2, 0, 1)
    val df = Metrics.assignmentDF(spark, s, part)
    val mirrorsPerPart = df.select(col("src") as "v", col("part"))
      .union(df.select(col("dst") as "v", col("part"))).distinct()
      .groupBy("part").agg(count(lit(1)) as "verts").orderBy("part")
    Oracle.assertEquivalent(mirrorsPerPart,
      """SELECT part, COUNT(*) AS verts FROM (
        |  SELECT DISTINCT v, part FROM (
        |    SELECT src AS v, part FROM assigned
        |    UNION ALL SELECT dst AS v, part FROM assigned
        |  )
        |) GROUP BY part ORDER BY part""".stripMargin,
      "assigned" -> df)
  }
}
