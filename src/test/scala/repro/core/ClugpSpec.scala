package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs, WebGraphs}
import repro.gas.VertexCutGraph

class ClugpSpec extends SparkSpec {

  test("end-to-end: complete, valid, balanced assignment") {
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(2, 4, 16, 64)) {
      val a = Clugp.run(s, k)
      assert(a.part.length == s.numEdges)
      assert(a.part.forall(p => p >= 0 && p < k))
      val q = Metrics.evaluate(s, a.part, k)
      assert(q.relativeBalance <= 1.0 + k.toDouble / s.numEdges + 1e-9,
        s"k=$k balance=${q.relativeBalance}")
    }
  }

  test("deterministic end to end") {
    val s = TestGraphs.tiny(spark)
    val a = Clugp.run(s, 8)
    val b = Clugp.run(s, 8)
    assert(a.part.toSeq == b.part.toSeq)
  }

  test("variant names reflect the configuration") {
    assert(new Clugp().name == "CLUGP")
    assert(new Clugp(ClugpConfig(splitting = false)).name == "CLUGP-S")
    assert(new Clugp(ClugpConfig(gameMode = GreedyPlacement)).name == "CLUGP-G")
    assert(new Clugp().preferredOrder == "bfs")
  }

  test("CLUGP beats the hashing family on a web graph (Fig. 3 ordering)") {
    val s = TestGraphs.tiny(spark)
    val k = 16
    val clugp = Metrics.evaluate(s, Clugp.run(s, k).part, k).replicationFactor
    val hash = Metrics.evaluate(s,
      new repro.partitioners.HashingPartitioner().partition(s, k).part, k).replicationFactor
    val dbh = Metrics.evaluate(s,
      new repro.partitioners.DbhPartitioner().partition(s, k).part, k).replicationFactor
    assert(clugp < dbh && dbh < hash, s"clugp=$clugp dbh=$dbh hash=$hash")
  }

  test("game placement beats greedy placement (Fig. 9 CLUGP vs CLUGP-G)") {
    val s = TestGraphs.tiny(spark)
    val k = 32
    val game = Metrics.evaluate(s, Clugp.run(s, k).part, k).replicationFactor
    val greedy = Metrics.evaluate(s,
      Clugp.run(s, k, ClugpConfig(gameMode = GreedyPlacement)).part, k).replicationFactor
    assert(game <= greedy * 1.02, s"game=$game greedy=$greedy")
  }

  test("lastStats reports pass timings and game telemetry") {
    val s = TestGraphs.tiny(spark)
    val c = new Clugp(ClugpConfig(gameMode = SequentialGame))
    c.partition(s, 8)
    val st = c.lastStats
    assert(st.numClusters > 0)
    assert(st.clusteringMs >= 0 && st.gameMs >= 0 && st.transformMs >= 0)
    assert(st.gameRounds > 0)
  }

  test("out-of-range configurations are rejected with a clear message") {
    val w = intercept[IllegalArgumentException] { ClugpConfig(weight = 1.0) }
    assert(w.getMessage.contains("weight must lie in (0, 1), got 1.0"))
    intercept[IllegalArgumentException] { ClugpConfig(weight = 0.0) }
    intercept[IllegalArgumentException] { ClugpConfig(tau = 0.9) }
    intercept[IllegalArgumentException] { ClugpConfig(vMaxFactor = 0.0) }
    val k = intercept[IllegalArgumentException] { Clugp.run(TestGraphs.handStream, 0) }
    assert(k.getMessage.contains("k must be >= 1, got 0"))
  }

  test("tau shapes the balance bound") {
    val s = TestGraphs.tiny(spark)
    for (tau <- Seq(1.0, 1.2, 1.5)) {
      val a = Clugp.run(s, 16, ClugpConfig(tau = tau))
      val q = Metrics.evaluate(s, a.part, 16)
      assert(q.relativeBalance <= tau + 16.0 / s.numEdges + 1e-9)
    }
  }

  test("space accounting is O(|V|) plus cluster state") {
    val s = TestGraphs.tiny(spark)
    val a = Clugp.run(s, 8)
    assert(a.spaceBytes >= 8L * s.numVertices)
    assert(a.spaceBytes < 64L * s.numVertices + 16L * s.numEdges)
  }

  test("distributed mode assigns every edge exactly once") {
    val df = WebGraphs.Tiny.df(spark)
    val n = df.count()
    val assigned = Clugp.partitionDistributed(spark, df, 8, numSlices = 4)
    assert(assigned.count() == n)
    assert(assigned.select("id").distinct().count() == n)
    assert(assigned.where(col("part") < 0 || col("part") >= 8).count() == 0)
  }

  test("distributed mode places each slice as Clugp.run on the slice in (src, id) order") {
    val df = WebGraphs.Tiny.df(spark).repartition(5)
    val slices = Clugp.partitionDistributed(spark, df, 8, numSlices = 4).rdd
      .mapPartitions { rows =>
        Iterator(rows.map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getInt(3))).toArray)
      }.collect().filter(_.nonEmpty)
    assert(slices.length > 1)
    // the slices are contiguous ranges of the (src, id) order, each sorted
    val keys = slices.toSeq.flatMap(_.map { case (i, s, _, _) => (s, i) })
    assert(keys == keys.sorted && keys.distinct.length == keys.length)
    slices.foreach { slice =>
      val local = EdgeStream.fromPairs(slice.map { case (_, s, d, _) => (s, d) }.toIndexedSeq)
      assert(slice.map(_._4).toSeq == Clugp.run(local, 8).part.toSeq)
    }
  }

  test("distributed mode quality is close to single-node quality") {
    val df = WebGraphs.Tiny.df(spark)
    val s = TestGraphs.tiny(spark)
    val local = Metrics.evaluate(s, Clugp.run(s, 8).part, 8).replicationFactor
    val assigned = Clugp.partitionDistributed(spark, df, 8, numSlices = 4)
    val dist = VertexCutGraph.topology(assigned, 8).replicationFactor
    // slices lose cross-slice structure; allow a modest degradation
    assert(dist < local * 1.8 + 0.5, s"dist=$dist local=$local")
    // and distributed partitioning must still beat hashing
    val hash = Metrics.evaluate(s,
      new repro.partitioners.HashingPartitioner().partition(s, 8).part, 8).replicationFactor
    assert(dist < hash)
  }

  test("oracle: distributed assignment balance via DuckDB") {
    import spark.implicits._
    val df = WebGraphs.Tiny.df(spark)
    val assigned = Clugp.partitionDistributed(spark, df, 4, numSlices = 2)
    val sizes = VertexCutGraph.topology(assigned, 4).edgesPerPartition.zipWithIndex
      .collect { case (edges, p) if edges > 0 => (p, edges) }
    Oracle.assertEquivalent(sizes.toSeq.toDF("part", "edges"),
      "SELECT part, COUNT(*) AS edges FROM assigned GROUP BY part ORDER BY part",
      "assigned" -> assigned)
  }

  test("weight parameter moves lambda without breaking the pipeline") {
    val s = TestGraphs.tiny(spark)
    for (w <- Seq(0.1, 0.5, 0.9)) {
      val a = Clugp.run(s, 8, ClugpConfig(weight = w))
      assert(a.part.length == s.numEdges)
      val q = Metrics.evaluate(s, a.part, 8)
      assert(q.replicationFactor >= 1.0)
    }
  }
}
