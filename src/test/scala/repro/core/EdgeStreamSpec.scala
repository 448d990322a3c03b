package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs, WebGraphs}

class EdgeStreamSpec extends SparkSpec {

  /** The row ingest that `fromDF` replaced, kept as the reference: collect
    * every `Row`, sort by the `(src, id)` tuple (a stable sort), remap
    * through a boxed map by first appearance. */
  private def rowCollectReference(df: DataFrame): EdgeStream = {
    val rows = df.select("src", "dst", "id").collect().sortBy(r => (r.getLong(0), r.getLong(2)))
    val idOf = new java.util.HashMap[Long, Int]()
    def map(v: Long): Int = {
      var id = idOf.getOrDefault(v, -1)
      if (id < 0) { id = idOf.size(); idOf.put(v, id) }
      id
    }
    val s = new Array[Int](rows.length); val d = new Array[Int](rows.length)
    rows.indices.foreach { i => s(i) = map(rows(i).getLong(0)); d(i) = map(rows(i).getLong(1)) }
    new EdgeStream(s, d, idOf.size())
  }

  private def assertSameStream(a: EdgeStream, b: EdgeStream): Unit = {
    assert(a.numVertices == b.numVertices)
    assert(a.src.toSeq == b.src.toSeq)
    assert(a.dst.toSeq == b.dst.toSeq)
  }

  /** `rows` as a DataFrame of `parts` partitions, collected in `rows` order. */
  private def frame(rows: Seq[(Long, Long, Long)], parts: Int): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(rows, parts).toDF("src", "dst", "id")
  }

  test("fromPairs remaps ids densely by first appearance") {
    val s = EdgeStream.fromPairs(Seq((10L, 20L), (20L, 30L), (10L, 30L)))
    assert(s.numVertices == 3)
    assert(s.src.toSeq == Seq(0, 1, 0))
    assert(s.dst.toSeq == Seq(1, 2, 2))
  }

  test("fromPairs keeps stream order") {
    val s = EdgeStream.fromPairs(Seq((5L, 6L), (1L, 2L), (5L, 2L)))
    assert(s.numEdges == 3)
    // first edge is (5,6) -> densified (0,1)
    assert(s.src(0) == 0 && s.dst(0) == 1)
  }

  test("degrees counts both endpoints") {
    val s = TestGraphs.handStream
    assert(s.degrees.sum == 2 * s.numEdges)
    // vertex '1' (dense 0) has edges (1,2),(1,3),(6,1) -> degree 3
    assert(s.degrees(0) == 3)
  }

  test("shuffled preserves the edge multiset") {
    val s = TestGraphs.tiny(spark)
    val sh = s.shuffled(123)
    assert(sh.numEdges == s.numEdges && sh.numVertices == s.numVertices)
    def ms(x: EdgeStream) =
      x.src.indices.map(i => (x.src(i), x.dst(i))).groupBy(identity).view.mapValues(_.size).toMap
    assert(ms(sh) == ms(s))
  }

  test("shuffled is deterministic in the seed and changes the order") {
    val s = TestGraphs.tiny(spark)
    val a = s.shuffled(7); val b = s.shuffled(7); val c = s.shuffled(8)
    assert(a.src.toSeq == b.src.toSeq && a.dst.toSeq == b.dst.toSeq)
    assert(a.src.toSeq != c.src.toSeq || a.dst.toSeq != c.dst.toSeq)
    assert(a.src.toSeq != s.src.toSeq || a.dst.toSeq != s.dst.toSeq)
  }

  test("take returns a prefix") {
    val s = TestGraphs.tiny(spark)
    val t = s.take(100)
    assert(t.numEdges == 100)
    assert(t.src.toSeq == s.src.take(100).toSeq)
  }

  test("fromDF sorts by (src, id) — BFS order") {
    import spark.implicits._
    val df = Seq((3L, 1L, 0L), (1L, 2L, 1L), (1L, 3L, 2L), (2L, 3L, 3L))
      .toDF("src", "dst", "id")
    val s = EdgeStream.fromDF(df)
    // sorted stream: (1,2),(1,3),(2,3),(3,1); dense ids: 1->0,2->1,3->2
    assert(s.src.toSeq == Seq(0, 0, 1, 2))
    assert(s.dst.toSeq == Seq(1, 2, 2, 0))
  }

  test("oracle: degree computation via DataFrame matches DuckDB") {
    import org.apache.spark.sql.functions._
    val s = TestGraphs.handStream
    val edges = Metrics.assignmentDF(spark, s, new Array[Int](s.numEdges))
    val sparkDeg = edges.select(col("src") as "v")
      .union(edges.select(col("dst") as "v"))
      .groupBy("v").agg(count(lit(1)) as "degree")
    Oracle.assertEquivalent(sparkDeg,
      """SELECT v, COUNT(*) AS degree FROM (
        |  SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
        |) GROUP BY v""".stripMargin,
      "edges" -> edges)
  }

  test("oracle: per-source out-degree matches DuckDB") {
    import org.apache.spark.sql.functions._
    val s = TestGraphs.tiny(spark)
    val edges = Metrics.assignmentDF(spark, s, new Array[Int](s.numEdges)).limit(2000)
    val outDeg = edges.groupBy("src").agg(count(lit(1)) as "outdeg")
    Oracle.assertEquivalent(outDeg,
      "SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src",
      "edges" -> edges)
  }

  test("fromDF gives the row-collect reference's stream on the tiny web and social graphs") {
    for (spec <- Seq(WebGraphs.Tiny, WebGraphs.TinySocial)) {
      val df = spec.df(spark)
      val s = EdgeStream.fromDF(df)
      assert(s.numEdges > 20000, spec.name)
      assertSameStream(s, rowCollectReference(df))
    }
  }

  test("fromDF gives the reference's stream on 7 shuffled partitions") {
    val df = WebGraphs.Tiny.df(spark).repartition(7)
    assert(df.rdd.getNumPartitions == 7)
    val s = EdgeStream.fromDF(df)
    assertSameStream(s, rowCollectReference(df))
    assertSameStream(s, TestGraphs.tiny(spark))
  }

  test("fromDF gives the reference's stream on sparse 64-bit and negative vertex ids") {
    // v ↦ (v − 2000)·2³³ + 5: half the ids negative, all far apart
    def sparse(c: String) = (col(c) - 2000L) * (1L << 33) + 5L
    val df = WebGraphs.Tiny.df(spark).select(sparse("src") as "src", sparse("dst") as "dst", col("id"))
    val s = EdgeStream.fromDF(df)
    assertSameStream(s, rowCollectReference(df))
    assert(s.degrees.toSeq == TestGraphs.tiny(spark).degrees.toSeq)
    val extremes = frame(Seq((Long.MaxValue, Long.MinValue, 0L), (-1L, 0L, Long.MinValue),
      (Long.MinValue, -1L, Long.MaxValue), (0L, Long.MaxValue, -5L), (-1L, Long.MaxValue, -9L)), 2)
    val e = EdgeStream.fromDF(extremes)
    assertSameStream(e, rowCollectReference(extremes))
    assertSameStream(e, EdgeStream.fromPairs(Seq((Long.MinValue, -1L), (-1L, 0L),
      (-1L, Long.MaxValue), (0L, Long.MaxValue), (Long.MaxValue, Long.MinValue))))
  }

  test("fromDF keeps the collection order of equal (src, id) keys") {
    val rows = Seq((5L, 1L, 0L), (5L, 2L, 0L), (1L, 3L, 7L), (5L, 4L, 0L), (1L, 5L, 7L),
      (5L, 6L, -1L), (2L, 7L, 0L), (5L, 8L, 0L))
    val df = frame(rows, 3)
    val s = EdgeStream.fromDF(df)
    assertSameStream(s, rowCollectReference(df))
    assertSameStream(s, EdgeStream.fromPairs(Seq((1L, 3L), (1L, 5L), (2L, 7L), (5L, 6L),
      (5L, 1L), (5L, 2L), (5L, 4L), (5L, 8L))))
    // many ties spread over partitions of uneven size
    val rnd = new scala.util.Random(5)
    val many = Seq.tabulate(3000)(i => (rnd.nextInt(20).toLong, i.toLong, rnd.nextInt(4).toLong))
    for (parts <- Seq(1, 7, 64)) {
      val m = frame(many, parts)
      assertSameStream(EdgeStream.fromDF(m), rowCollectReference(m))
    }
  }

  test("fromDF of an empty DataFrame is the empty stream") {
    val df = frame(Seq.empty, 4)
    val s = EdgeStream.fromDF(df)
    assert(s.numEdges == 0 && s.numVertices == 0)
    assertSameStream(s, rowCollectReference(df))
  }

  test("fromDF rejects a null in any column, naming the column") {
    import spark.implicits._
    for ((name, j) <- Seq("src", "dst", "id").zipWithIndex) {
      def cell(r: Int, c: Int): Option[Long] = if (r == 2 && c == j) None else Some(10L * r + c)
      val df = Seq.tabulate(4)(r => (cell(r, 0), cell(r, 1), cell(r, 2))).toDF("src", "dst", "id")
      val e = intercept[IllegalArgumentException](EdgeStream.fromDF(df))
      assert(e.getMessage.contains(s"column $name holds a null"), e.getMessage)
    }
  }

  test("fromDF rejects a column that is not long, naming it") {
    import spark.implicits._
    val e = intercept[IllegalArgumentException](
      EdgeStream.fromDF(Seq((1L, 2, 0L)).toDF("src", "dst", "id")))
    assert(e.getMessage.contains("column dst must be long"), e.getMessage)
  }

  test("an edge count beyond Int.MaxValue is rejected, naming |E|") {
    assert(EdgeStream.edgeCount(Seq(Int.MaxValue - 1, 0, 1)) == Int.MaxValue)
    val e = intercept[IllegalArgumentException](EdgeStream.edgeCount(Seq(Int.MaxValue, 1)))
    assert(e.getMessage.contains("|E| = 2147483648"), e.getMessage)
  }

  test("fromColumns remaps sparse ids densely by first appearance") {
    val src = Array.tabulate(5000)(i => (i.toLong << 32) - 7L)
    val dst = Array.tabulate(5000)(i => -(i.toLong << 32))
    val s = EdgeStream.fromColumns(src, dst)
    assert(s.numVertices == 10000)
    assert(s.src.toSeq == (0 until 10000 by 2))
    assert(s.dst.toSeq == (1 until 10000 by 2))
    val again = EdgeStream.fromColumns(dst, src)
    assert(again.numVertices == 10000 && again.src(0) == 0 && again.dst(0) == 1)
  }
}
