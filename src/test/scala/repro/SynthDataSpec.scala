package repro

import org.apache.spark.sql.functions._
import repro.core.EdgeStream

class SynthDataSpec extends SparkSpec {

  private lazy val tinyDf = WebGraphs.Tiny.df(spark).cache()

  test("webGraph is deterministic in its arguments") {
    val a = WebGraphs.Tiny.df(spark).orderBy("id").collect()
    val b = WebGraphs.Tiny.df(spark).orderBy("id").collect()
    assert(a.toSeq == b.toSeq)
  }

  test("webGraph has no self-loops") {
    assert(tinyDf.where(col("src") === col("dst")).count() == 0)
  }

  test("webGraph has no duplicate edges") {
    val n = tinyDf.count()
    assert(tinyDf.select("src", "dst").distinct().count() == n)
  }

  test("webGraph ids are within [1, nV]") {
    val spec = WebGraphs.Tiny
    val bad = tinyDf.where(
      col("src") < 1 || col("src") > spec.nV || col("dst") < 1 || col("dst") > spec.nV)
    assert(bad.count() == 0)
  }

  test("webGraph degree distribution is skewed (power-law-ish)") {
    val s = TestGraphs.tiny(spark)
    val degs = s.degrees.sorted(Ordering[Int].reverse)
    val avg = degs.sum.toDouble / degs.count(_ > 0)
    // hubs well above average, but bounded below V_max at k=256 (the
    // tiny graph's zipf range is compressed, so the bar is modest)
    assert(degs.head > 2.5 * avg, s"max degree ${degs.head} should dwarf avg $avg")
    assert(degs.head < s.numEdges / 4, "hub must stay below any sane V_max")
    // top-1% of vertices should hold a disproportionate share of degree
    val top = degs.take(math.max(1, degs.length / 100)).map(_.toLong).sum
    assert(top.toDouble / (2.0 * s.numEdges) > 0.02)
  }

  test("webGraph exhibits host locality; social graph does not") {
    def intraHostFrac(spec: WebGraphs.GraphSpec): Double = {
      val df = spec.df(spark)
      val h = (c: org.apache.spark.sql.Column) => floor((c - 1) / spec.hostSize.max(2L))
      df.select((h(col("src")) === h(col("dst"))).cast("int") as "i")
        .agg(avg("i")).collect()(0).getDouble(0)
    }
    val web = intraHostFrac(WebGraphs.Tiny)
    assert(web > 0.5, s"web graph should be host-local, got $web")
    // social graph has hostSize 1 — measure with the web graph's block size
    val soc = WebGraphs.TinySocial.df(spark)
    val blocked = soc.select(
      (floor((col("src") - 1) / 20) === floor((col("dst") - 1) / 20)).cast("int") as "i")
      .agg(avg("i")).collect()(0).getDouble(0)
    assert(blocked < 0.2, s"social graph should have no block locality, got $blocked")
  }

  test("sampleGraph keeps only the id prefix") {
    val spec = WebGraphs.Tiny
    val half = SynthData.sampleGraph(tinyDf, spec.nV, 0.5)
    val keep = (spec.nV * 0.5).toLong
    assert(half.where(col("src") > keep || col("dst") > keep).count() == 0)
    val full = tinyDf.count()
    val cnt  = half.count()
    assert(cnt > 0 && cnt < full)
  }

  test("sampleGraph(1.0) is the full graph") {
    val spec = WebGraphs.Tiny
    assert(SynthData.sampleGraph(tinyDf, spec.nV, 1.0).count() == tinyDf.count())
  }

  test("dataset specs produce graphs at their advertised scale") {
    // only the smallest real spec, to keep test time bounded
    val df = WebGraphs.UKLite.df(spark)
    val n  = df.count()
    assert(n > WebGraphs.UKLite.nE / 2, s"uk-lite realized $n edges")
    assert(n <= WebGraphs.UKLite.nE)
  }
}
