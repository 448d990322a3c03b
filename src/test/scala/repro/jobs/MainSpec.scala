package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.WebGraphs
import repro.jobs.Main.{PageRank, Partition}

/** Argument parsing of the job entrypoint. `Main.main` is not called:
  * its `spark.stop()` would stop the SparkSession the suite shares. */
class MainSpec extends AnyFunSuite {

  private def error(args: String*): String =
    Main.parse(args).swap.getOrElse(fail(s"${args.mkString(" ")} should not parse"))

  test("partition defaults to k=64 and every algorithm") {
    assert(Main.parse(Seq("partition", "uk-lite")) ==
      Right(Partition(WebGraphs.UKLite, Seq(64), "all")))
  }

  test("partition takes a k-list and one algorithm") {
    assert(Main.parse(Seq("partition", "it-lite", "4,16, 64", "hdrf")) ==
      Right(Partition(WebGraphs.ITLite, Seq(4, 16, 64), "HDRF")))
  }

  test("pagerank defaults to k=32, 10 iterations, 10 ms RTT") {
    assert(Main.parse(Seq("pagerank", "uk-lite")) ==
      Right(PageRank(WebGraphs.UKLite, 32, 10, 10.0)))
    assert(Main.parse(Seq("pagerank", "twitter-lite", "8", "3", "2.5")) ==
      Right(PageRank(WebGraphs.TwitterLite, 8, 3, 2.5)))
  }

  test("an unknown subcommand fails and lists the subcommands") {
    assert(error("sweep", "uk-lite").contains("valid: partition, pagerank"))
    assert(error().contains("valid: partition, pagerank"))
  }

  test("an unknown or missing dataset fails and lists the datasets") {
    val names = WebGraphs.all.map(_.name).mkString(", ")
    assert(error("partition", "uk").contains(s"unknown dataset 'uk'; valid: $names"))
    assert(error("pagerank").contains("missing dataset"))
  }

  test("an unknown algorithm or a non-positive k fails") {
    assert(error("partition", "uk-lite", "64", "metis").contains("valid: all, Hashing"))
    assert(error("partition", "uk-lite", "4,0").contains("k must be a positive integer, got '0'"))
    assert(error("pagerank", "uk-lite", "x").contains("k must be a positive integer"))
    assert(error("pagerank", "uk-lite", "32", "10", "-1").contains("rtt_ms"))
  }
}
