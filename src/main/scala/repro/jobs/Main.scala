package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.desc
import repro.WebGraphs
import repro.WebGraphs.GraphSpec
import repro.core.{Clugp, EdgeStream, Metrics}
import repro.exp.Runner
import repro.gas.{GasEngine, NetworkModel, VertexCutGraph}

/** spark-submit entrypoint, one subcommand per experiment family:
  *
  *  - `partition <dataset> [k1,k2,...] [algo|all]` partitions the dataset
  *    with one or all of the six algorithms at each k and prints the
  *    quality/cost rows (paper Figs. 3, 6, 7);
  *  - `pagerank <dataset> [k] [iters] [rtt_ms]` places the dataset with
  *    CLUGP, runs PageRank on the GAS engine over the placement and
  *    prints the modelled computation/communication split (Fig. 8).
  *
  * e.g. `spark-submit --class repro.jobs.Main repro.jar partition uk-lite 64 all`
  */
object Main {

  sealed trait Command { def spec: GraphSpec }
  final case class Partition(spec: GraphSpec, ks: Seq[Int], algo: String) extends Command
  final case class PageRank(spec: GraphSpec, k: Int, iters: Int, rttMs: Double) extends Command

  private val usage =
    "usage: partition <dataset> [k1,k2,...] [algo|all]\n" +
    "       pagerank <dataset> [k] [iters] [rtt_ms]"

  /** The command `args` name, or a message saying why they name none. */
  def parse(args: Seq[String]): Either[String, Command] = {
    def lookup[A](what: String, s: String, valid: Seq[A])(name: A => String): Either[String, A] =
      valid.find(a => name(a).equalsIgnoreCase(s))
        .toRight(s"unknown $what '$s'; valid: ${valid.map(name).mkString(", ")}")
    def positive(what: String, s: String): Either[String, Int] =
      s.trim.toIntOption.filter(_ >= 1).toRight(s"$what must be a positive integer, got '$s'")
    val rest = args.drop(1)
    def arg(i: Int, default: String): String = rest.lift(i).getOrElse(default)
    val dataset = rest.headOption.toRight(s"missing dataset\n$usage")
      .flatMap(lookup("dataset", _, WebGraphs.all)(_.name))
    args.headOption match {
      case Some("partition") => for {
        spec <- dataset
        ks   <- { val (bad, ks) = arg(1, "64").split(",").toSeq.partitionMap(positive("k", _))
                  bad.headOption.toLeft(ks) }
        algo <- lookup("algo", arg(2, "all"), "all" +: Runner.allAlgorithms().map(_.name))(identity)
      } yield Partition(spec, ks, algo)
      case Some("pagerank") => for {
        spec  <- dataset
        k     <- positive("k", arg(1, "32"))
        iters <- positive("iters", arg(2, "10"))
        rtt   <- arg(3, "10").toDoubleOption.filter(_ >= 0)
                   .toRight(s"rtt_ms must be a non-negative number, got '${arg(3, "10")}'")
      } yield PageRank(spec, k, iters, rtt)
      case other =>
        Left(s"unknown subcommand '${other.getOrElse("")}'; valid: partition, pagerank\n$usage")
    }
  }

  def main(args: Array[String]): Unit = {
    val cmd = parse(args.toSeq) match {
      case Right(c) => c
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val spark = SparkSession.builder().appName("clugp")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val dataset = cmd.spec.name
      val stream = EdgeStream.fromDF(cmd.spec.df(spark))
      cmd match {
        case Partition(_, ks, algo) =>
          val rows = for (k <- ks; a <- Runner.allAlgorithms()
                          if algo == "all" || a.name == algo)
            yield Runner.run(dataset, stream, a, k).row
          println(Runner.table(
            Seq("dataset", "algo", "k", "rf", "balance", "time_ms", "space_bytes"), rows))
        case PageRank(_, k, iters, rttMs) =>
          val assigned = Metrics.assignmentDF(spark, stream, Clugp.run(stream, k).part)
          val topo  = VertexCutGraph.topology(assigned, k)
          val ranks = GasEngine.pageRank(spark, assigned, iters)
          val top = ranks.orderBy(desc("rank")).limit(5).collect()
          val model = NetworkModel(rttSeconds = rttMs / 1000.0)
          val (comp, comm) = model.split(topo)
          println(s"dataset=$dataset k=$k rf=${topo.replicationFactor} mirrors=${topo.mirrors}")
          println(f"modelled per-iteration: compute=$comp%.4fs communication=$comm%.4fs " +
            f"run(${iters}it)=${model.runSeconds(topo, iters)}%.2fs")
          println("top-5 pagerank: " + top.map(r => s"${r.getLong(0)}:${f"${r.getDouble(1)}%.6f"}").mkString(", "))
      }
    } finally spark.stop()
  }
}
