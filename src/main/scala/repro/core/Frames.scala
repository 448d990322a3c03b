package repro.core

import scala.reflect.ClassTag
import scala.reflect.runtime.universe.TypeTag
import org.apache.spark.sql.{DataFrame, SparkSession}

/** DataFrames over rows the driver holds as primitive columns. */
private[repro] object Frames {

  /** The DataFrame of rows `row(cols, i)` for i in [0,n), with columns
    * `names`. `cols` is broadcast once and the rows are read from it in
    * `defaultParallelism` slices, so no task carries the rows themselves —
    * as a local `Seq` they would ride inside every task that reads them.
    * `row` is shipped with each task, so it must capture nothing large. */
  def fromColumns[C: ClassTag, R <: Product : ClassTag : TypeTag](
      spark: SparkSession, cols: C, n: Int, names: String*)(row: (C, Int) => R): DataFrame = {
    import spark.implicits._
    val sc = spark.sparkContext
    val b = sc.broadcast(cols)
    val slices = sc.defaultParallelism
    sc.parallelize(0 until slices, slices).flatMap { s =>
      val c = b.value
      Iterator.range((n.toLong * s / slices).toInt, (n.toLong * (s + 1) / slices).toInt).map(row(c, _))
    }.toDF(names: _*)
  }
}
