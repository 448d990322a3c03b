package org.apache.spark

/** Lets the benchmark wait until Spark has delivered every pending
  * listener event, so counters read at a layer boundary include all work
  * the layer caused. The listener bus is package-private to Spark. */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
