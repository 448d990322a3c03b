package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark work counted by [[SparkCounters]]; subtract two readings to get
  * the work done between them. */
final case class SparkCounts(jobs: Long, shuffleRecords: Long, shuffleBytes: Long,
                             resultBytes: Long, taskRunMs: Long) {
  def -(o: SparkCounts): SparkCounts = SparkCounts(jobs - o.jobs,
    shuffleRecords - o.shuffleRecords, shuffleBytes - o.shuffleBytes,
    resultBytes - o.resultBytes, taskRunMs - o.taskRunMs)
}

/** Benchmark-owned listener: jobs started, shuffle records and bytes
  * written, bytes of task results collected and task run time. */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val jobs = new AtomicLong
  private val shuffleRecords = new AtomicLong
  private val shuffleBytes = new AtomicLong
  private val resultBytes = new AtomicLong
  private val taskRunMs = new AtomicLong
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      shuffleRecords.addAndGet(m.shuffleWriteMetrics.recordsWritten)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      resultBytes.addAndGet(m.resultSize)
      taskRunMs.addAndGet(m.executorRunTime)
    }
  }

  /** Counts after every event already posted has been delivered. */
  def read(): SparkCounts = {
    PerfbenchBus.drain(sc)
    SparkCounts(jobs.get, shuffleRecords.get, shuffleBytes.get, resultBytes.get, taskRunMs.get)
  }
}

/** Process-wide clocks read at a layer boundary. */
object Clocks {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq
    .filter(_.getType == java.lang.management.MemoryType.HEAP)

  def cpuNs: Long = os.getProcessCpuTime
  def gcMs: Long = gcs.map(g => math.max(0L, g.getCollectionTime)).sum

  // largest heap in use right after a collection: the live data plus old
  // garbage not yet collected, without the young space that merely waits
  // for the next collection
  @volatile private var afterGcPeak = 0L
  gcs.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener(
    (n: Notification, _: AnyRef) =>
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val after = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          .getGcInfo.getMemoryUsageAfterGc.asScala
        val used = heapPools.map(p => after.get(p.getName).map(_.getUsed).getOrElse(0L)).sum
        afterGcPeak = math.max(afterGcPeak, used)
      }, null, null))

  def resetHeapPeak(): Unit = afterGcPeak = 0L
  /** Largest heap in use after a collection since [[resetHeapPeak]], in MiB. */
  def heapPeakMb: Double = afterGcPeak / (1024.0 * 1024.0)
}

/** Where the workloads report layer boundaries and layer counts. The
  * untraced implementation only runs the body. */
trait Spans {
  def traced: Boolean
  def apply[T](name: String, detail: String = "")(body: => T): T
  def count(key: String, value: Double): Unit
}

object NoSpans extends Spans {
  def traced = false
  def apply[T](name: String, detail: String)(body: => T): T = body
  def count(key: String, value: Double): Unit = ()
}

/** One closed span. Times are nanoseconds of `System.nanoTime`; `parent`
  * is the id of the enclosing span or -1, and `root` the name of the
  * outermost span around it (its own name if it has no parent). */
final case class Span(id: Int, name: String, detail: String, parent: Int, root: String,
                      startNs: Long, endNs: Long, cpuNs: Long, gcMs: Long,
                      spark: SparkCounts) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Keeps spans and counts in memory; [[json]] writes them out at the end.
  * A count is kept under the root span that was open when it was recorded. */
final class Tracer(counters: SparkCounters) extends Spans {
  def traced = true
  val spans = mutable.ArrayBuffer.empty[Span]
  val counts = mutable.LinkedHashMap.empty[(String, String), Double]
  private var open = List.empty[(Int, String)]
  private var nextId = 0
  /** Time spent reading clocks and counters at span boundaries. */
  var bookkeepingNs = 0L

  def apply[T](name: String, detail: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    open = (id, name) :: open
    val root = open.last._2
    val b0 = System.nanoTime()
    val spark0 = counters.read()
    val gc0 = Clocks.gcMs; val cpu0 = Clocks.cpuNs; val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime(); val cpu1 = Clocks.cpuNs; val gc1 = Clocks.gcMs
      val spark1 = counters.read()
      open = open.tail
      spans += Span(id, name, detail, parent, root, t0, t1, cpu1 - cpu0, gc1 - gc0, spark1 - spark0)
      bookkeepingNs += (t0 - b0) + (System.nanoTime() - t1)
    }
  }

  def count(key: String, value: Double): Unit = {
    val k = (open.lastOption.map(_._2).getOrElse(""), key)
    counts(k) = counts.getOrElse(k, 0.0) + value
  }

  def layerSpans(layer: String, root: String): Seq[Span] =
    spans.toSeq.filter(s => s.name == layer && s.root == root)

  def json: String = {
    val t0 = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    spans.sortBy(_.startNs).map { s =>
      s"""{"id": ${s.id}, "name": "${s.name}", "detail": "${s.detail}", "parent": ${s.parent}, "root": "${s.root}", """ +
        s""""start_ms": ${(s.startNs - t0) / 1e6}, "end_ms": ${(s.endNs - t0) / 1e6}, """ +
        s""""cpu_ms": ${s.cpuNs / 1e6}, "gc_ms": ${s.gcMs}, "spark_jobs": ${s.spark.jobs}, """ +
        s""""shuffle_records": ${s.spark.shuffleRecords}, "shuffle_bytes": ${s.spark.shuffleBytes}, """ +
        s""""result_bytes": ${s.spark.resultBytes}, "task_run_ms": ${s.spark.taskRunMs}}"""
    }.mkString("[\n  ", ",\n  ", "\n]\n")
  }
}
