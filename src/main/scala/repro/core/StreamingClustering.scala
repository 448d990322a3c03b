package repro.core

import scala.collection.mutable.ArrayBuffer

/** Output of the first CLUGP pass (paper Algorithm 2).
  *
  * @param clu     final cluster id of every vertex (-1 if the vertex never
  *                appeared in the stream)
  * @param deg     streaming degree of every vertex, as counted by the pass
  * @param divided per-vertex flag: the vertex triggered a cluster split, so
  *                it has mirror vertices left behind in earlier clusters
  * @param mirrorClusters for each divided vertex, the clusters still holding
  *                a mirror of it (in split order)
  * @param numClusters number of cluster ids allocated (m)
  * @param volumes final cluster volumes (sum of member master degrees)
  */
final case class ClusteringResult(
    clu: Array[Int],
    deg: Array[Int],
    divided: Array[Boolean],
    mirrorClusters: Map[Int, Seq[Int]],
    numClusters: Int,
    volumes: Array[Long]) {

  /** Number of non-empty clusters (ids that still own at least one master). */
  def numOccupiedClusters: Int = {
    val seen = new Array[Boolean](numClusters)
    var c = 0
    clu.foreach { ci => if (ci >= 0 && !seen(ci)) { seen(ci) = true; c += 1 } }
    c
  }
}

/** First CLUGP pass: streaming graph clustering (paper §IV, Algorithm 2).
  *
  * Extends Hollocou et al.'s *allocation-migration* streaming clustering
  * with a *splitting* operation: when a cluster's volume (sum of member
  * degrees) reaches `V_max`, the vertex that overflowed it is split into a
  * fresh cluster, leaving a mirror behind. Splitting chops high-degree
  * vertices early, which Theorem 1 shows can only lower the replication
  * factor versus Holl.
  */
object StreamingClustering {

  /** Run Algorithm 2 over the stream.
    *
    * @param stream    the BFS-ordered edge stream
    * @param vMax      maximum cluster volume; the paper's default is |E|/k
    * @param splitting `true` = CLUGP's allocation-splitting-migration;
    *                  `false` = Holl's allocation-migration (the CLUGP-S
    *                  ablation of Fig. 9)
    */
  def cluster(stream: EdgeStream, vMax: Long, splitting: Boolean = true): ClusteringResult = {
    val nV  = stream.numVertices
    val clu = Array.fill(nV)(-1)
    val deg = new Array[Int](nV)
    val divided = new Array[Boolean](nV)
    val mirrors = new java.util.HashMap[Int, ArrayBuffer[Int]]()
    val vol = new Volumes(nV)

    val src = stream.src; val dst = stream.dst
    var i = 0
    while (i < src.length) {
      val u = src(i); val v = dst(i)
      // allocation: unseen vertices start as singleton clusters
      if (clu(u) < 0) clu(u) = vol.newCluster()
      if (clu(v) < 0) clu(v) = vol.newCluster()
      deg(u) += 1; deg(v) += 1
      vol(clu(u)) += 1; vol(clu(v)) += 1

      if (splitting) {
        // splitting: the vertex that overflowed its cluster moves to a
        // fresh cluster with its accumulated degree, leaving a mirror;
        // in BFS order its subsequent edges build the fresh cluster
        // around it (paper Fig. 2).
        if (vol(clu(u)) >= vMax) split(u, clu, deg, vol, divided, mirrors)
        if (vol(clu(v)) >= vMax) split(v, clu, deg, vol, divided, mirrors)
      }

      // migration: pull the endpoint in the smaller cluster into the
      // bigger one, if neither cluster is full (Holl's heuristic). In
      // split mode we additionally require the target to absorb the
      // migrated degree without overflowing — otherwise vertices churn at
      // the V_max boundary (migrate in → overflow on the next edge →
      // split out), inflating cluster and replica counts (see DESIGN.md).
      // Holl has no splitting, hence no churn, hence no check (faithful).
      val cu = clu(u); val cv = clu(v)
      if (cu != cv && vol(cu) < vMax && vol(cv) < vMax) {
        if (vol(cu) <= vol(cv)) {
          if (!splitting || vol(cv) + deg(u) <= vMax) {
            vol(cu) -= deg(u); vol(cv) += deg(u); clu(u) = cv
          }
        } else {
          if (!splitting || vol(cu) + deg(v) <= vMax) {
            vol(cv) -= deg(v); vol(cu) += deg(v); clu(v) = cu
          }
        }
      }
      i += 1
    }

    import scala.jdk.CollectionConverters._
    ClusteringResult(clu, deg, divided,
      mirrors.asScala.map { case (k2, v2) => (k2.toInt, v2.toSeq) }.toMap,
      vol.size, vol.toArray)
  }

  @inline private def split(x: Int, clu: Array[Int], deg: Array[Int],
                            vol: Volumes, divided: Array[Boolean],
                            mirrors: java.util.HashMap[Int, ArrayBuffer[Int]]): Unit = {
    val old = clu(x)
    val fresh = vol.newCluster()
    clu(x) = fresh
    divided(x) = true
    vol(old) -= deg(x)
    vol(fresh) += deg(x)
    var lst = mirrors.get(x)
    if (lst == null) { lst = new ArrayBuffer[Int](); mirrors.put(x, lst) }
    lst += old
  }
}

/** Cluster volumes by cluster id: a primitive array, doubled when full, so
  * an update boxes nothing. */
private final class Volumes(initialCapacity: Int) {
  private var vol = new Array[Long](math.max(16, initialCapacity))
  private var n = 0

  /** Number of cluster ids allocated. */
  def size: Int = n

  /** Allocates the next cluster id, with volume 0. */
  def newCluster(): Int = {
    if (n == vol.length) vol = java.util.Arrays.copyOf(vol, 2 * n)
    n += 1
    n - 1
  }

  def apply(c: Int): Long = vol(c)
  def update(c: Int, v: Long): Unit = vol(c) = v
  def toArray: Array[Long] = java.util.Arrays.copyOf(vol, n)
}
