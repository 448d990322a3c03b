package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic graph data: a power-law web-graph generator standing in for
  * the paper's WebGraph crawls, and a BFS-prefix sampler over it.
  * Generators are deterministic in their arguments, so every run and the
  * DuckDB oracle see identical input.
  */
object SynthData {

  /** Bounded-Zipf rank draw as a Catalyst expression: a rank in `[1, n]`
    * with pmf ∝ `r^(-q)` (q ≠ 1), via the inverse CDF
    * `r = (1 + u·(n^(1−q) − 1))^(1/(1−q))`. The *degree-distribution*
    * exponent this induces over ranks is `α = 1 + 1/q` — q≈0.9 gives the
    * web's α≈2.1.
    */
  private def zipfRank(n: Long, q: Double, u: org.apache.spark.sql.Column) = {
    val a = math.pow(n.toDouble, 1.0 - q) - 1.0
    least(lit(n), greatest(lit(1L),
      pow(u * a + 1.0, 1.0 / (1.0 - q)).cast(LongType)))
  }

  /** Synthetic power-law web graph in BFS/crawl order.
    *
    * Substitute for the WebGraph crawls of the CLUGP paper (uk-2002,
    * arabic-2005, webbase-2001, it-2004), which are multi-GB downloads.
    * Real web graphs combine three properties the paper's results rest on:
    *
    *  - **power-law degrees** (§II-C): sources and global link targets
    *    are bounded-Zipf rank draws — low ids are the crawl-root hubs;
    *  - **host-level clustering + crawl locality**: vertices come in
    *    consecutive-id blocks of `hostSize` (a crawler enumerates a host
    *    before moving on), and a `pIntra` fraction of links stay inside
    *    the source's host block (measured 70–90 % on real crawls). This
    *    is the structure CLUGP's streaming clustering exploits;
    *  - **neighbor-host links**: most cross-host links go to *related*
    *    hosts crawled adjacently (id-nearby blocks), not to global hubs —
    *    only a small `pHub` fraction hits crawl-wide hubs. Adjacent hosts
    *    produce adjacent clusters, which the cluster partitioning game
    *    then co-places (the paper's §V-D locality observation).
    *
    * `pIntra = pNear = 0` yields a Twitter-like social graph — power-law
    * but with no host structure — which is exactly why CLUGP's advantage
    * shrinks on Twitter in the paper's Fig. 4.
    *
    * The edge stream is the id order; [[repro.core.EdgeStream]] sorts by
    * `(src, id)` — the BFS arrival order the paper assumes (§II fn. 1).
    * Self-loops and duplicate edges are removed (real crawls are simple
    * graphs; duplicates would distort hashing balance), so the realized
    * edge count lands below `nEdges`. Deterministic in all arguments.
    *
    * Columns: `src: Long, dst: Long, id: Long` (1-based vertex ids).
    */
  def webGraph(spark: SparkSession, nVertices: Long, nEdges: Long,
               hostSize: Long = 40, pIntra: Double = 0.75, pNear: Double = 0.21,
               hostOffsetScale: Double = 3.0,
               qOut: Double = 0.25, qIn: Double = 0.5, qIntra: Double = 0.3,
               seed: Long = 42): DataFrame = {
    val nV = nVertices
    val nHosts = (nV + hostSize - 1) / hostSize
    val srcCol = zipfRank(nV, qOut, rand(seed))
    val hubCol = zipfRank(nV, qIn, rand(seed + 1))
    // signed exponential host offset for neighbor-host links
    val offMag = ceil(-log(rand(seed + 4) + lit(1e-12)) * hostOffsetScale).cast(LongType)
    val off    = when(rand(seed + 5) < 0.5, -offMag).otherwise(offMag)
    spark.range(nEdges)
      .select(col("id"), srcCol as "src", hubCol as "hub",
              zipfRank(hostSize, qIntra, rand(seed + 2)) as "slot",
              zipfRank(hostSize, qIntra, rand(seed + 6)) as "slot2",
              off as "hoff",
              rand(seed + 3) as "mix")
      .select(col("id"), col("src"), col("hub"), col("slot"), col("slot2"), col("mix"),
              // neighbor host id, clamped into range
              least(lit(nHosts - 1), greatest(lit(0L),
                floor((col("src") - 1) / hostSize) + col("hoff"))) as "nearHost")
      .select(
        col("src"),
        when(col("mix") < pIntra,
             // intra-host: a zipf slot within the source's host block
             least(lit(nV), ((col("src") - 1) - pmod(col("src") - 1, lit(hostSize))) + col("slot")))
          .when(col("mix") < pIntra + pNear,
             // neighbor host: zipf slot within a nearby host block
             least(lit(nV), col("nearHost") * hostSize + col("slot2")))
          .otherwise(col("hub")) as "dst",
        col("id"))
      .where(col("src") =!= col("dst"))
      .groupBy(col("src"), col("dst")).agg(min(col("id")) as "id") // dedup, keep first
  }

  /** BFS-prefix sample of a web graph: the subgraph induced by the first
    * `fraction` of vertex ids (crawl-order prefix — the natural way to
    * sample a crawl, used for the paper's Fig. 5 size sweep).
    */
  def sampleGraph(edges: DataFrame, nVertices: Long, fraction: Double): DataFrame = {
    val keep = math.max(2L, (nVertices * fraction).toLong)
    edges.where(col("src") <= keep && col("dst") <= keep)
  }
}

/** The paper's five datasets (Table III), scaled ~1/1000 so a single
  * container reproduces the *shape* of every experiment. Relative
  * |V| : |E| ratios mirror the originals; Twitter-lite drops crawl
  * locality (`pLocal = 0`) because social graphs are not crawls.
  */
object WebGraphs {
  /** Spec of one synthetic dataset; `nE` is the generation target (the
    * realized count lands lower after self-loop/duplicate removal). */
  final case class GraphSpec(name: String, nV: Long, nE: Long,
                             hostSize: Long, pIntra: Double, pNear: Double,
                             qIn: Double, seed: Long) {
    def df(spark: SparkSession): DataFrame =
      SynthData.webGraph(spark, nV, nE, hostSize = hostSize,
                         pIntra = pIntra, pNear = pNear, qIn = qIn, seed = seed)
  }

  // paper: uk-2002 19M/0.3B, arabic-2005 22M/0.6B, webbase-2001 118M/1.0B,
  //        it-2004 41M/1.5B, twitter 41M/1.4B.  Generation targets are
  // inflated ~1.4× because self-loop/duplicate removal trims the output;
  // realized |E| (reported by T3DatasetsBench) lands near the 1/1000 mark.
  // hosts (and the neighbor-host locality radius) are small relative to
  // |V|/k even at k=256 — the real crawls' regime, where a partition
  // holds tens of thousands of vertices and V_max ≫ any neighborhood.
  // |V| is scaled less aggressively than |E| so that holds down-scale
  // (avg degree lands ~8–20, within the web-graph range).
  val UKLite      = GraphSpec("uk-lite",      60_000L,  480_000L,   10, 0.70, 0.26, 0.7, 11)
  val ArabicLite  = GraphSpec("arabic-lite",  70_000L,  900_000L,   12, 0.70, 0.26, 0.7, 12)
  val WebBaseLite = GraphSpec("webbase-lite", 150_000L, 1_500_000L, 12, 0.68, 0.28, 0.7, 13)
  val ITLite      = GraphSpec("it-lite",      100_000L, 2_200_000L, 14, 0.70, 0.26, 0.7, 14)
  // social graph: no host structure, heavier in-degree hubs
  val TwitterLite = GraphSpec("twitter-lite", 100_000L, 2_000_000L, 1,  0.0,  0.0,  0.55, 15)

  val webGraphs: Seq[GraphSpec] = Seq(UKLite, ArabicLite, WebBaseLite, ITLite)
  val all: Seq[GraphSpec]       = webGraphs :+ TwitterLite

  /** Small graph for unit tests (~28k edges). */
  val Tiny = GraphSpec("tiny", 4_000L, 36_000L, 10, 0.70, 0.26, 0.5, 7)
  /** Tiny social graph (no host structure) for unit tests. */
  val TinySocial = GraphSpec("tiny-social", 4_000L, 36_000L, 1, 0.0, 0.0, 0.55, 8)
}
