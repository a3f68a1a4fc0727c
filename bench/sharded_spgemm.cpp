// Sharded / out-of-core SpGEMM benchmark: what row-block tiling over the
// TiledEngine costs (and what a spill-to-disk resident budget adds) against
// the monolithic Engine call it is bit-identical to.
//
// Workload: the triangle-counting product L ⊙ (L·L) on an R-MAT graph
// (paper §8.2's masked multiply), with L both the left operand and the
// aligned mask — the same ShardedMatrix serves as both. Five configurations:
//
//  * monolithic    — one Engine::multiply over the whole L;
//  * shards-K      — TiledEngine over K row-block shards, all resident;
//  * shards-4-budget — K = 4 with a ShardStore whose resident budget is
//                    half of L's payload bytes (strictly smaller than the
//                    operand), so every repetition reloads the shards the
//                    previous one could not keep.
//                    The store runs in cold-reads mode (blobs evicted from
//                    the OS page cache after each write/read) and its
//                    bandwidth is capped at MSP_SHARD_MBPS MiB/s (default
//                    256, HDD/S3-class; 0 disables the cap) — modeling the
//                    storage tier a genuinely out-of-core dataset would
//                    spill to, rather than a page-cache memcpy on a fast
//                    VM disk. Async prefetch pipeline off;
//  * shards-4-budget-pf — the same spill-bound configuration with the
//                    pipeline on: the next spilled shard's reload overlaps
//                    the current shard's compute on the store's
//                    completion-queue worker.
//
// All tiled results are verified bit-identical to the monolithic one; the
// ShardStore spill/reload counts per timed call make the out-of-core
// traffic visible. MSP_SCALE / MSP_SCHEME / MSP_REPS / MSP_SHARD_MBPS
// configure the run.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/tricount.hpp"
#include "core/shard.hpp"
#include "core/tiled_engine.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const int scale = static_cast<int>(env_long("MSP_SCALE", 12));
  const int repetitions = reps();
  const double mbps = static_cast<double>(env_long("MSP_SHARD_MBPS", 256));
  const double ef = 8.0;
  Scheme scheme = Scheme::kMsa2P;
  if (const char* env = std::getenv("MSP_SCHEME");
      env != nullptr && *env != '\0' && !scheme_from_name(env, scheme)) {
    std::fprintf(stderr, "unknown MSP_SCHEME '%s'\n", env);
    return 1;
  }

  const Graph g = rmat_graph<IT, VT>(scale, ef);
  const auto input = tricount_prepare(g);
  const Graph& l = input.l;
  const std::size_t l_bytes = l.rowptr.size() * sizeof(IT) +
                              l.colids.size() * sizeof(IT) +
                              l.values.size() * sizeof(VT);

  std::printf(
      "# sharded spgemm on rmat%d-ef%.0f, scheme %s, L nnz=%zu (%zu bytes), "
      "%d reps, budget rows modeled at %.0f MiB/s cold storage\n",
      scale, ef, std::string(scheme_name(scheme)).c_str(), l.nnz(), l_bytes,
      repetitions, mbps);
  std::printf("%-20s %12s %9s %8s %8s %8s %8s %9s %14s\n", "config",
              "seconds", "identical", "spills", "reloads", "prefetch",
              "pf_hits", "pf_waste", "budget_bytes");

  // Monolithic reference: persistent engine, warm plan cache (the same
  // steady state the tiled configurations run in).
  Engine mono;
  Graph ref = mono.multiply(l, l)
                  .mask(l)
                  .semiring<PlusPair>()
                  .scheme(scheme)
                  .run();  // warmup: builds the plan
  const double mono_seconds = time_best(
      [&] {
        (void)mono.multiply(l, l).mask(l).semiring<PlusPair>().scheme(scheme)
            .run();
      },
      repetitions);
  std::printf("%-20s %12.5f %9d %8d %8d %8s %8d %9d %14s\n", "monolithic",
              mono_seconds, 1, 0, 0, "-", 0, 0, "-");

  struct Row {
    std::string name;
    int k;
    bool budgeted;
    bool prefetch;
  };
  std::vector<Row> rows{{"shards-2", 2, false, false},
                        {"shards-4", 4, false, false},
                        {"shards-8", 8, false, false},
                        {"shards-4-budget", 4, true, false},
                        {"shards-4-budget-pf", 4, true, true}};

  for (const Row& row : rows) {
    ShardStore::Options so;
    std::size_t budget = 0;
    // Budget rows use the nnz-balanced split: R-MAT hub rows make even
    // row-count shards wildly uneven (one block can hold most of L), and
    // an uneven split has no budget that is both spill-bound and large
    // enough for the pipeline's documented pay-off regime.
    const std::vector<IT> ranges =
        row.budgeted ? ShardedMatrix<IT, VT>::balanced_ranges(l, row.k)
                     : ShardedMatrix<IT, VT>::even_ranges(l.nrows, row.k);
    if (row.budgeted) {
      // Twice the largest (balanced) shard: the documented minimum for
      // the prefetch pipeline to pay off — the pinned working set plus
      // one incoming shard always fit — yet at K = 4 only half of L, so
      // every repetition spills and reloads some shards. Cold + throttled
      // reads: each reload pays the modeled storage-device cost, as a
      // dataset that does not fit RAM would.
      std::size_t max_shard = 0;
      {
        const ShardedMatrix<IT, VT> probe(l, ranges);
        for (int s = 0; s < probe.shards(); ++s) {
          max_shard = std::max(max_shard, probe.bytes(s));
        }
      }
      budget = 2 * max_shard;
      so.resident_budget = budget;
      so.cold_reads = true;
      so.throttle_mbps = mbps;  // 0 leaves the raw device speed
    }
    ShardStore store(so);
    const ShardedMatrix<IT, VT> lsh(l, ranges,
                                    row.budgeted ? &store : nullptr);
    TiledEngine tiled;
    tiled.set_prefetch(row.prefetch);
    Graph out = tiled.multiply<PlusPair<VT>>(scheme, lsh, l, lsh);  // warmup
    store.wait_prefetches();
    const std::size_t spills0 = store.stats().spills;
    const std::size_t reloads0 = store.stats().reloads;
    const std::size_t hits0 = store.stats().prefetch_hits;
    const std::size_t wasted0 = store.stats().prefetch_wasted;
    int timed_calls = 0;
    const double seconds = time_best(
        [&] {
          out = tiled.multiply<PlusPair<VT>>(scheme, lsh, l, lsh);
          ++timed_calls;
        },
        repetitions);
    store.wait_prefetches();  // settle trailing background reloads
    const bool identical = out.rowptr == ref.rowptr &&
                           out.colids == ref.colids &&
                           out.values == ref.values;
    // Per-call disk traffic, averaged over the timed repetitions.
    const std::size_t spills =
        (store.stats().spills - spills0) / static_cast<std::size_t>(
            timed_calls > 0 ? timed_calls : 1);
    const std::size_t reloads =
        (store.stats().reloads - reloads0) / static_cast<std::size_t>(
            timed_calls > 0 ? timed_calls : 1);
    const std::size_t calls =
        static_cast<std::size_t>(timed_calls > 0 ? timed_calls : 1);
    const std::size_t hits = (store.stats().prefetch_hits - hits0) / calls;
    const std::size_t wasted =
        (store.stats().prefetch_wasted - wasted0) / calls;
    std::printf("%-20s %12.5f %9d %8zu %8zu %8s %8zu %9zu %14s\n",
                row.name.c_str(), seconds, identical ? 1 : 0, spills, reloads,
                row.budgeted ? (row.prefetch ? "1" : "0") : "-", hits, wasted,
                row.budgeted ? std::to_string(budget).c_str() : "-");
  }
  return 0;
}
