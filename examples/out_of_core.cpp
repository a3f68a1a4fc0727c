// Out-of-core walkthrough: running a masked product whose left operand
// does not fit the configured resident budget.
//
//   1. split the operand (and its aligned mask) into row-block shards
//      backed by a spill-to-disk ShardStore;
//   2. run the product shard-by-shard through a TiledEngine;
//   3. verify the stitched result is bit-identical to the monolithic call
//      and inspect the spill/reload traffic the budget caused.
//
// Usage: example_out_of_core [scale] [shards] [prefetch]
// (defaults: 11, 4, 1 — pass prefetch=0 to serialize every shard reload)
#include <cstdio>
#include <cstdlib>

#include "mspgemm.hpp"

int main(int argc, char** argv) {
  using namespace msp;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 11;
  const int shards = argc > 2 ? std::atoi(argv[2]) : 4;
  const bool prefetch = argc > 3 ? std::atoi(argv[3]) != 0 : true;

  // The triangle-counting product L ⊙ (L·L): L is both the left operand
  // and the mask, so one sharded split serves both roles.
  const auto g = rmat_graph<int, double>(scale, 8.0);
  const auto input = tricount_prepare(g);
  const CsrMatrix<int, double>& l = input.l;
  const std::size_t l_bytes = l.rowptr.size() * sizeof(int) +
                              l.colids.size() * sizeof(int) +
                              l.values.size() * sizeof(double);
  std::printf("L: %d x %d, %zu nonzeros, %zu payload bytes\n", l.nrows,
              l.ncols, l.nnz(), l_bytes);

  // A resident budget of one third of L: the full operand can never be in
  // memory at once, so shards spill to the scratch directory and reload on
  // demand. Leased (actively multiplying) shards are pinned and never
  // evicted — the budget governs the idle resident set.
  ShardStore::Options opt;
  opt.resident_budget = l_bytes / 3;
  ShardStore store(opt);
  const ShardedMatrix<int, double> lsh(l, shards, &store);
  std::printf("split into %d shards; budget %zu bytes -> resident now %zu "
              "(spilled %zu times during the split)\n",
              lsh.shards(), store.resident_budget(), store.resident_bytes(),
              store.stats().spills.load());

  // Shard-by-shard execution through the TiledEngine. B (= L, whole) is
  // bound once internally; each shard's plan lands in the engine's plan
  // cache keyed by the shard fingerprint computed at split time. Resident
  // shards run first; with the prefetch pipeline on, the next spilled
  // shard's reload runs on the store's background worker while the
  // current one computes.
  TiledEngine tiled;
  tiled.set_prefetch(prefetch);
  std::printf("prefetch pipeline: %s\n", prefetch ? "on" : "off");
  const auto c_tiled =
      tiled.multiply<PlusPair<double>>(Scheme::kMsa2P, lsh, l, lsh);

  // The monolithic reference the tiled path must match bit-for-bit.
  Engine mono;
  const auto c_mono = mono.multiply(l, l)
                          .mask(l)
                          .semiring<PlusPair>()
                          .scheme(Scheme::kMsa2P)
                          .run();
  std::printf("tiled result identical to monolithic: %s\n",
              c_tiled == c_mono ? "yes" : "NO");
  std::printf("triangles: %lld\n",
              static_cast<long long>(reduce_sum(c_tiled)));

  const auto& stats = tiled.cache_stats();
  std::printf("tiled calls %zu, shard multiplies %zu, spills %zu, reloads "
              "%zu, prefetch hits %zu, prefetch wasted %zu\n",
              stats.tiled_calls, stats.tiled_shards, stats.shard_spills,
              stats.shard_reloads, stats.prefetch_hits,
              stats.prefetch_wasted);

  // A second call over the same shards: every per-shard plan is a cache
  // hit (fingerprints were computed at split time, so nothing is hashed),
  // and only the spill/reload traffic of the budget remains.
  store.spill_all();  // force the cold-start disk path
  std::printf("after spill_all: resident %zu bytes\n",
              store.resident_bytes());
  const auto c_again =
      tiled.multiply<PlusPair<double>>(Scheme::kMsa2P, lsh, l, lsh);
  std::printf("repeat call identical: %s; plan hits %zu / misses %zu\n",
              c_again == c_mono ? "yes" : "NO",
              tiled.cache_stats().plan_hits,
              tiled.cache_stats().plan_misses);

  // Streaming ingest: the same split built without ever holding a resident
  // CSR of the whole matrix. The generator hands over one row block at a
  // time (here sliced from L — a real ingest would parse it from a file or
  // stream), and each block is registered with a spill store *before* the
  // next is produced, so peak residency stays at the budget plus the one
  // block being built no matter how large the matrix is.
  ShardStore::Options sopt;
  sopt.resident_budget = l_bytes / 3;
  ShardStore stream_store(sopt);
  std::size_t peak_resident = 0;
  const auto lstream = ShardedMatrix<int, double>::from_generator(
      l.nrows, l.ncols, ShardedMatrix<int, double>::even_ranges(l.nrows, shards),
      [&](int /*s*/, int lo, int hi) {
        peak_resident = std::max(peak_resident, stream_store.resident_bytes());
        return slice_rows(l, lo, hi);
      },
      &stream_store);
  std::printf("streaming split: peak resident during ingest %zu bytes "
              "(budget %zu)\n",
              peak_resident, stream_store.resident_budget());
  const auto c_stream =
      tiled.multiply<PlusPair<double>>(Scheme::kMsa2P, lstream, l, lsh);
  std::printf("streaming-split result identical: %s\n",
              c_stream == c_mono ? "yes" : "NO");
  return c_tiled == c_mono && c_again == c_mono && c_stream == c_mono ? 0 : 1;
}
