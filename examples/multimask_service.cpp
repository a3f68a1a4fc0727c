// A multi-mask service answering many masked queries against one A·B.
//
// The north-star scenario behind the plan/execute split: a long-lived
// service holds one operand pair (A, B) and answers a stream of query
// *batches*, each query being a mask over the same product. One call to
// Engine::multiply_batch answers a whole batch: A and B are bound once, so
// they are fingerprinted once and the per-row flops vector and B's
// transpose are shared across every query plan. Compare with the same
// queries issued as sequential builder calls. Everything goes through the
// msp::Engine facade — the service's single front door.
#include <cstdio>
#include <vector>

#include "mspgemm.hpp"

int main() {
  using namespace msp;
  using VT = double;
  using SR = PlusTimes<VT>;

  const auto a = rmat_graph<index_t, VT>(/*scale=*/12, /*edge_factor=*/8.0);
  // Query masks: per-query vertex subsets of the graph pattern (each query
  // asks for the masked product rows of ~1/8 of the vertices).
  std::vector<CsrMatrix<index_t, VT>> queries;
  for (int q = 0; q < 6; ++q) {
    queries.push_back(select(a, [q](index_t i, index_t, const VT&) {
      return i % 8 == q;
    }));
  }
  std::vector<const CsrMatrix<index_t, VT>*> masks;
  for (const auto& m : queries) masks.push_back(&m);

  const Scheme scheme = Scheme::kMsa2P;

  // Sequential: every query fingerprints A and plans for itself.
  Engine seq_engine;
  Timer t_seq;
  std::vector<CsrMatrix<index_t, VT>> seq;
  for (const auto* m : masks) {
    seq.push_back(seq_engine.multiply(a, a).mask(*m).scheme(scheme).run());
  }
  std::printf("sequential: %7.2f ms (%zu plans, %.2f ms planning)\n",
              t_seq.millis(), seq_engine.plan_count(),
              seq_engine.cache_stats().plan_seconds * 1e3);

  // Batched: one call, shared fingerprints and flops.
  Engine engine;
  MaskedSpgemmStats stats;
  Timer t_batch;
  const auto batch =
      engine.multiply_batch<SR>(scheme, a, a, masks, MaskKind::kMask,
                                MaskSemantics::kStructural, &stats);
  std::printf("batch cold: %7.2f ms (%zu plans, %.2f ms planning)\n",
              t_batch.millis(), engine.plan_count(),
              stats.plan_seconds * 1e3);

  // The same batch again: plans and symbolic structures come from the
  // plan cache.
  Timer t_warm;
  const auto warm =
      engine.multiply_batch<SR>(scheme, a, a, masks, MaskKind::kMask,
                                MaskSemantics::kStructural, &stats);
  std::printf("batch warm: %7.2f ms (symbolic %s, plan hit: %s)\n",
              t_warm.millis(), stats.symbolic_skipped ? "skipped" : "run",
              stats.plan_cache_hit ? "yes" : "no");

  std::size_t total_nnz = 0;
  bool same = true;
  for (std::size_t q = 0; q < batch.size(); ++q) {
    total_nnz += batch[q].nnz();
    same = same && batch[q].rowptr == seq[q].rowptr &&
           batch[q].colids == seq[q].colids &&
           batch[q].values == seq[q].values &&
           warm[q].values == seq[q].values;
  }
  const auto& cs = engine.cache_stats();
  std::printf(
      "answers: %zu queries, %zu nnz total, bit-identical to sequential: "
      "%s\n",
      batch.size(), total_nnz, same ? "yes" : "NO");
  std::printf("cache: %zu plan hits, %zu plan misses\n", cs.plan_hits,
              cs.plan_misses);
  return same ? 0 : 1;
}
