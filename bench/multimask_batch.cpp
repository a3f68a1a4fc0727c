// Batched multi-mask benchmark: N query masks against one A·B through
// Engine::multiply_batch vs N cold sequential builder calls.
//
// The masks model the ROADMAP's multi-mask service: each query selects a
// random subset of vertices and asks for their masked product rows (vertex
// neighborhood queries over a fixed graph). The batch binds A and B once,
// so it fingerprints them once and shares the flops vector and (for Inner)
// B's transpose across all query plans; the sequential baseline pays
// fingerprints, flops and transpose once per query. The warm batch passes
// a handle of the graph bound once outside the timed loop, so it hashes
// only the masks. All three paths are verified bit-identical here.
//
// Acceptance run (ISSUE 3): MSP_SCALE=17 MSP_BATCH=8 — batch must be at
// least 1.3× faster than the cold sequential loop. Defaults are CI-sized.
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

using namespace msp;
using namespace msp::bench;

bool identical(const std::vector<Graph>& xs, const std::vector<Graph>& ys) {
  if (xs.size() != ys.size()) return false;
  for (std::size_t q = 0; q < xs.size(); ++q) {
    const Graph& x = xs[q];
    const Graph& y = ys[q];
    if (x.nrows != y.nrows || x.ncols != y.ncols || x.rowptr != y.rowptr ||
        x.colids != y.colids || x.values != y.values) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const int scale = static_cast<int>(env_long("MSP_SCALE", 12));
  const int n_masks = static_cast<int>(env_long("MSP_BATCH", 8));
  // Each query touches ~2^-MSP_MASK_ROWS_LOG of the vertices (default
  // 1/256 — at the acceptance scale 17 that is ~512 vertices per query,
  // the paper's BC batch size): sparse point queries, the shape where
  // per-call planning is a real fraction of the work and batching pays.
  const int rows_log =
      static_cast<int>(env_long("MSP_MASK_ROWS_LOG", 8));
  const int repetitions = reps();
  const double ef = 8.0;

  const Graph g = rmat_graph<IT, VT>(scale, ef);
  // Per-query row-subset masks. Skewed by construction: a query that
  // draws a hub row carries far more flops than one that does not.
  std::vector<Graph> mask_store;
  mask_store.reserve(static_cast<std::size_t>(n_masks));
  for (int q = 0; q < n_masks; ++q) {
    const std::uint64_t salt =
        0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(q + 1);
    const int shift = 64 - rows_log;
    mask_store.push_back(select(g, [salt, shift](IT i, IT, const VT&) {
      const std::uint64_t h =
          (static_cast<std::uint64_t>(i) + 1) * 0x2545f4914f6cdd1dULL + salt;
      return (h >> shift) == 0;
    }));
  }
  std::vector<const Graph*> masks;
  for (const Graph& m : mask_store) masks.push_back(&m);

  std::printf(
      "# multimask batch on rmat%d-ef%.0f, %d masks (~1/%d rows each), "
      "%d reps\n",
      scale, ef, n_masks, 1 << rows_log, repetitions);
  std::printf("%-10s %12s %12s %8s %12s %9s\n", "scheme", "batch_s",
              "seq_cold_s", "speedup", "warm_s", "identical");

  for (Scheme s : {Scheme::kMsa1P, Scheme::kMsa2P, Scheme::kHash2P,
                   Scheme::kInner2P}) {
    // N cold sequential calls: a fresh engine per repetition, so every
    // query pays its full planning cost (the pre-batch unit economics).
    std::vector<Graph> seq_out;
    const double seq_seconds = time_best(
        [&] {
          Engine engine;
          seq_out.clear();
          for (const Graph* m : masks) {
            seq_out.push_back(
                engine.multiply(g, g).mask(*m).scheme(s).run());
          }
        },
        repetitions);

    // Cold batch: fresh engine per repetition as well.
    std::vector<Graph> batch_out;
    const double batch_seconds = time_best(
        [&] {
          Engine engine;
          batch_out = engine.multiply_batch<PlusTimes<VT>>(s, g, g, masks);
        },
        repetitions);

    // Warm batch: every plan and structure cached, and g held as a bound
    // handle the way a service holds its graph, so a warm batch hashes
    // only its masks and recounts no flops.
    Engine warm_engine;
    const BoundMatrix<IT, VT> gh = warm_engine.bind(g);
    const auto warm_batch = [&] {
      return warm_engine.multiply_batch<PlusTimes<VT>>(
          s, g, g, masks, MaskKind::kMask, MaskSemantics::kStructural,
          nullptr, &gh, &gh);
    };
    const std::vector<Graph> warm_out = warm_batch();
    const double warm_seconds =
        time_best([&] { (void)warm_batch(); }, repetitions);

    std::printf("%-10s %12.4f %12.4f %8.2f %12.4f %9d\n",
                std::string(scheme_name(s)).c_str(), batch_seconds,
                seq_seconds, seq_seconds / batch_seconds, warm_seconds,
                identical(seq_out, batch_out) && identical(seq_out, warm_out)
                    ? 1
                    : 0);
  }
  return 0;
}
