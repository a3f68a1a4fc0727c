// Streaming-update benchmark: incremental update+query through the delta
// layer (DeltaMatrix + BoundMatrix::structure_changed + partial plan
// refresh) against rebuild-from-scratch (same edit integration, then a
// cold query on a fresh engine with raw operands — no cached plan state).
//
// Workload: C = M ⊙ (A·B) with a dynamic A on an R-MAT graph, static B
// and mask copies of the same graph, MSA-2P. Each edit batch is a
// *localized burst*: all edits of a batch land in one random contiguous
// row window sized to the batch (streaming graph ingest is bursty — a new
// vertex range being appended, a hub neighborhood churning — not a uniform
// sprinkle over every row). That locality is precisely what the per-block
// dirty tracking exploits; the rows_refreshed column reports how many rows
// the partial refresh actually recomputed. For each delta size
// (0.01% / 0.1% / 1% of nnz) every repetition applies a fresh seeded edit
// batch and queries; the incremental side keeps one engine and all three
// handles warm across repetitions, so its query answers from the engine's
// incremental result splice: only the rows dirty since the previous result
// are recomputed, in one numeric pass over those rows of the full operands
// (no plan, no symbolic pass), and everything else is reused — the
// rows_refreshed and symb_skip columns are the observable proof. Both
// paths pay the same apply_updates cost; the delta is pure plan/query
// work. Results are verified bit-identical per repetition, and the bench
// exits 1 if any repetition differs.
//
// MSP_DYNAMIC_SCALE (default 12; acceptance runs use 17), MSP_REPS.
#include <cstdio>
#include <span>
#include <vector>

#include "gen/rng.hpp"
#include "harness.hpp"
#include "matrix/delta.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const int scale = static_cast<int>(env_long("MSP_DYNAMIC_SCALE", 12));
  const int repetitions = reps();
  const double ef = 8.0;
  const Scheme scheme = Scheme::kMsa2P;

  const Graph g = rmat_graph<IT, VT>(scale, ef);
  const Graph b = g;
  const Graph m = g;
  const std::size_t nnz0 = g.nnz();
  std::printf("# dynamic updates on rmat%d-ef%.0f, scheme %s, nnz=%zu, "
              "%d reps; incremental = warm engine + dirty-row result "
              "splice, rebuild = same apply + cold query on fresh engine\n",
              scale, ef, std::string(scheme_name(scheme)).c_str(), nnz0,
              repetitions);
  std::printf("%-12s %10s %12s %12s %9s %14s %9s %9s %10s\n", "delta",
              "edits", "incr_s", "rebuild_s", "speedup", "rows_refreshed",
              "nrows", "symb_skip", "identical");

  bool all_identical = true;
  const double fractions[] = {0.0001, 0.001, 0.01};
  for (const double frac : fractions) {
    const std::size_t edits_per_batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     frac * static_cast<double>(nnz0)));

    // Pre-generate one edit batch per repetition (seeded, ~1/3 deletes of
    // likely-present edges) so batch construction is outside the timings
    // and both paths replay the identical stream. Each batch's rows come
    // from one random window of `window` rows — the burst-locality model.
    const std::uint64_t window = std::max<std::uint64_t>(
        256, static_cast<std::uint64_t>(edits_per_batch));
    Xoshiro256 rng(0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(
                                               frac * 1e6));
    std::vector<std::vector<EdgeUpdate<IT, VT>>> batches;
    for (int r = 0; r < repetitions; ++r) {
      const std::uint64_t nrows_u = static_cast<std::uint64_t>(g.nrows);
      const std::uint64_t w0 =
          window >= nrows_u ? 0 : rng.next_below(nrows_u - window);
      std::vector<EdgeUpdate<IT, VT>> batch;
      batch.reserve(edits_per_batch);
      for (std::size_t e = 0; e < edits_per_batch; ++e) {
        EdgeUpdate<IT, VT> u;
        u.row = static_cast<IT>(
            w0 + rng.next_below(std::min(window, nrows_u)));
        const auto lo = static_cast<std::size_t>(g.rowptr[u.row]);
        const auto hi = static_cast<std::size_t>(g.rowptr[u.row + 1]);
        if (rng.next_double() < 0.33 && hi > lo) {
          // Delete an existing edge of the *base* graph in this row
          // (present unless a previous batch already removed it — still a
          // realistic mix).
          u.col = g.colids[lo + rng.next_below(hi - lo)];
          u.remove = true;
        } else {
          u.col = static_cast<IT>(rng.next_below(
              static_cast<std::uint64_t>(g.ncols)));
          u.value = static_cast<VT>(1 + rng.next_below(9));
        }
        batch.push_back(u);
      }
      batches.push_back(std::move(batch));
    }

    // --- incremental: persistent engine + handles; the warm-up batch
    // switches the handle to its identity fingerprint and the warm-up
    // query builds the plan that every timed query then hits.
    DeltaMatrix<IT, VT> dm(g);
    Engine eng;
    BoundMatrix<IT, VT> ah(dm.matrix());
    BoundMatrix<IT, VT> bh(b);
    BoundMatrix<IT, VT> mh(m);
    (void)eng.update(dm, ah,
                     std::span<const EdgeUpdate<IT, VT>>(batches[0].data(),
                                                         1));
    (void)eng.multiply_scheme<PlusTimes<VT>>(scheme, dm.matrix(), b, m,
                                             MaskKind::kMask,
                                             MaskSemantics::kStructural,
                                             nullptr, &ah, &bh, &mh);

    double incr_best = 1e300;
    std::size_t rows_refreshed = 0;
    bool symbolic_skipped = true;
    bool identical = true;
    Graph c_incr;
    for (int r = 0; r < repetitions; ++r) {
      MaskedSpgemmStats st;
      Timer t;
      (void)eng.update(dm, ah,
                       std::span<const EdgeUpdate<IT, VT>>(batches[r]));
      c_incr = eng.multiply_scheme<PlusTimes<VT>>(
          scheme, dm.matrix(), b, m, MaskKind::kMask,
          MaskSemantics::kStructural, &st, &ah, &bh, &mh);
      incr_best = std::min(incr_best, t.seconds());
      rows_refreshed = std::max(rows_refreshed, st.plan_rows_refreshed);
      symbolic_skipped = symbolic_skipped && st.symbolic_skipped;

      // Per-repetition verification: bit-identical to a from-scratch query
      // on the merged matrix (not timed).
      Engine check;
      const Graph want = check.multiply_scheme<PlusTimes<VT>>(
          scheme, dm.matrix(), b, m, MaskKind::kMask);
      identical = identical && c_incr == want;
    }

    // --- rebuild: identical edit stream and apply cost, but every query
    // is cold — a fresh engine, raw operands, full planning + symbolic.
    DeltaMatrix<IT, VT> dm2(g);
    (void)dm2.apply_updates(std::span<const EdgeUpdate<IT, VT>>(
        batches[0].data(), 1));
    double rebuild_best = 1e300;
    for (int r = 0; r < repetitions; ++r) {
      Timer t;
      (void)dm2.apply_updates(
          std::span<const EdgeUpdate<IT, VT>>(batches[r]));
      Engine fresh;
      (void)fresh.multiply_scheme<PlusTimes<VT>>(scheme, dm2.matrix(), b, m,
                                                 MaskKind::kMask);
      rebuild_best = std::min(rebuild_best, t.seconds());
    }

    std::printf("%-12g %10zu %12.6f %12.6f %9.3f %14zu %9d %9d %10d\n",
                frac, edits_per_batch, incr_best, rebuild_best,
                rebuild_best / incr_best, rows_refreshed, g.nrows,
                symbolic_skipped ? 1 : 0, identical ? 1 : 0);
    all_identical = all_identical && identical;
  }
  if (!all_identical) {
    std::fprintf(stderr, "dynamic_updates: an incremental result differs "
                         "from the from-scratch product\n");
    return 1;
  }
  return 0;
}
