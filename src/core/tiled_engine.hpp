// Tiled (sharded / out-of-core) masked SpGEMM on top of the Engine facade.
//
// A `TiledEngine` answers C = M ⊙ (A·B) where A and M arrive as aligned
// row-block shards (core/shard.hpp) instead of one resident CSR. It plans
// and executes shard-by-shard through the wrapped `msp::Engine`'s
// ExecutionContext:
//
//  * B is bound exactly once per call — a caller-supplied BoundMatrix
//    handle, or a call-local one — so its pattern fingerprint, its CSC
//    transpose (for the pull-based Inner kernels), its values version and
//    its structure dirty log are shared across every shard through
//    `SpgemmOperandHints`; a B updated in place through its handle
//    (Engine::update) refreshes the shard plans exactly as it refreshes a
//    monolithic plan;
//  * each shard's per-row flops vector is computed at most once and cached
//    (a FIFO of the newest 64, util/bounded_cache.hpp) by shard
//    fingerprint, B fingerprint and B's dirty-log position, then shared
//    into any plan the context builds for that shard — a repeat call over
//    unchanged patterns hits K cached plans and recounts nothing, and a
//    call after an update of B recounts;
//  * shard and mask-shard pattern fingerprints come from the split (they
//    survive spill/reload), so the per-shard plan-cache lookups hash
//    nothing at all;
//  * per-shard results are stitched back into one CSR that is bit-identical
//    to the monolithic `ExecutionContext::multiply` / Engine call: every
//    kernel in the library is row-wise, so row blocks compute exactly the
//    rows the monolithic call would.
//
//  * when the shards live in a spill-capable ShardStore, a call visits
//    first the shards whose A and M payloads are resident, then the
//    spilled ones, each group in index order. A warm repeat call thus
//    computes what the store kept before reloading anything, and the
//    store's LRU then displaces shards the call has finished rather than
//    shards it has still to visit (see the LRU contract in shard.hpp).
//    While one shard computes, the engine prefetches the next shard in
//    visit order (a background reload on the store's completion-queue
//    worker; a no-op for a resident shard), hiding the reload stall;
//    `set_prefetch(false)` serializes the I/O again. Each result lands in
//    its shard's slot, so neither the visit order nor prefetch changes a
//    bit of the stitched product or of the call's stats.
//
// Shard-level accounting (calls, shard multiplies, ShardStore spills,
// reloads, and prefetch hit/wasted counts observed during them) lands in
// the context's `CacheStats` (tiled_calls / tiled_shards / shard_spills /
// shard_reloads / prefetch_hits / prefetch_wasted).
//
// This is the scale-out base layer: a future multi-process service driver
// distributes exactly these per-shard (plan, execute) units, because each
// one touches only its shard of A/M plus the shared B.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/shard.hpp"
#include "util/bounded_cache.hpp"

namespace msp {

/// A self-contained tiled engine owning its Engine (and therefore its
/// ExecutionContext / plan cache).
class TiledEngine {
 public:
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const ExecutionContext::CacheStats& cache_stats() const {
    return engine_.cache_stats();
  }

  /// Prefetch-ahead: while one shard computes, ask the stores to reload
  /// the A and M blocks of the next shard in visit order in the background
  /// (ShardStore::prefetch). On by default — results are bit-identical
  /// either way, only residency timing changes; disable to measure or to
  /// serialize all I/O.
  void set_prefetch(bool enabled) { prefetch_ = enabled; }
  [[nodiscard]] bool prefetch_enabled() const { return prefetch_; }

  /// Tiled C = M ⊙ (A·B) (or complemented): A and M are pre-split over
  /// identical row ranges; B stays whole. `b_handle`, when bound, must be
  /// bound to `b` — the steady-state path where B's fingerprint, flops
  /// partners, and transpose persist across calls. Results are
  /// bit-identical to the monolithic Engine/ExecutionContext call with the
  /// same configuration.
  template <Semiring SR, class IT, class VT, class MT>
  CsrMatrix<IT, VT> multiply(
      Scheme scheme, const ShardedMatrix<IT, VT>& a,
      const CsrMatrix<IT, VT>& b, const ShardedMatrix<IT, MT>& m,
      MaskKind kind = MaskKind::kMask,
      MaskSemantics semantics = MaskSemantics::kStructural,
      MaskedSpgemmStats* stats = nullptr,
      const std::type_identity_t<BoundMatrix<IT, VT>>* b_handle = nullptr) {
    require_scheme_supports(scheme, kind);
    if (a.shards() != m.shards() || a.ranges() != m.ranges()) {
      throw invalid_argument_error(
          "TiledEngine: operand and mask must be sharded over identical row "
          "ranges");
    }
    if (a.ncols() != b.nrows || m.ncols() != b.ncols) {
      throw invalid_argument_error("TiledEngine: dimension mismatch");
    }

    // Bind B once. A caller handle must be bound to this very operand
    // (same hazard as Engine::multiply_scheme: a mismatched handle would
    // key plans with the wrong fingerprint); otherwise bind locally so the
    // per-shard calls still share one fingerprint/transpose/values-version.
    BoundMatrix<IT, VT> local_b;
    const BoundMatrix<IT, VT>* bh = b_handle;
    if (bh != nullptr && bh->bound()) {
      if (&bh->matrix() != &b) {
        throw invalid_argument_error(
            "TiledEngine: B handle is not bound to the B operand");
      }
    } else {
      local_b = BoundMatrix<IT, VT>(b);
      bh = &local_b;
    }

    // Snapshot the stores' spill/reload counters so CacheStats receives
    // the deltas this call caused (A and M may share one store).
    std::vector<const ShardStore*> stores;
    for (const ShardStore* st :
         {static_cast<const ShardStore*>(a.store()),
          static_cast<const ShardStore*>(m.store())}) {
      if (st != nullptr &&
          std::find(stores.begin(), stores.end(), st) == stores.end()) {
        stores.push_back(st);
      }
    }
    std::size_t spills0 = 0;
    std::size_t reloads0 = 0;
    std::size_t pf_hits0 = 0;
    std::size_t pf_wasted0 = 0;
    for (const ShardStore* st : stores) {
      spills0 += st->stats().spills;
      reloads0 += st->stats().reloads;
      pf_hits0 += st->stats().prefetch_hits;
      pf_wasted0 += st->stats().prefetch_wasted;
    }

    const bool valued = semantics == MaskSemantics::kValued;
    const int k = a.shards();
    std::vector<CsrMatrix<IT, VT>> parts(static_cast<std::size_t>(k));
    MaskedSpgemmStats agg;
    // Planless baselines report no cache hit / symbolic skip, exactly like
    // the monolithic Engine's SS path; for planful schemes the flags start
    // true and AND across shards.
    const bool planless =
        scheme == Scheme::kSsDot || scheme == Scheme::kSsSaxpy;
    agg.plan_cache_hit = !planless;
    agg.symbolic_skipped = !planless;

    // Resident shards first, then spilled ones, each group in index order:
    // a warm call computes what the store kept before reloading anything.
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(k));
    for (const bool resident : {true, false}) {
      for (int s = 0; s < k; ++s) {
        if ((a.resident(s) && m.resident(s)) == resident) order.push_back(s);
      }
    }

    for (std::size_t i = 0; i < order.size(); ++i) {
      const int s = order[i];
      const ShardLease<IT, VT> as = a.lease(s);
      const ShardLease<IT, MT> ms = m.lease(s);
      if (prefetch_ && i + 1 < order.size()) {
        // Overlap the next shard's reload with this shard's compute. The
        // current leases pin the working set and the resident shards were
        // visited first, so the incoming payloads displace finished
        // shards. Prefetching a spilled shard any earlier could displace a
        // resident shard this call has yet to visit.
        a.prefetch(order[i + 1]);
        m.prefetch(order[i + 1]);
      }

      CsrMatrix<IT, VT>& part = parts[static_cast<std::size_t>(s)];
      if (planless) {
        agg.total_flops += total_flops(*as, b);
        part = Engine::run_baseline<SR>(scheme, *as, b, *ms, kind, semantics);
        continue;
      }

      SpgemmOperandHints<IT, VT> hints;
      hints.fa = a.fingerprint(s);
      hints.fb = bh->fingerprint();
      hints.fm = valued ? m.valued_fingerprint(s) : m.fingerprint(s);
      hints.b_dirty = bh->dirty_log();
      hints.flops = flops_for(*hints.fa, *hints.fb, hints.b_dirty, *as, b);

      MaskedSpgemmOptions opt;
      opt.mask_kind = kind;
      opt.mask_semantics = semantics;
      // kAuto resolves per shard — each shard's flops histogram and mask
      // density get their own decision, through the same resolver (and
      // calibrated selector) as the monolithic Engine call.
      tuner::AutoDecision decision;
      engine_.resolve_options(
          scheme, hints.flops.get(), ms->nnz(),
          static_cast<std::int64_t>(ms->nrows),
          static_cast<std::int64_t>(ms->ncols), kind, decision, opt);
      if (opt.algorithm == MaskedAlgorithm::kInner) {
        hints.b_csc = bh->csc_cache();
        hints.b_values_version = bh->values_version();
      }

      MaskedSpgemmStats shard_stats;
      opt.stats = &shard_stats;
      part = engine_.context().multiply<SR>(*as, b, *ms, opt, &hints);
      agg.absorb(shard_stats);
    }

    std::size_t spills1 = 0;
    std::size_t reloads1 = 0;
    std::size_t pf_hits1 = 0;
    std::size_t pf_wasted1 = 0;
    for (const ShardStore* st : stores) {
      spills1 += st->stats().spills;
      reloads1 += st->stats().reloads;
      pf_hits1 += st->stats().prefetch_hits;
      pf_wasted1 += st->stats().prefetch_wasted;
    }
    engine_.context().record_tiled(static_cast<std::size_t>(k),
                                   spills1 - spills0, reloads1 - reloads0,
                                   pf_hits1 - pf_hits0,
                                   pf_wasted1 - pf_wasted0);
    if (stats != nullptr) *stats = agg;
    return stitch_row_blocks(parts, b.ncols);
  }

  /// Convenience overload: the mask arrives whole and is split (in memory,
  /// no store) over A's row ranges.
  template <Semiring SR, class IT, class VT, class MT>
  CsrMatrix<IT, VT> multiply(
      Scheme scheme, const ShardedMatrix<IT, VT>& a,
      const CsrMatrix<IT, VT>& b, const CsrMatrix<IT, MT>& m,
      MaskKind kind = MaskKind::kMask,
      MaskSemantics semantics = MaskSemantics::kStructural,
      MaskedSpgemmStats* stats = nullptr,
      const std::type_identity_t<BoundMatrix<IT, VT>>* b_handle = nullptr) {
    const ShardedMatrix<IT, MT> msh(m, a);
    return multiply<SR>(scheme, a, b, msh, kind, semantics, stats, b_handle);
  }

  /// Streaming-update passthrough for a sharded A operand: apply `edits`
  /// to the delta matrix, then re-slice only the shards whose row ranges
  /// overlap the touched rows (ShardedMatrix::refresh_rows). Refreshed
  /// shards carry new split fingerprints, so their next multiply re-plans
  /// and recounts flops from scratch; untouched shards keep their
  /// fingerprints and hit both the plan cache and this engine's flops
  /// cache. Stale flops entries for the old fingerprints age out of the
  /// FIFO. Requires no outstanding leases on the overlapping shards.
  template <class IT, class VT>
  DeltaUpdateResult<IT> update(DeltaMatrix<IT, VT>& dm,
                               ShardedMatrix<IT, VT>& a,
                               std::span<const EdgeUpdate<IT, VT>> edits) {
    if (a.nrows() != dm.nrows() || a.ncols() != dm.ncols()) {
      throw invalid_argument_error(
          "TiledEngine::update: sharded matrix does not match the delta "
          "matrix's shape");
    }
    DeltaUpdateResult<IT> res = dm.apply_updates(edits);
    for (int s = 0; s < a.shards(); ++s) {
      const IT lo = a.row_begin(s);
      const IT hi = a.row_end(s);
      for (const auto& run : res.touched_ranges) {
        if (run.first < hi && lo < run.second) {
          // Re-slice each overlapping shard exactly once, even when several
          // touched runs land in it (the covering range would also re-slice
          // every untouched shard sitting between two scattered runs).
          a.refresh_rows(dm.matrix(), lo, hi);
          break;
        }
      }
    }
    return res;
  }

  /// Drop the tiled layer's own cache (per-shard flops keyed by split
  /// fingerprints) along with the owned engine's plan cache, scratch,
  /// and counters.
  void clear() {
    flops_cache_.clear();
    engine_.clear();
  }

  /// Entries currently held by the per-shard flops cache (tests and
  /// observability; bounded by kMaxFlopsEntries).
  [[nodiscard]] std::size_t flops_cache_size() const {
    return flops_cache_.size();
  }

 private:
  /// Everything a shard's per-row flops vector depends on: the shard's
  /// pattern (by its split fingerprint and row count) and B's (by its
  /// fingerprint and, for a B updated in place, its dirty-log position —
  /// an identity fingerprint stays put across updates).
  struct FlopsKey {
    std::uint64_t fa;
    std::uint64_t fb;
    std::uint64_t b_log_id;
    std::uint64_t b_epoch;
    std::size_t nrows;
    bool operator==(const FlopsKey&) const = default;
  };
  /// Per-shard flops of shard·B — the tiled counterpart of
  /// BoundMatrix::flops_with, kept here because shard payloads are
  /// eviction-mobile and cannot host a BoundMatrix. A few calls' worth of
  /// shards.
  static constexpr std::size_t kMaxFlopsEntries = 64;

  template <class IT, class VT>
  std::shared_ptr<const std::vector<std::int64_t>> flops_for(
      std::uint64_t fa, std::uint64_t fb, const StructureDirtyLog<IT>* b_log,
      const CsrMatrix<IT, VT>& shard, const CsrMatrix<IT, VT>& b) {
    const FlopsKey key{fa, fb, b_log != nullptr ? b_log->id() : 0,
                       b_log != nullptr ? b_log->epoch() : 0,
                       static_cast<std::size_t>(shard.nrows)};
    if (const auto* cached = flops_cache_.find(key)) return *cached;
    auto flops = std::make_shared<const std::vector<std::int64_t>>(
        row_flops(shard, b));
    flops_cache_.put(key, flops);
    return flops;
  }

  Engine engine_;
  bool prefetch_ = true;
  BoundedCache<FlopsKey, std::shared_ptr<const std::vector<std::int64_t>>>
      flops_cache_{kMaxFlopsEntries};
};

}  // namespace msp
