// The execution half of the plan/execute split.
//
// An `ExecutionContext` is the long-lived object a service (or an iterative
// graph algorithm) keeps across many masked multiplies. It owns
//
//  * a keyed plan cache: plans (core/plan.hpp) indexed by the operand
//    pattern fingerprints × mask kind × mask semantics, holding the newest
//    kMaxPlans plans (FIFO, util/bounded_cache.hpp), so a repeated call on
//    unchanged patterns skips flops counting, one-phase bounds, the
//    two-phase symbolic pass, B's transpose, and the active-row list;
//  * per-thread kernel scratch, type-erased and reused across calls: the
//    MSA kernel's O(ncols) dense arrays, the hash kernel's warmed-up slot
//    table, the heap and MCA arrays — allocated once per thread instead of
//    once per call.
//
// `multiply` is the plan-then-execute counterpart of `masked_multiply`; it
// produces bit-identical results (the conformance suite pins both to the
// same baseline). Operand state that outlives one call (fingerprints, the
// per-row flops vector, B's transpose) arrives through hints from bound
// handles (core/bound_matrix.hpp); many masks against one A·B is
// `Engine::multiply_batch`, a loop of such calls. `multiply_rows` computes
// just a list of output rows, planless, for the Engine's incremental result
// splice; it shares the kernel switch and the per-thread scratch with
// `multiply`. An ExecutionContext must
// not be shared by concurrent callers — it is designed for one caller
// issuing a stream of multiplies, each of which parallelizes internally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/invariants.hpp"
#include "core/masked_spgemm.hpp"
#include "core/plan.hpp"
#include "util/bounded_cache.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace msp {

class ExecutionContext {
 public:
  /// Plans held by the plan cache (FIFO eviction); plans can hold
  /// O(nrows + nnz(B)) data each, so unbounded growth would be a leak in a
  /// long-running service.
  static constexpr std::size_t kMaxPlans = 64;

  /// Cumulative cache behaviour — the observable side of amortization.
  struct CacheStats {
    std::size_t plan_hits = 0;
    std::size_t plan_misses = 0;
    std::size_t plan_evictions = 0;
    /// Cache hits whose plan failed the shape/flops cross-check (64-bit
    /// fingerprint collision, or operands re-bound to a different shape)
    /// and were therefore demoted to misses.
    std::size_t plan_mismatches = 0;
    std::size_t tiled_calls = 0;   ///< TiledEngine::multiply invocations
    std::size_t tiled_shards = 0;  ///< shard multiplies across those calls
    std::size_t shard_spills = 0;  ///< ShardStore evictions during them
    std::size_t shard_reloads = 0; ///< ShardStore reloads during them
    /// Prefetch effectiveness across tiled calls: pins served by a
    /// completed background reload vs prefetched payloads evicted unused
    /// (see ShardStore::Stats; both 0 with prefetch disabled).
    std::size_t prefetch_hits = 0;
    std::size_t prefetch_wasted = 0;
    /// O(nnz) pattern hashes actually performed. Calls that provide operand
    /// hints (Engine + BoundMatrix) skip these; the delta between calls and
    /// hashes is the observable fingerprint amortization of bound handles.
    std::size_t fingerprints_computed = 0;
    /// Plan-cache hits that caught up with a structure_changed update
    /// stream by recomputing only the dirty row blocks (SpgemmPlan::sync)
    /// instead of being evicted and rebuilt.
    std::size_t plan_partial_refreshes = 0;
    /// Total rows recomputed across those partial refreshes. Compared to
    /// nrows × hits this shows how much planning the per-block dirty
    /// tracking skipped for untouched blocks.
    std::size_t plan_rows_refreshed = 0;
    /// Queries served by the Engine's incremental result splice: only the
    /// rows dirty since the cached previous result were recomputed and
    /// stitched into the untouched rows (bit-identical by row locality).
    std::size_t result_splices = 0;
    /// Rows recomputed across those splices; everything else was reused.
    std::size_t result_rows_recomputed = 0;
    double plan_seconds = 0.0;  ///< total planning/setup time across calls
  };

  [[nodiscard]] const CacheStats& cache_stats() const { return stats_; }
  [[nodiscard]] std::size_t plan_count() const { return plans_.size(); }

  /// Drop every cached plan, all per-thread scratch, and the cumulative
  /// counters. A context reset between bench configurations must not leak
  /// hit/miss/plan_seconds across them.
  void clear() {
    plans_.clear();
    thread_scratch_.clear();
    stats_ = CacheStats{};
  }

  /// Reset the cumulative counters only, keeping plans and scratch warm —
  /// for callers that want fresh statistics over an already-warm cache.
  void reset_stats() { stats_ = CacheStats{}; }

  /// Fold one incremental result splice into the stats (called by the
  /// Engine, which owns the result cache the splice reads from).
  void record_splice(std::size_t rows_recomputed) {
    ++stats_.result_splices;
    stats_.result_rows_recomputed += rows_recomputed;
  }

  /// Fold one sharded/tiled multiply's shard-level accounting into the
  /// cumulative stats (called by TiledEngine, which observes its stores'
  /// spill/reload deltas around the shard loop).
  void record_tiled(std::size_t shards, std::size_t spills,
                    std::size_t reloads, std::size_t prefetch_hits = 0,
                    std::size_t prefetch_wasted = 0) {
    ++stats_.tiled_calls;
    stats_.tiled_shards += shards;
    stats_.shard_spills += spills;
    stats_.shard_reloads += reloads;
    stats_.prefetch_hits += prefetch_hits;
    stats_.prefetch_wasted += prefetch_wasted;
  }

  /// Test seam: post-transform applied to every pattern fingerprint before
  /// it enters a plan key. Forcing a constant makes every key collide,
  /// which is the only practical way to exercise the hit-path shape
  /// cross-check (real 64-bit collisions cannot be constructed on demand).
  using FingerprintTransform = std::uint64_t (*)(std::uint64_t);
  void set_fingerprint_transform_for_testing(FingerprintTransform fn) {
    fp_transform_ = fn;
  }

  /// Fetch (or build) the plan for the given operands/configuration. The
  /// returned reference stays valid until kMaxPlans later misses evict it
  /// or clear() is called; the common usage is within one multiply.
  /// `hints` (see plan.hpp) carries operand state precomputed by the
  /// caller — fingerprints that skip the per-call hash, a shared flops
  /// vector threaded into any plan built here; every hint is optional and
  /// missing pieces are derived exactly as an unhinted call would.
  template <class IT, class VT, class MT>
  SpgemmPlan<IT, VT, MT>& plan_for(
      const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
      const CsrMatrix<IT, MT>& m, MaskKind kind, MaskSemantics semantics,
      bool* cache_hit = nullptr,
      const SpgemmOperandHints<IT, VT>* hints = nullptr) {
    using Plan = SpgemmPlan<IT, VT, MT>;
    // Aliased operands (ktruss: A = B = M = C; tricount: L thrice) are
    // fingerprinted once, not three times; hinted fingerprints are not
    // recomputed at all (they go through the same test-only transform, so
    // hinted and unhinted calls agree on every key).
    const bool valued = semantics == MaskSemantics::kValued;
#if MSP_CHECKED_BUILD
    // Hint-freshness: a hinted fingerprint without a dirty log attached
    // claims "this is still the hash of the operand's pattern" — recount
    // and verify. (With a dirty log the handle is in identity-fingerprint
    // mode and the hint is deliberately not a pattern hash.) Raw values
    // are compared, before the test-only key transform.
    if (hints != nullptr) {
      static constexpr const char* kSite = "ExecutionContext::plan_for";
      if (hints->fa.has_value() && hints->a_dirty == nullptr) {
        MSP_CHECK_HINT_FP(*hints->fa, pattern_fingerprint(a, false), "A",
                          kSite);
      }
      if (hints->fb.has_value() && hints->b_dirty == nullptr) {
        MSP_CHECK_HINT_FP(*hints->fb, pattern_fingerprint(b, false), "B",
                          kSite);
      }
      if (hints->fm.has_value() && hints->m_dirty == nullptr) {
        MSP_CHECK_HINT_FP(*hints->fm, pattern_fingerprint(m, valued), "M",
                          kSite);
      }
    }
#endif
    const std::uint64_t fa = hints != nullptr && hints->fa.has_value()
                                 ? transform(*hints->fa)
                                 : fingerprint(a, false);
    std::uint64_t fb;
    if (hints != nullptr && hints->fb.has_value()) {
      fb = transform(*hints->fb);
    } else if (&b == &a) {
      fb = fa;
    } else {
      fb = fingerprint(b, false);
    }
    const std::uint64_t fm = hints != nullptr && hints->fm.has_value()
                                 ? transform(*hints->fm)
                                 : mask_fingerprint(a, b, m, fa, fb, valued);
    const PlanKey key{fa, fb, fm, kind, semantics,
                      std::type_index(typeid(Plan))};
    return *acquire_plan<IT, VT, MT>(key, a, b, m, kind, semantics, cache_hit,
                                     hints != nullptr ? hints->flops
                                                      : nullptr);
  }

  /// Per-thread scratch of any default-constructible type, created on
  /// first use and kept for the context's lifetime. Safe to call from
  /// inside a parallel region: each thread only touches its own slot
  /// (the slot vector is pre-sized serially by multiply()).
  template <class T>
  T& scratch(int tid) {
    MSP_ASSERT(tid >= 0 &&
               static_cast<std::size_t>(tid) < thread_scratch_.size());
    auto& map = thread_scratch_[static_cast<std::size_t>(tid)];
    auto it = map.find(std::type_index(typeid(T)));
    if (it == map.end()) {
      it = map.emplace(std::type_index(typeid(T)), std::make_shared<T>())
               .first;
    }
    return *static_cast<T*>(it->second.get());
  }

  /// Size the per-thread scratch table (serial; called before parallel
  /// regions hand out scratch references).
  void prepare_threads(int n) {
    if (static_cast<std::size_t>(n) > thread_scratch_.size()) {
      thread_scratch_.resize(static_cast<std::size_t>(n));
    }
  }

  /// Plan-then-execute Masked SpGEMM: C = M ⊙ (A·B) (or ¬M ⊙ (A·B)).
  /// Bit-identical to masked_multiply with the same options; repeated
  /// calls on unchanged operand patterns reuse the cached plan (values
  /// may differ — they are re-read from the operands every call).
  /// `hints` lets bound-operand callers (core/engine.hpp) supply cached
  /// fingerprints / flops / transpose state; results are bit-identical
  /// with or without hints.
  template <Semiring SR, class IT, class VT, class MT>
  CsrMatrix<IT, VT> multiply(const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b,
                             const CsrMatrix<IT, MT>& m,
                             const MaskedSpgemmOptions& opt = {},
                             const SpgemmOperandHints<IT, VT>* hints =
                                 nullptr) {
    detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, m);
    const bool complemented = opt.mask_kind == MaskKind::kComplement;
    if (complemented && opt.algorithm == MaskedAlgorithm::kMca) {
      throw invalid_argument_error("MCA does not support complemented masks");
    }

    Timer plan_timer;
    bool hit = false;
    auto& plan = plan_for<IT, VT, MT>(a, b, m, opt.mask_kind,
                                      opt.mask_semantics, &hit, hints);
    // Catch the plan up with any structure_changed mutations before a
    // single artifact is consumed: a hit on an evolving operand refreshes
    // exactly the dirty row blocks (and a plan that cannot tell how stale
    // it is refreshes everything) instead of being evicted.
    const std::size_t rows_refreshed =
        plan.sync(a, b, m, !hit,
                  hints != nullptr ? hints->a_dirty : nullptr,
                  hints != nullptr ? hints->b_dirty : nullptr,
                  hints != nullptr ? hints->m_dirty : nullptr);
    if (rows_refreshed > 0) {
      ++stats_.plan_partial_refreshes;
      stats_.plan_rows_refreshed += rows_refreshed;
    }
    // The plan is now claimed to be consistent with these operands —
    // the boundary where every artifact accessor below starts trusting it.
    MSP_CHECK_PLAN(plan, a, b, m, "ExecutionContext::multiply");
    const CsrMatrix<IT, MT>& mm = plan.effective_mask(m);
    const std::vector<IT>& active = plan.active_rows();
    // Warm-plan phase upgrade (tuned kAuto): with the output structure
    // already exported into the plan, two-phase is pure exact numeric.
    const MaskedPhase phase =
        opt.exact_phase_when_cached && plan.has_structure()
            ? MaskedPhase::kTwoPhase
            : opt.phase;
    const std::vector<std::size_t>* ub = nullptr;
    if (phase == MaskedPhase::kOnePhase) ub = &plan.ensure_bounds(m);
    const CscMatrix<IT, VT>* b_csc = nullptr;
    if (opt.algorithm == MaskedAlgorithm::kInner) {
      if (hints != nullptr && hints->b_csc != nullptr) {
        plan.adopt_csc(hints->b_csc);
      }
      b_csc = &plan.ensure_b_csc(
          b, hints != nullptr ? hints->b_values_version : 0);
    }
    prepare_threads(max_threads());
    const double plan_seconds = plan_timer.seconds();
    stats_.plan_seconds += plan_seconds;
    if (opt.stats != nullptr) {
      opt.stats->plan_seconds = plan_seconds;
      opt.stats->plan_cache_hit = hit;
      opt.stats->symbolic_skipped = false;
      opt.stats->total_flops = plan.total_flops();
      opt.stats->plan_rows_refreshed = rows_refreshed;
    }

    // First execution of either phase exports the output row structure
    // into the plan so later two-phase runs skip their symbolic pass.
    const std::vector<IT>* cached_rowptr =
        plan.has_structure() ? &plan.structure_rowptr() : nullptr;
    std::vector<IT>* sink = plan.structure_sink();

    return detail::with_kernel<SR>(
        opt, a, b, b_csc, mm, plan.flops().data(), lend(),
        [&](auto&& factory) {
          if (phase == MaskedPhase::kOnePhase) {
            return detail::run_one_phase<IT, VT>(m.nrows, b.ncols, *ub,
                                                 factory, opt.stats, &active,
                                                 sink);
          }
          return detail::run_two_phase<IT, VT>(m.nrows, b.ncols, factory,
                                               opt.stats, &active,
                                               cached_rowptr, sink);
        });
  }

  /// C(i,:) for the listed rows only (`rows` sorted, distinct), computed
  /// on the full operands with opt's kernel: row k of the result is row
  /// rows[k] of the product. No plan, no fingerprint, and no symbolic pass
  /// for a regular mask, whose row i bounds the output row: nnz(C(i,:)) ≤
  /// nnz(M(i,:)) (paper §6). A complemented mask has no such bound, so its
  /// rows are counted with the kernel's symbolic_row first. Both phases run
  /// the same numeric_row and masked SpGEMM is row-local, so each row is
  /// bit-identical to the same row of `multiply`, whatever opt.phase says.
  /// `b_csc` is B's transpose, required for Inner. `opt.stats` receives the
  /// phase times, nnz and the flops of the listed rows.
  template <Semiring SR, class IT, class VT, class MT>
  CsrMatrix<IT, VT> multiply_rows(const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b,
                                  const CsrMatrix<IT, MT>& m,
                                  const MaskedSpgemmOptions& opt,
                                  const std::vector<IT>& rows,
                                  const CscMatrix<IT, VT>* b_csc = nullptr) {
    detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, m);
    const bool complemented = opt.mask_kind == MaskKind::kComplement;
    if (complemented && opt.algorithm == MaskedAlgorithm::kMca) {
      throw invalid_argument_error("MCA does not support complemented masks");
    }
    if (opt.algorithm == MaskedAlgorithm::kInner && b_csc == nullptr) {
      throw invalid_argument_error("multiply_rows: Inner needs B's transpose");
    }
    CsrMatrix<IT, MT> filtered;
    if (opt.mask_semantics == MaskSemantics::kValued) {
      filtered = drop_explicit_zeros_in_rows(m, rows);
    }
    const CsrMatrix<IT, MT>& mm =
        opt.mask_semantics == MaskSemantics::kValued ? filtered : m;
    prepare_threads(max_threads());
    const auto n = static_cast<IT>(rows.size());
    CsrMatrix<IT, VT> out = detail::with_kernel<SR>(
        opt, a, b, b_csc, mm, nullptr, lend(), [&](auto&& factory) {
          const auto listed = detail::listed_rows(factory, rows);
          if (complemented) {
            return detail::run_two_phase<IT, VT>(n, b.ncols, listed,
                                                 opt.stats);
          }
          std::vector<std::size_t> ub(rows.size());
          for (std::size_t k = 0; k < rows.size(); ++k) {
            ub[k] = static_cast<std::size_t>(mm.row_nnz(rows[k]));
          }
          return detail::run_one_phase<IT, VT>(n, b.ncols, ub, listed,
                                               opt.stats);
        });
    if (opt.stats != nullptr) {
      opt.stats->symbolic_skipped = !complemented;
      opt.stats->total_flops = 0;
      for (IT i : rows) {
        for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
          opt.stats->total_flops += b.row_nnz(a.colids[p]);
        }
      }
    }
    return out;
  }

 private:
  /// The scratch lender the kernel switch (detail::with_kernel) hands
  /// each thread's kernel: this context's per-thread scratch.
  auto lend() {
    return [this](auto tag, int tid) {
      return &scratch<typename decltype(tag)::type>(tid);
    };
  }

  /// Everything a plan depends on: the three operand patterns (by
  /// fingerprint), the mask kind and semantics, and the plan's index and
  /// value types.
  struct PlanKey {
    std::uint64_t fa;
    std::uint64_t fb;
    std::uint64_t fm;
    MaskKind kind;
    MaskSemantics semantics;
    std::type_index type;
    bool operator==(const PlanKey&) const = default;
  };

  /// The (test-only) fingerprint post-transform, applied to every raw
  /// fingerprint — computed here or supplied through hints — before it
  /// enters a plan key.
  [[nodiscard]] std::uint64_t transform(std::uint64_t h) const {
    return fp_transform_ != nullptr ? fp_transform_(h) : h;
  }

  /// Pattern fingerprint with the post-transform applied. Counted in
  /// CacheStats::fingerprints_computed — hinted calls never get here.
  template <class IT, class T>
  std::uint64_t fingerprint(const CsrMatrix<IT, T>& x,
                            bool include_value_zeros) {
    ++stats_.fingerprints_computed;
    return transform(pattern_fingerprint(x, include_value_zeros));
  }

  /// Mask fingerprint with the aliasing shortcut (a mask that *is* A or B
  /// under structural semantics reuses their fingerprint).
  template <class IT, class VT, class MT>
  std::uint64_t mask_fingerprint(const CsrMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b,
                                 const CsrMatrix<IT, MT>& m, std::uint64_t fa,
                                 std::uint64_t fb, bool valued) {
    if constexpr (std::is_same_v<VT, MT>) {
      if (!valued &&
          static_cast<const void*>(&m) == static_cast<const void*>(&a)) {
        return fa;
      }
      if (!valued &&
          static_cast<const void*>(&m) == static_cast<const void*>(&b)) {
        return fb;
      }
    }
    return fingerprint(m, valued);
  }

  /// Look up (or build) a plan by key, returning shared ownership. On a
  /// hit the plan's shape and flops length are cross-checked against the
  /// *current* operands: a 64-bit fingerprint is not proof of identity,
  /// and a collision (or a caller re-binding operands of a different
  /// shape) must not silently execute a mismatched plan — mismatches are
  /// demoted to misses and the stale entry is dropped. A plan built here
  /// adopts `flops` (the hinted per-row flops of A·B) when given.
  template <class IT, class VT, class MT>
  std::shared_ptr<SpgemmPlan<IT, VT, MT>> acquire_plan(
      const PlanKey& key, const CsrMatrix<IT, VT>& a,
      const CsrMatrix<IT, VT>& b, const CsrMatrix<IT, MT>& m, MaskKind kind,
      MaskSemantics semantics, bool* cache_hit,
      std::shared_ptr<const std::vector<std::int64_t>> flops) {
    using Plan = SpgemmPlan<IT, VT, MT>;
    if (const auto* cached = plans_.find(key)) {
      auto plan = std::static_pointer_cast<Plan>(*cached);
      if (plan->nrows() == m.nrows && plan->ncols() == m.ncols &&
          plan->flops().size() == static_cast<std::size_t>(a.nrows)) {
        ++stats_.plan_hits;
        if (cache_hit != nullptr) *cache_hit = true;
        return plan;
      }
      ++stats_.plan_mismatches;
      plans_.erase_if([&](const PlanKey& k) { return k == key; });
    }
    ++stats_.plan_misses;
    if (cache_hit != nullptr) *cache_hit = false;
    auto plan = std::make_shared<Plan>(a, b, m, kind, semantics,
                                       std::move(flops));
    stats_.plan_evictions += plans_.put(key, plan);
    return plan;
  }

  BoundedCache<PlanKey, std::shared_ptr<void>> plans_{kMaxPlans};
  CacheStats stats_;
  std::vector<std::unordered_map<std::type_index, std::shared_ptr<void>>>
      thread_scratch_;
  FingerprintTransform fp_transform_ = nullptr;
};

}  // namespace msp
