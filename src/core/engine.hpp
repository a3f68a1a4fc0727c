// The `msp::Engine` facade: one stable front door for every masked-product
// configuration the library supports.
//
// The paper's 14 evaluated configurations (core/scheme.hpp) used to be
// reachable only through template-heavy plumbing — every caller hand-wired
// (Scheme, MaskedSpgemmOptions, ExecutionContext*) and re-derived per-
// operand state the plan layer already caches. The Engine owns the
// `ExecutionContext` (plan cache + per-thread scratch) and splits the API
// the way mature graph frameworks split graph handles from algorithm
// invocation:
//
//  * `BoundMatrix` operand handles (core/bound_matrix.hpp) pin an
//    operand's fingerprint, per-row flops, and CSC-transpose cache to the
//    handle, so repeated calls never re-fingerprint. They are the one way
//    operand state is shared: `multiply_batch` is a loop of
//    `multiply_scheme` calls over the caller's handles of A and B, or
//    call-local ones;
//  * a fluent builder for compile-time-typed callers:
//
//        Engine engine;
//        auto c = engine.multiply(a, b)
//                     .mask(m)
//                     .complement()
//                     .semiring<PlusTimes>()
//                     .scheme(Scheme::kAuto)
//                     .run();
//
//  * a type-erased runtime path, `engine.multiply_dyn(a, b, m, cfg)`,
//    taking `SemiringId` / `Scheme` / `IndexWidth` enums, so services and
//    the bench harness dispatch one runtime-described configuration
//    through one function instead of a template cross-product;
//  * `Scheme::kAuto` as the runtime-selection seam: the documented
//    flops-density heuristic (auto_scheme_options) by default, or the
//    calibrated model of core/tuner.hpp when a profile is installed —
//    `engine.tuned(profile)` or the `MSP_TUNE_PROFILE` environment
//    fallback. The tuned path picks the phase from the measured 1P/2P
//    crossover and steers the adaptive kernel per flops bin; decisions
//    never change results, only speed;
//  * `update`, which applies a DeltaMatrix edit batch and reports the
//    touched rows to the operand's bound handle, and an incremental result
//    splice: with all three operands bound, the engine keeps the newest
//    results (a small FIFO, util/bounded_cache.hpp) and recomputes exactly
//    the rows stamped dirty since, in one numeric pass over those rows of
//    the full operands — no plan, no symbolic pass, one assembly copy.
//
// The entry points are exactly those some caller needs: the builder
// (examples, tests), `multiply_scheme` (the apps, the builder's and the
// dyn path's typed core, the benchmark), `multiply_dyn` (services: the
// serve worker, the benchmark), `multiply_batch` (multi-mask services and
// the batched bc/tricount apps), and `update`. Masked SpMV has no plan
// state, so vector-driven apps call `masked_spmv_push`/`masked_spmv_pull`
// directly.
//
// Both the builder and the dyn path produce results bit-identical to the
// planless `masked_multiply` path — the engine conformance suite
// (tests/test_engine.cpp) pins all of them to the same baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <type_traits>
#include <typeindex>
#include <utility>
#include <vector>

#include "core/baseline.hpp"
#include "core/bound_matrix.hpp"
#include "core/exec_context.hpp"
#include "core/flops.hpp"
#include "core/invariants.hpp"
#include "core/scheme.hpp"
#include "core/tuner.hpp"
#include "matrix/delta.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"
#include "util/bounded_cache.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace msp {

/// Runtime identifiers for the built-in semirings (semiring/semiring.hpp),
/// so a service can name one in a request instead of instantiating a
/// template. Custom semirings keep using the typed builder.
enum class SemiringId {
  kPlusTimes,
  kOrAnd,
  kMinPlus,
  kPlusFirst,
  kPlusSecond,
  kPlusPair,
};

inline const char* semiring_id_name(SemiringId id) {
  switch (id) {
    case SemiringId::kPlusTimes: return "plus_times";
    case SemiringId::kOrAnd: return "or_and";
    case SemiringId::kMinPlus: return "min_plus";
    case SemiringId::kPlusFirst: return "plus_first";
    case SemiringId::kPlusSecond: return "plus_second";
    case SemiringId::kPlusPair: return "plus_pair";
  }
  return "?";
}

/// Runtime index-width tag for type-erased requests. `kAny` skips the
/// check; a concrete width is validated against the instantiated IT so a
/// service wired for 64-bit ids cannot silently run a 32-bit kernel.
enum class IndexWidth {
  kAny,
  k32,
  k64,
};

template <class IT>
constexpr IndexWidth index_width_of() {
  static_assert(sizeof(IT) == 4 || sizeof(IT) == 8,
                "index types are 32- or 64-bit");
  return sizeof(IT) == 4 ? IndexWidth::k32 : IndexWidth::k64;
}

/// One runtime-described configuration for Engine::multiply_dyn — the
/// type-erased counterpart of the fluent builder.
struct DynConfig {
  SemiringId semiring = SemiringId::kPlusTimes;
  Scheme scheme = Scheme::kAuto;
  MaskKind mask_kind = MaskKind::kMask;
  MaskSemantics mask_semantics = MaskSemantics::kStructural;
  IndexWidth index_width = IndexWidth::kAny;
  MaskedSpgemmStats* stats = nullptr;
};

template <class IT, class VT>
class MultiplyStart;

template <Semiring SR, class IT, class VT, class MT>
class MultiplyBuilder;

/// A self-contained engine owning its ExecutionContext.
class Engine {
 public:
  [[nodiscard]] ExecutionContext& context() { return ctx_; }
  [[nodiscard]] const ExecutionContext::CacheStats& cache_stats() const {
    return ctx_.cache_stats();
  }
  [[nodiscard]] std::size_t plan_count() const { return ctx_.plan_count(); }
  void clear() {
    ctx_.clear();
    results_.clear();
  }
  /// Cached previous results held for the incremental splice (bounded).
  [[nodiscard]] std::size_t result_cache_size() const {
    return results_.size();
  }
  void reset_stats() { ctx_.reset_stats(); }

  // --- calibrated auto-tuning ----------------------------------------------

  /// Install a calibrated profile (core/tuner.hpp): every subsequent
  /// Scheme::kAuto resolution runs through the measured model instead of
  /// the built-in heuristic, with online refinement of the phase
  /// crossover from observed execution stats unless disabled. Fluent so a
  /// tuned engine reads `Engine().tuned(profile)`.
  Engine& tuned(tuner::TuneProfile profile, bool online_refine = true) {
    selector_ = std::make_unique<tuner::TunedSelector>(std::move(profile),
                                                       online_refine);
    env_checked_ = true;
    return *this;
  }

  /// Drop any installed profile (and suppress the environment fallback):
  /// kAuto goes back to the zero-config heuristic.
  Engine& untuned() {
    selector_.reset();
    env_checked_ = true;
    return *this;
  }

  /// The active selector: the installed profile, else a one-time lazy
  /// load of $MSP_TUNE_PROFILE, else null (heuristic kAuto).
  [[nodiscard]] tuner::TunedSelector* tuned_selector() {
    if (selector_ == nullptr && !env_checked_) {
      env_checked_ = true;
      if (const tuner::TuneProfile* p = tuner::env_profile()) {
        selector_ = std::make_unique<tuner::TunedSelector>(*p);
      }
    }
    return selector_.get();
  }

  /// Bind an operand, pinning its fingerprint/flops/transpose caches to
  /// the returned handle. See bound_matrix.hpp for the mutation contract.
  /// Binding a temporary is deleted — the handle stores a reference and
  /// the caller must keep the matrix alive.
  template <class IT, class VT>
  [[nodiscard]] BoundMatrix<IT, VT> bind(const CsrMatrix<IT, VT>& m) const {
    return BoundMatrix<IT, VT>(m);
  }
  template <class IT, class VT>
  BoundMatrix<IT, VT> bind(CsrMatrix<IT, VT>&&) const = delete;

  // --- fluent builder -----------------------------------------------------

  /// Start a fluent multiply: engine.multiply(a, b).mask(m)... — operands
  /// may be raw matrices (fingerprinted per call, always safe) or bound
  /// handles (cached state, the steady-state service path). The builder
  /// stores references, so passing a temporary matrix is deleted: it would
  /// die before .run() and dangle.
  template <class IT, class VT>
  MultiplyStart<IT, VT> multiply(const CsrMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b);
  template <class IT, class VT>
  MultiplyStart<IT, VT> multiply(const BoundMatrix<IT, VT>& a,
                                 const BoundMatrix<IT, VT>& b);
  template <class IT, class VT>
  MultiplyStart<IT, VT> multiply(const BoundMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b);
  template <class IT, class VT>
  MultiplyStart<IT, VT> multiply(const CsrMatrix<IT, VT>& a,
                                 const BoundMatrix<IT, VT>& b);
  template <class IT, class VT, class B>
  MultiplyStart<IT, VT> multiply(CsrMatrix<IT, VT>&&, const B&) = delete;
  template <class IT, class VT, class A>
  MultiplyStart<IT, VT> multiply(const A&, CsrMatrix<IT, VT>&&) = delete;

  // --- streaming updates --------------------------------------------------

  /// Apply one batch of edge mutations to a DeltaMatrix and report the
  /// touched rows to its bound handle — the single call an app (or the
  /// update fuzzer) makes per batch. The handle must be bound to the delta
  /// matrix's live CSR (`dm.matrix()`, whose address is stable across
  /// updates). The batch's touched-row runs go to the handle as one
  /// structure_changed call, which stamps exactly those rows with one new
  /// epoch: cached plans refresh just the row blocks holding them, and the
  /// result splice recomputes just them.
  template <class IT, class VT>
  DeltaUpdateResult<IT> update(DeltaMatrix<IT, VT>& dm,
                               BoundMatrix<IT, VT>& handle,
                               std::span<const EdgeUpdate<IT, VT>> edits) {
    if (!handle.bound() || &handle.matrix() != &dm.matrix()) {
      throw invalid_argument_error(
          "Engine::update: handle is not bound to the delta matrix's live "
          "matrix");
    }
    DeltaUpdateResult<IT> res = dm.apply_updates(edits);
    if (!res.touched_ranges.empty()) {
      handle.structure_changed(
          std::span<const std::pair<IT, IT>>(res.touched_ranges));
    }
    return res;
  }

  // --- typed scheme execution ---------------------------------------------

  /// Execute one scheme: C = M ⊙ (A·B) (or complemented). The typed core
  /// that the builder and multiply_dyn funnel into. The twelve paper
  /// schemes run plan-then-execute through the context (hinted with
  /// whatever bound-operand state is supplied); `kAuto` resolves per call
  /// (resolve_options); the SS-style baselines run planless
  /// (run_baseline). Throws unsupported_scheme_error for configurations
  /// the scheme cannot execute (complemented MCA).
  template <Semiring SR, class IT, class VT, class MT>
  CsrMatrix<IT, VT> multiply_scheme(
      Scheme scheme, const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
      const CsrMatrix<IT, MT>& m, MaskKind kind = MaskKind::kMask,
      MaskSemantics semantics = MaskSemantics::kStructural,
      MaskedSpgemmStats* stats = nullptr,
      const std::type_identity_t<BoundMatrix<IT, VT>>* a_handle = nullptr,
      const std::type_identity_t<BoundMatrix<IT, VT>>* b_handle = nullptr,
      const std::type_identity_t<BoundMatrix<IT, MT>>* m_handle = nullptr) {
    require_scheme_supports(scheme, kind);

    // Baselines: planless (stats still receive the flops the iterative
    // apps read).
    if (scheme == Scheme::kSsDot || scheme == Scheme::kSsSaxpy) {
      if (stats != nullptr) stats->total_flops = total_flops(a, b);
      return run_baseline<SR>(scheme, a, b, m, kind, semantics);
    }

    // A handle must be bound to the very operand object it accompanies —
    // a mismatched handle would key the plan cache with a fingerprint of
    // some other pattern and silently serve the wrong plan. O(1) pointer
    // check, enforced in every build mode.
    SpgemmOperandHints<IT, VT> hints;
    bool any_hint = false;
    if (a_handle != nullptr && a_handle->bound()) {
      if (&a_handle->matrix() != &a) {
        throw invalid_argument_error(
            "Engine: A handle is not bound to the A operand");
      }
      hints.fa = a_handle->fingerprint();
      hints.a_dirty = a_handle->dirty_log();
      any_hint = true;
    }
    if (b_handle != nullptr && b_handle->bound()) {
      if (&b_handle->matrix() != &b) {
        throw invalid_argument_error(
            "Engine: B handle is not bound to the B operand");
      }
      hints.fb = b_handle->fingerprint();
      hints.b_dirty = b_handle->dirty_log();
      any_hint = true;
    }
    if (m_handle != nullptr && m_handle->bound()) {
      if (&m_handle->matrix() != &m) {
        throw invalid_argument_error(
            "Engine: mask handle is not bound to the mask operand");
      }
      hints.fm = semantics == MaskSemantics::kValued
                     ? m_handle->valued_fingerprint()
                     : m_handle->fingerprint();
      hints.m_dirty = m_handle->dirty_log();
      any_hint = true;
    }
    // --- incremental result splice ----------------------------------------
    // With all three operands bound and A in identity-fingerprint mode
    // (every mutation of A flows through its dirty log), the engine keeps
    // the previous result per configuration. Masked SpGEMM is row-local —
    // C(i,:) = M(i,:) ⊙ (A(i,:)·B) — so when fewer than half the rows of A
    // are stamped in its dirty log since that result (B and M untouched,
    // checked via their values versions), the query recomputes exactly the
    // stamped rows in one numeric pass over the full operands
    // (ExecutionContext::multiply_rows: the scheme's own kernel and
    // numeric_row, no plan, no fingerprint, no symbolic pass for a regular
    // mask) and assembles the new result from the cached rows and the
    // recomputed ones in one copy. Every row runs
    // the numeric_row the full product runs, so the splice is bit-identical
    // to it. kAuto is excluded: it resolves its algorithm and phase from
    // the flops of the whole product, which the splice never counts.
    // The handles are tested for null here although the hints imply it:
    // gcc cannot see through the optionals, and a path with a null handle
    // reaching b_handle->csc_cache() below draws -Wnonnull once inlined.
    const bool splice_eligible =
        scheme != Scheme::kAuto && a_handle != nullptr &&
        b_handle != nullptr && m_handle != nullptr && hints.fa.has_value() &&
        hints.fb.has_value() && hints.fm.has_value() &&
        a_handle->dirty_log() != nullptr;
    const ResultKey result_key{
        std::type_index(
            typeid(std::tuple<SR, CsrMatrix<IT, VT>, CsrMatrix<IT, MT>>)),
        scheme, kind, semantics, hints.fa.value_or(0), hints.fb.value_or(0),
        hints.fm.value_or(0)};
    // The entry is copied out (its result is shared), not held: the put
    // below replaces it in the cache.
    const ResultEntry* found =
        splice_eligible ? results_.find(result_key) : nullptr;
    if (found != nullptr &&
        found->a_log_id == a_handle->dirty_log()->id() &&
        found->b_values_version == b_handle->values_version() &&
        found->m_values_version == m_handle->values_version()) {
      const ResultEntry cached = *found;
      const StructureDirtyLog<IT>& log = *a_handle->dirty_log();
      const std::vector<IT> rows = log.rows_since(cached.a_epoch);
      const auto& prev =
          *static_cast<const CsrMatrix<IT, VT>*>(cached.result.get());
      // The cached previous result must have the exact output shape the
      // current operands produce, or splicing rows into it would silently
      // serve a result for different operands.
      MSP_CHECK_SPLICE(prev, a.nrows, b.ncols, "Engine::multiply_scheme");
      if (rows.empty()) {
        if (stats != nullptr) {
          *stats = {};
          stats->plan_cache_hit = true;
          stats->symbolic_skipped = true;
          stats->output_nnz = prev.nnz();
        }
        ctx_.record_splice(0);
        return prev;
      }
      if (rows.size() * 2 < static_cast<std::size_t>(a.nrows)) {
        MaskedSpgemmOptions opt;
        opt.mask_kind = kind;
        opt.mask_semantics = semantics;
        scheme_to_options(scheme, opt);
        MaskedSpgemmStats row_stats;
        opt.stats = &row_stats;
        // Inner reads B's transpose from B's handle: built once, values
        // re-gathered only when B's values version moved.
        const CscMatrix<IT, VT>* b_csc =
            opt.algorithm == MaskedAlgorithm::kInner
                ? &b_handle->csc_cache()->ensure(b, b_handle->values_version())
                : nullptr;
        const auto fresh = ctx_.multiply_rows<SR>(a, b, m, opt, rows, b_csc);
        Timer assemble_timer;
        auto out =
            std::make_shared<CsrMatrix<IT, VT>>(splice_rows(prev, rows, fresh));
        row_stats.assemble_seconds += assemble_timer.seconds();
        MSP_CHECK_SPLICE(*out, a.nrows, b.ncols, "Engine::multiply_scheme");
        MSP_CHECK_CSR(*out, "Engine::multiply_scheme(splice)");
        results_.put(result_key, {cached.a_log_id, log.epoch(),
                                  cached.b_values_version,
                                  cached.m_values_version, out});
        if (stats != nullptr) {
          *stats = row_stats;
          stats->output_nnz = out->nnz();
          stats->plan_cache_hit = true;
          stats->plan_rows_refreshed = rows.size();
        }
        ctx_.record_splice(rows.size());
        return *out;
      }
      // Too much of the matrix is dirty: the full path below is cheaper
      // and refreshes the cache entry on its way out.
    }

    if (a_handle != nullptr && hints.fa.has_value() &&
        hints.fb.has_value()) {
      hints.flops = a_handle->flops_with(b, *hints.fb, hints.b_dirty);
    }
    MaskedSpgemmOptions opt;
    opt.mask_kind = kind;
    opt.mask_semantics = semantics;
    opt.stats = stats;
    if (scheme == Scheme::kAuto && hints.flops == nullptr) {
      // kAuto reads the per-row flops. Count once and share the vector
      // with the plan through the hints, so kAuto never scans A/B more
      // than a fixed scheme does.
      hints.flops =
          std::make_shared<const std::vector<std::int64_t>>(row_flops(a, b));
      any_hint = true;
    }
    // The tuned decision (route table) and the stats sink for online
    // refinement must outlive the multiply below; declared at call scope.
    tuner::AutoDecision decision;
    MaskedSpgemmStats refine_stats;
    tuner::TunedSelector* sel = resolve_options(
        scheme, hints.flops.get(), m.nnz(), static_cast<std::int64_t>(m.nrows),
        static_cast<std::int64_t>(m.ncols), kind, decision, opt);
    if (sel != nullptr && opt.stats == nullptr) opt.stats = &refine_stats;
    if (opt.algorithm == MaskedAlgorithm::kInner && b_handle != nullptr &&
        b_handle->bound()) {
      hints.b_csc = b_handle->csc_cache();
      hints.b_values_version = b_handle->values_version();
      any_hint = true;
    }
    CsrMatrix<IT, VT> out =
        ctx_.multiply<SR>(a, b, m, opt, any_hint ? &hints : nullptr);
    if (sel != nullptr) sel->observe(*opt.stats);
    if (splice_eligible) {
      results_.put(result_key,
                   {a_handle->dirty_log()->id(), a_handle->dirty_log()->epoch(),
                    b_handle->values_version(), m_handle->values_version(),
                    std::make_shared<CsrMatrix<IT, VT>>(out)});
    }
    return out;
  }

  /// Batched counterpart: N masks against one A·B, answered as N
  /// multiply_scheme calls over bound handles of A and B — the caller's
  /// (`a_handle`/`b_handle`, as for multiply_scheme), else call-local ones —
  /// so A and B are fingerprinted at most once per batch, never with the
  /// caller's handles, and cold plans share one flops vector and one
  /// transpose through the handles. kAuto resolves per mask. Bit-identical
  /// to N sequential multiply_scheme calls by construction. Every mask is
  /// checked (null, shape) before any plan is built. `stats`, when set,
  /// receives the batch aggregate: times, nnz and bounds summed,
  /// plan_cache_hit / symbolic_skipped only if they held for every mask.
  template <Semiring SR, class IT, class VT, class MT>
  std::vector<CsrMatrix<IT, VT>> multiply_batch(
      Scheme scheme, const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
      const std::vector<const CsrMatrix<IT, MT>*>& masks,
      MaskKind kind = MaskKind::kMask,
      MaskSemantics semantics = MaskSemantics::kStructural,
      MaskedSpgemmStats* stats = nullptr,
      const std::type_identity_t<BoundMatrix<IT, VT>>* a_handle = nullptr,
      const std::type_identity_t<BoundMatrix<IT, VT>>* b_handle = nullptr) {
    require_scheme_supports(scheme, kind);
    for (const CsrMatrix<IT, MT>* m : masks) {
      if (m == nullptr) {
        throw invalid_argument_error("multiply_batch: null mask");
      }
      detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, *m);
    }
    const BoundMatrix<IT, VT> ah =
        a_handle != nullptr && a_handle->bound() ? *a_handle
                                                 : BoundMatrix<IT, VT>(a);
    const BoundMatrix<IT, VT> bh =
        b_handle != nullptr && b_handle->bound() ? *b_handle
        : &b == &a                               ? ah
                                                 : BoundMatrix<IT, VT>(b);
    MaskedSpgemmStats agg;
    agg.plan_cache_hit = true;
    agg.symbolic_skipped = true;
    std::vector<CsrMatrix<IT, VT>> outs;
    outs.reserve(masks.size());
    for (const CsrMatrix<IT, MT>* m : masks) {
      MaskedSpgemmStats one;
      outs.push_back(multiply_scheme<SR>(scheme, a, b, *m, kind, semantics,
                                         stats != nullptr ? &one : nullptr,
                                         &ah, &bh));
      agg.absorb(one);
      agg.total_flops = one.total_flops;  // flops(A·B): one product's worth
    }
    if (stats != nullptr) *stats = agg;
    return outs;
  }

  // --- type-erased runtime path -------------------------------------------

  /// Run one runtime-described configuration: semiring, scheme, mask kind
  /// and semantics all chosen by enum value. This is the single function a
  /// service's request handler or the bench harness dispatches through.
  template <class IT, class VT, class MT>
  CsrMatrix<IT, VT> multiply_dyn(const CsrMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b,
                                 const CsrMatrix<IT, MT>& m,
                                 const DynConfig& cfg = {}) {
    return dyn_dispatch<IT, VT, MT>(cfg, a, b, m, nullptr, nullptr, nullptr);
  }

  /// Bound-handle overload: the steady-state service path — runtime
  /// configuration, cached operand state.
  template <class IT, class VT, class MT>
  CsrMatrix<IT, VT> multiply_dyn(const BoundMatrix<IT, VT>& a,
                                 const BoundMatrix<IT, VT>& b,
                                 const BoundMatrix<IT, MT>& m,
                                 const DynConfig& cfg = {}) {
    return dyn_dispatch<IT, VT, MT>(cfg, a.matrix(), b.matrix(), m.matrix(),
                                    &a, &b, &m);
  }

 private:
  template <class IT>
  static void check_index_width(IndexWidth requested) {
    if (requested == IndexWidth::kAny) return;
    if (requested != index_width_of<IT>()) {
      throw invalid_argument_error(
          "multiply_dyn: requested index width does not match the operand "
          "index type");
    }
  }

  template <class IT, class VT, class MT>
  CsrMatrix<IT, VT> dyn_dispatch(const DynConfig& cfg,
                                 const CsrMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b,
                                 const CsrMatrix<IT, MT>& m,
                                 const BoundMatrix<IT, VT>* a_handle,
                                 const BoundMatrix<IT, VT>* b_handle,
                                 const BoundMatrix<IT, MT>* m_handle) {
    check_index_width<IT>(cfg.index_width);
    switch (cfg.semiring) {
      case SemiringId::kPlusTimes:
        return multiply_scheme<PlusTimes<VT>>(cfg.scheme, a, b, m,
                                              cfg.mask_kind,
                                              cfg.mask_semantics, cfg.stats,
                                              a_handle, b_handle, m_handle);
      case SemiringId::kOrAnd:
        return multiply_scheme<OrAnd<VT>>(cfg.scheme, a, b, m, cfg.mask_kind,
                                          cfg.mask_semantics, cfg.stats,
                                          a_handle, b_handle, m_handle);
      case SemiringId::kMinPlus:
        return multiply_scheme<MinPlus<VT>>(cfg.scheme, a, b, m,
                                            cfg.mask_kind, cfg.mask_semantics,
                                            cfg.stats, a_handle, b_handle,
                                            m_handle);
      case SemiringId::kPlusFirst:
        return multiply_scheme<PlusFirst<VT>>(cfg.scheme, a, b, m,
                                              cfg.mask_kind,
                                              cfg.mask_semantics, cfg.stats,
                                              a_handle, b_handle, m_handle);
      case SemiringId::kPlusSecond:
        return multiply_scheme<PlusSecond<VT>>(cfg.scheme, a, b, m,
                                               cfg.mask_kind,
                                               cfg.mask_semantics, cfg.stats,
                                               a_handle, b_handle, m_handle);
      case SemiringId::kPlusPair:
        return multiply_scheme<PlusPair<VT>>(cfg.scheme, a, b, m,
                                             cfg.mask_kind,
                                             cfg.mask_semantics, cfg.stats,
                                             a_handle, b_handle, m_handle);
    }
    throw invalid_argument_error("multiply_dyn: unknown semiring id");
  }

  friend class TiledEngine;

  /// The one scheme-to-options resolver: fills `opt` for one of the
  /// twelve planful schemes, or resolves kAuto from the per-row flops of
  /// A·B (`flops`, read only for kAuto) and the mask's nnz and shape.
  /// With an active selector (tuned_selector()) the calibrated model sets
  /// the phase, the per-bin route table (held in `decision`, which must
  /// outlive the multiply) and the warm-plan exact-phase upgrade;
  /// otherwise the flops-density heuristic decides. Returns the selector
  /// that decided, or null.
  tuner::TunedSelector* resolve_options(
      Scheme scheme, const std::vector<std::int64_t>* flops,
      std::size_t mask_nnz, std::int64_t nrows, std::int64_t ncols,
      MaskKind kind, tuner::AutoDecision& decision,
      MaskedSpgemmOptions& opt) {
    if (scheme != Scheme::kAuto) {
      scheme_to_options(scheme, opt);
      return nullptr;
    }
    tuner::TunedSelector* sel = tuned_selector();
    if (sel != nullptr) {
      decision = sel->decide(build_flops_histogram(*flops), mask_nnz, nrows,
                             ncols, kind);
      const MaskedSpgemmOptions& resolved = decision.use_table();
      opt.algorithm = resolved.algorithm;
      opt.phase = resolved.phase;
      opt.route_table = resolved.route_table;
      opt.exact_phase_when_cached = resolved.exact_phase_when_cached;
      return sel;
    }
    std::int64_t flops_total = 0;
    for (std::int64_t f : *flops) flops_total += f;
    const MaskedSpgemmOptions resolved =
        auto_scheme_options(flops_total, mask_nnz, kind, nrows, ncols);
    opt.algorithm = resolved.algorithm;
    opt.phase = resolved.phase;
    return nullptr;
  }

  /// The SS:DOT / SS:SAXPY baselines (core/baseline.hpp), planless, with
  /// valued mask semantics reduced to structural by dropping the mask's
  /// explicitly stored zeros.
  template <Semiring SR, class IT, class VT, class MT>
  static CsrMatrix<IT, VT> run_baseline(Scheme scheme,
                                        const CsrMatrix<IT, VT>& a,
                                        const CsrMatrix<IT, VT>& b,
                                        const CsrMatrix<IT, MT>& m,
                                        MaskKind kind,
                                        MaskSemantics semantics) {
    if (semantics == MaskSemantics::kValued) {
      return run_baseline<SR>(scheme, a, b, drop_explicit_zeros(m), kind,
                              MaskSemantics::kStructural);
    }
    return scheme == Scheme::kSsDot ? baseline_dot<SR>(a, b, m, kind)
                                    : baseline_saxpy<SR>(a, b, m, kind);
  }

  /// The spliced result: `prev`'s rows outside `rows` (ascending) and the
  /// recomputed rows (`fresh`, one row per listed row, in list order),
  /// copied once, run of clean rows by run, into the new matrix.
  template <class IT, class VT>
  static CsrMatrix<IT, VT> splice_rows(const CsrMatrix<IT, VT>& prev,
                                       const std::vector<IT>& rows,
                                       const CsrMatrix<IT, VT>& fresh) {
    CsrMatrix<IT, VT> out(prev.nrows, prev.ncols);
    std::size_t replaced = 0;
    for (const IT i : rows) replaced += static_cast<std::size_t>(prev.row_nnz(i));
    out.colids.reserve(prev.nnz() - replaced + fresh.nnz());
    out.values.reserve(prev.nnz() - replaced + fresh.nnz());
    // Rows [lo, hi) of `src` become the next rows of `out`, starting at
    // output row `at`.
    auto append = [&](const CsrMatrix<IT, VT>& src, IT lo, IT hi, IT at) {
      const IT shift = static_cast<IT>(out.colids.size()) - src.rowptr[lo];
      for (IT i = lo; i < hi; ++i) {
        out.rowptr[at + (i - lo)] = src.rowptr[i] + shift;
      }
      out.colids.insert(out.colids.end(), src.colids.begin() + src.rowptr[lo],
                        src.colids.begin() + src.rowptr[hi]);
      out.values.insert(out.values.end(), src.values.begin() + src.rowptr[lo],
                        src.values.begin() + src.rowptr[hi]);
    };
    IT cursor = 0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const IT i = rows[k];
      append(prev, cursor, i, cursor);
      append(fresh, static_cast<IT>(k), static_cast<IT>(k) + 1, i);
      cursor = i + 1;
    }
    append(prev, cursor, prev.nrows, cursor);
    out.rowptr[prev.nrows] = static_cast<IT>(out.colids.size());
    return out;
  }

  /// The configuration a cached splice result answers: semiring and
  /// operand types (`sig`), scheme, mask kind and semantics, and all three
  /// operand fingerprints.
  struct ResultKey {
    std::type_index sig;
    Scheme scheme;
    MaskKind kind;
    MaskSemantics semantics;
    std::uint64_t fa;
    std::uint64_t fb;
    std::uint64_t fm;
    bool operator==(const ResultKey&) const = default;
  };
  /// The operand states the result was computed from, and the result (a
  /// type-erased CsrMatrix<IT, VT> behind the key's `sig`).
  struct ResultEntry {
    std::uint64_t a_log_id;
    std::uint64_t a_epoch;
    std::uint64_t b_values_version;
    std::uint64_t m_values_version;
    std::shared_ptr<void> result;
  };
  static constexpr std::size_t kResultCacheCap = 4;

  ExecutionContext ctx_;
  BoundedCache<ResultKey, ResultEntry> results_{kResultCacheCap};

  // Calibrated kAuto selector (null = heuristic). env_checked_ latches the
  // one-time $MSP_TUNE_PROFILE probe so unset environments cost nothing.
  std::unique_ptr<tuner::TunedSelector> selector_;
  bool env_checked_ = false;
};

// ---------------------------------------------------------------------------
// Fluent builder
// ---------------------------------------------------------------------------

/// Configuration stage of the fluent builder: semiring (defaults to
/// PlusTimes<VT>), scheme (defaults to kAuto), mask kind, semantics, and
/// stats sink, then `.run()`. Obtained from MultiplyStart::mask().
template <Semiring SR, class IT, class VT, class MT>
class MultiplyBuilder {
 public:
  MultiplyBuilder(Engine& engine, const CsrMatrix<IT, VT>& a,
                  BoundMatrix<IT, VT> a_handle, const CsrMatrix<IT, VT>& b,
                  BoundMatrix<IT, VT> b_handle, const CsrMatrix<IT, MT>& m,
                  BoundMatrix<IT, MT> m_handle,
                  Scheme scheme = Scheme::kAuto,
                  MaskKind kind = MaskKind::kMask,
                  MaskSemantics semantics = MaskSemantics::kStructural,
                  MaskedSpgemmStats* stats = nullptr)
      : engine_(&engine),
        a_(&a),
        b_(&b),
        m_(&m),
        a_handle_(std::move(a_handle)),
        b_handle_(std::move(b_handle)),
        m_handle_(std::move(m_handle)),
        scheme_(scheme),
        kind_(kind),
        semantics_(semantics),
        stats_(stats) {}

  /// Select the scheme (any of the paper's 14, or kAuto).
  MultiplyBuilder& scheme(Scheme s) {
    scheme_ = s;
    return *this;
  }

  /// Complement the mask: keep everything M would discard.
  MultiplyBuilder& complement() {
    kind_ = MaskKind::kComplement;
    return *this;
  }

  MultiplyBuilder& mask_kind(MaskKind k) {
    kind_ = k;
    return *this;
  }

  /// Valued GraphBLAS semantics: explicitly stored zeros in the mask do
  /// not admit their position.
  MultiplyBuilder& valued() {
    semantics_ = MaskSemantics::kValued;
    return *this;
  }

  MultiplyBuilder& semantics(MaskSemantics s) {
    semantics_ = s;
    return *this;
  }

  /// Receive per-call execution statistics.
  MultiplyBuilder& stats(MaskedSpgemmStats* s) {
    stats_ = s;
    return *this;
  }

  /// Choose the semiring by template family, applied to the value type:
  /// `.semiring<PlusTimes>()` on double operands means PlusTimes<double>.
  template <template <class> class S>
  [[nodiscard]] MultiplyBuilder<S<VT>, IT, VT, MT> semiring() const {
    return with_semiring<S<VT>>();
  }

  /// Choose a fully-specified semiring type (custom semirings included).
  template <class S>
    requires Semiring<S>
  [[nodiscard]] MultiplyBuilder<S, IT, VT, MT> semiring() const {
    return with_semiring<S>();
  }

  /// Execute. Bit-identical to ExecutionContext::multiply with the
  /// equivalent configuration.
  [[nodiscard]] CsrMatrix<IT, VT> run() const {
    return engine_->template multiply_scheme<SR>(
        scheme_, *a_, *b_, *m_, kind_, semantics_, stats_,
        a_handle_.bound() ? &a_handle_ : nullptr,
        b_handle_.bound() ? &b_handle_ : nullptr,
        m_handle_.bound() ? &m_handle_ : nullptr);
  }

 private:
  template <class S>
  [[nodiscard]] MultiplyBuilder<S, IT, VT, MT> with_semiring() const {
    return MultiplyBuilder<S, IT, VT, MT>(*engine_, *a_, a_handle_, *b_,
                                          b_handle_, *m_, m_handle_, scheme_,
                                          kind_, semantics_, stats_);
  }

  Engine* engine_;
  const CsrMatrix<IT, VT>* a_;
  const CsrMatrix<IT, VT>* b_;
  const CsrMatrix<IT, MT>* m_;
  BoundMatrix<IT, VT> a_handle_;
  BoundMatrix<IT, VT> b_handle_;
  BoundMatrix<IT, MT> m_handle_;
  Scheme scheme_;
  MaskKind kind_;
  MaskSemantics semantics_;
  MaskedSpgemmStats* stats_;
};

/// Operand stage of the fluent builder: holds (A, B); `.mask()` fixes the
/// mask (raw or bound, any value type) and yields the configuration stage.
template <class IT, class VT>
class MultiplyStart {
 public:
  MultiplyStart(Engine& engine, const CsrMatrix<IT, VT>& a,
                BoundMatrix<IT, VT> a_handle, const CsrMatrix<IT, VT>& b,
                BoundMatrix<IT, VT> b_handle)
      : engine_(&engine),
        a_(&a),
        b_(&b),
        a_handle_(std::move(a_handle)),
        b_handle_(std::move(b_handle)) {}

  template <class MT>
  [[nodiscard]] MultiplyBuilder<PlusTimes<VT>, IT, VT, MT> mask(
      const CsrMatrix<IT, MT>& m) const {
    return {*engine_, *a_, a_handle_, *b_, b_handle_, m, BoundMatrix<IT, MT>{}};
  }

  template <class MT>
  [[nodiscard]] MultiplyBuilder<PlusTimes<VT>, IT, VT, MT> mask(
      const BoundMatrix<IT, MT>& m) const {
    return {*engine_, *a_, a_handle_, *b_, b_handle_, m.matrix(), m};
  }

  /// A temporary mask would dangle before .run(); pass an lvalue.
  template <class MT>
  MultiplyBuilder<PlusTimes<VT>, IT, VT, MT> mask(CsrMatrix<IT, MT>&&)
      const = delete;

 private:
  Engine* engine_;
  const CsrMatrix<IT, VT>* a_;
  const CsrMatrix<IT, VT>* b_;
  BoundMatrix<IT, VT> a_handle_;
  BoundMatrix<IT, VT> b_handle_;
};

template <class IT, class VT>
MultiplyStart<IT, VT> Engine::multiply(const CsrMatrix<IT, VT>& a,
                                       const CsrMatrix<IT, VT>& b) {
  return {*this, a, BoundMatrix<IT, VT>{}, b, BoundMatrix<IT, VT>{}};
}

template <class IT, class VT>
MultiplyStart<IT, VT> Engine::multiply(const BoundMatrix<IT, VT>& a,
                                       const BoundMatrix<IT, VT>& b) {
  return {*this, a.matrix(), a, b.matrix(), b};
}

template <class IT, class VT>
MultiplyStart<IT, VT> Engine::multiply(const BoundMatrix<IT, VT>& a,
                                       const CsrMatrix<IT, VT>& b) {
  return {*this, a.matrix(), a, b, BoundMatrix<IT, VT>{}};
}

template <class IT, class VT>
MultiplyStart<IT, VT> Engine::multiply(const CsrMatrix<IT, VT>& a,
                                       const BoundMatrix<IT, VT>& b) {
  return {*this, a, BoundMatrix<IT, VT>{}, b.matrix(), b};
}

}  // namespace msp
