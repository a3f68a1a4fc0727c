// Bound-operand handles for the Engine facade (core/engine.hpp).
//
// A `BoundMatrix` pins the per-operand state that the plan/execute split
// otherwise re-derives on every call to the handle itself:
//
//  * the 64-bit pattern fingerprint (and, lazily, the valued-semantics
//    fingerprint that also folds in the zero/nonzero status of stored
//    values) — so a service's steady-state calls skip the O(nnz) hash of
//    each operand that ExecutionContext::multiply pays per call;
//  * the per-row flops vectors of `this · B` for the newest few partners
//    (a FIFO keyed by the partner's fingerprint, util/bounded_cache.hpp) —
//    so a plan-cache miss (new mask over known operands) rebuilds its plan
//    without recounting A·B;
//  * the CSC-transpose cache used by the pull-based Inner kernels — the
//    transpose *structure* is built once per handle and injected into
//    every plan that needs it, and the O(nnz) value re-gather is skipped
//    while the handle's values version is unchanged (bumped by
//    `values_changed()`), so steady-state Inner calls copy nothing.
//
// Handles are cheap shared-state values: copies of a handle share one
// cache. The handle does NOT own the matrix — the caller keeps it alive.
//
// Contract (the price of skipping per-call fingerprints and gathers):
// after mutating the bound matrix **in place**, tell the handle —
//
//  * values changed, pattern identical  → `values_changed()` (refreshes
//    the valued-semantics fingerprint and the cached transpose values on
//    the next execution);
//  * pattern changed in rows [r0, r1) (or in a batch of such ranges),
//    same object, same shape → `structure_changed(r0, r1)` or
//    `structure_changed(ranges)` (stamps the rows in the handle's dirty
//    log so cached plans refresh only the row blocks holding them and the
//    result splice recomputes only them; DeltaMatrix update streams drive
//    this through Engine::update);
//  * a different matrix object (or an unknown extent of change) →
//    `rebind(m)` (recomputes everything).
//
// On the first structure_changed the handle trades its pattern hash for a
// stable *identity* fingerprint derived from the dirty log: the plan-cache
// key then names "this evolving matrix", stays put across updates (so hits
// land on the same plan, which catches up via SpgemmPlan::sync), and can
// no longer collide with any raw caller's honest pattern hash — in
// particular not with a pre-update copy of the matrix, whose hash would
// otherwise hit the partially-refreshed plan.
//
// Failing to call `rebind` after an untracked pattern change makes the
// cached fingerprint stale and can silently serve a plan for the old
// pattern — exactly the hazard the per-call hashing of the raw path
// exists to avoid. Use raw `CsrMatrix` operands when patterns churn every
// call (e.g. k-truss iterations); use handles when they are stable or
// their mutations are reported.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/flops.hpp"
#include "core/plan.hpp"
#include "matrix/csr.hpp"
#include "util/bounded_cache.hpp"
#include "util/common.hpp"

namespace msp {

template <class IT, class VT>
class BoundMatrix {
 public:
  /// An unbound handle; `bound()` is false until `rebind`.
  BoundMatrix() = default;

  /// Bind to `m`, fingerprinting its pattern eagerly (the one hash this
  /// handle exists to amortize). `m` must outlive the handle.
  explicit BoundMatrix(const CsrMatrix<IT, VT>& m) { rebind(m); }

  [[nodiscard]] bool bound() const { return state_ != nullptr; }

  [[nodiscard]] const CsrMatrix<IT, VT>& matrix() const {
    MSP_ASSERT(bound());
    return *state_->matrix;
  }

  /// The cached pattern fingerprint (shape + rowptr + colids).
  [[nodiscard]] std::uint64_t fingerprint() const {
    MSP_ASSERT(bound());
    return state_->fp_pattern;
  }

  /// The valued-semantics fingerprint (pattern + zero/nonzero bitmap of
  /// the stored values), computed on first use and cached until
  /// values_changed()/rebind(). This is what a *valued* mask hashes to.
  [[nodiscard]] std::uint64_t valued_fingerprint() const {
    MSP_ASSERT(bound());
    if (!state_->has_valued_fp) {
      state_->fp_valued = pattern_fingerprint(*state_->matrix, true);
      state_->has_valued_fp = true;
    }
    return state_->fp_valued;
  }

  /// The stored values changed but the pattern did not: drop the cached
  /// valued fingerprint (recomputed lazily) and bump the values version so
  /// the next execution re-gathers any cached transpose values. Flops and
  /// the pattern fingerprint are pattern-only and stay valid.
  void values_changed() {
    MSP_ASSERT(bound());
    state_->values_version = next_values_version();
    if (state_->dirty_log != nullptr) {
      // Identity-fingerprint mode: the valued fingerprint is a stable
      // identity, so a zeroness change must flow through the dirty log
      // for valued-mask plans to refilter. Every row is stamped —
      // values_changed carries no row information.
      const std::pair<IT, IT> all{0, state_->matrix->nrows};
      state_->dirty_log->record(std::span(&all, 1));
    } else {
      state_->has_valued_fp = false;
    }
  }

  /// The matrix's *structure* changed in rows [begin, end) — same object,
  /// same shape (use `rebind` otherwise). One mutation batch; see the
  /// ranges overload.
  void structure_changed(IT begin, IT end) {
    const std::pair<IT, IT> range{begin, end};
    structure_changed(std::span(&range, 1));
  }

  /// The matrix's *structure* changed in the rows of `ranges` — one
  /// mutation batch, same object, same shape. Stamps exactly those rows
  /// with one new epoch in the handle's dirty log (created on first use,
  /// switching the handle to identity fingerprints — see the file
  /// comment), bumps the values version, and drops the cached transpose
  /// outright: cached plans then refresh the row blocks holding a stamped
  /// row on their next execution, and the result splice recomputes just
  /// the stamped rows.
  void structure_changed(std::span<const std::pair<IT, IT>> ranges) {
    MSP_ASSERT(bound());
    if (state_->dirty_log == nullptr) {
      state_->dirty_log =
          std::make_shared<StructureDirtyLog<IT>>(state_->matrix->nrows);
      state_->fp_pattern = identity_fingerprint(state_->dirty_log->id());
      state_->fp_valued =
          detail::hash_mix(state_->fp_pattern, 0x517cc1b727220a95ULL);
      state_->has_valued_fp = true;  // identity: stable, never recomputed
    }
    state_->dirty_log->record(ranges);
    state_->values_version = next_values_version();
    if (state_->csc != nullptr) state_->csc->invalidate();
  }

  /// The handle's structure dirty log — null until the first
  /// structure_changed. Passed to plans (SpgemmOperandHints) and to
  /// flops_with so both refresh incrementally.
  [[nodiscard]] const StructureDirtyLog<IT>* dirty_log() const {
    MSP_ASSERT(bound());
    return state_->dirty_log.get();
  }

  /// Identifier of the current in-place values state, drawn from one
  /// process-global counter (fresh on bind, replaced by values_changed) —
  /// globally unique, so two handles over pattern-identical matrices with
  /// different values can never present the same version to a shared
  /// transpose cache. Nonzero by construction — 0 is the "no version
  /// known" sentinel of the raw path.
  [[nodiscard]] std::uint64_t values_version() const {
    MSP_ASSERT(bound());
    return state_->values_version;
  }

  /// Bind to `m` (possibly the same object after a pattern mutation),
  /// recomputing the fingerprint and dropping every cache. Copies of this
  /// handle made before rebind keep the old state.
  void rebind(const CsrMatrix<IT, VT>& m) {
    state_ = std::make_shared<State>();
    state_->matrix = &m;
    state_->fp_pattern = pattern_fingerprint(m, false);
    state_->values_version = next_values_version();
  }

  /// Per-row flops of `matrix() · b`, cached per partner fingerprint `fb`
  /// (a handful of partners per handle; FIFO beyond that). Shared with
  /// plans so a miss never recounts. Entries remember the dirty-log epochs
  /// of both sides at count time: when this handle mutated, only the rows
  /// stamped since are recounted (copy-on-write — plans share the old
  /// vector); when the partner mutated (its `dirty_log()` goes in
  /// `b_log`), the count restarts from scratch.
  [[nodiscard]] std::shared_ptr<const std::vector<std::int64_t>> flops_with(
      const CsrMatrix<IT, VT>& b, std::uint64_t fb,
      const StructureDirtyLog<IT>* b_log = nullptr) const {
    MSP_ASSERT(bound());
    const StructureDirtyLog<IT>* a_log = state_->dirty_log.get();
    const std::uint64_t a_epoch = a_log != nullptr ? a_log->epoch() : 0;
    const std::uint64_t b_id = b_log != nullptr ? b_log->id() : 0;
    const std::uint64_t b_epoch = b_log != nullptr ? b_log->epoch() : 0;
    if (FlopsEntry* entry = state_->flops_by_partner.find(fb)) {
      if (entry->a_epoch != a_epoch || entry->b_log_id != b_id ||
          entry->b_epoch != b_epoch) {
        refresh_flops_entry(*entry, b, a_log, b_id, b_epoch);
        entry->a_epoch = a_epoch;
        entry->b_log_id = b_id;
        entry->b_epoch = b_epoch;
      }
      return entry->flops;
    }
    auto flops = std::make_shared<const std::vector<std::int64_t>>(
        row_flops(*state_->matrix, b));
    state_->flops_by_partner.put(fb, {flops, a_epoch, b_id, b_epoch});
    return flops;
  }

  /// The handle's transpose cache (created empty on first use); plans
  /// adopt it so the CSC structure of this matrix is built once per
  /// handle, not once per plan.
  [[nodiscard]] std::shared_ptr<CscTransposeCache<IT, VT>> csc_cache()
      const {
    MSP_ASSERT(bound());
    if (state_->csc == nullptr) {
      state_->csc = std::make_shared<CscTransposeCache<IT, VT>>();
    }
    return state_->csc;
  }

 private:
  static constexpr std::size_t kMaxFlopsPartners = 8;

  static std::uint64_t next_values_version() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  /// Stable identity key for a structurally evolving matrix: salted mix of
  /// the (process-unique) dirty-log id, disjoint w.h.p. from the honest
  /// pattern hashes raw callers present.
  static std::uint64_t identity_fingerprint(std::uint64_t log_id) {
    return detail::hash_mix(0xd6e8feb86659fd93ULL, log_id);
  }

  /// Flops of `matrix() · partner`, stamped with the dirty-log positions
  /// it was counted at. The stamps are not part of the key: a stale entry
  /// is refreshed in place, incrementally where the logs allow.
  struct FlopsEntry {
    std::shared_ptr<const std::vector<std::int64_t>> flops;
    std::uint64_t a_epoch = 0;    ///< own dirty-log epoch at count time
    std::uint64_t b_log_id = 0;   ///< partner's dirty-log identity
    std::uint64_t b_epoch = 0;
  };

  void refresh_flops_entry(FlopsEntry& entry, const CsrMatrix<IT, VT>& b,
                           const StructureDirtyLog<IT>* a_log,
                           std::uint64_t b_id, std::uint64_t b_epoch) const {
    const CsrMatrix<IT, VT>& a = *state_->matrix;
    const bool b_stale = entry.b_log_id != b_id || entry.b_epoch != b_epoch;
    if (b_stale || a_log == nullptr ||
        entry.flops->size() != static_cast<std::size_t>(a.nrows)) {
      entry.flops =
          std::make_shared<const std::vector<std::int64_t>>(row_flops(a, b));
      return;
    }
    auto next = std::make_shared<std::vector<std::int64_t>>(*entry.flops);
    const std::vector<IT> rows = a_log->rows_since(entry.a_epoch);
#pragma omp parallel for schedule(dynamic, 256)
    for (std::int64_t idx = 0; idx < static_cast<std::int64_t>(rows.size());
         ++idx) {
      const IT i = rows[static_cast<std::size_t>(idx)];
      std::int64_t f = 0;
      for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
        f += b.row_nnz(a.colids[p]);
      }
      (*next)[static_cast<std::size_t>(i)] = f;
    }
    entry.flops = std::move(next);
  }

  struct State {
    const CsrMatrix<IT, VT>* matrix = nullptr;
    std::uint64_t fp_pattern = 0;
    std::uint64_t fp_valued = 0;
    std::uint64_t values_version = 0;
    bool has_valued_fp = false;
    std::shared_ptr<CscTransposeCache<IT, VT>> csc;
    std::shared_ptr<StructureDirtyLog<IT>> dirty_log;  // null until mutation
    BoundedCache<std::uint64_t, FlopsEntry> flops_by_partner{
        kMaxFlopsPartners};
  };

  std::shared_ptr<State> state_;
};

}  // namespace msp
