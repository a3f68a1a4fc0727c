// The planning half of the plan/execute split.
//
// A `SpgemmPlan` captures everything about a masked product C = M ⊙ (A·B)
// that is derivable from the operand *patterns* alone — per-row flops, the
// one-phase output-size upper bounds, the two-phase symbolic row pointers,
// a CSC transpose of B for the pull-based kernels, and the rows with
// nonzero flops the drivers schedule — so that repeated multiplies over
// unchanged patterns (k-truss/BC iterations, a multi-mask service answering
// many queries against one A·B) pay for that work once. Plans hold **no
// references to the operands**: they are keyed by pattern fingerprints and
// re-bound to (possibly different, pattern-identical) operand objects at
// every execution, which is what makes mutated-values/same-pattern reuse safe.
//
// Plans over one A·B built through bound handles (core/bound_matrix.hpp)
// share one flops vector and one transpose. `core/exec_context.hpp` owns
// the keyed plan cache and the per-thread kernel scratch that complete the
// execution half.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/flops.hpp"
#include "core/invariants.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "matrix/ops.hpp"
#include "util/common.hpp"
#include "util/prefix_sum.hpp"

namespace msp {

// ---------------------------------------------------------------------------
// Pattern fingerprints
// ---------------------------------------------------------------------------

namespace detail {

inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Order-sensitive hash of an integer range. Blocked so large arrays hash
/// in parallel; the per-block hashes are combined in order, keeping the
/// result deterministic and thread-count independent.
template <class T>
std::uint64_t hash_range(const T* data, std::size_t n) {
  constexpr std::size_t kBlock = std::size_t{1} << 20;
  const std::size_t blocks = n == 0 ? 0 : ceil_div(n, kBlock);
  std::vector<std::uint64_t> partial(blocks, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t bi = 0; bi < static_cast<std::int64_t>(blocks); ++bi) {
    const std::size_t begin = static_cast<std::size_t>(bi) * kBlock;
    const std::size_t end = std::min(n, begin + kBlock);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t p = begin; p < end; ++p) {
      h = hash_mix(h, static_cast<std::uint64_t>(data[p]));
    }
    partial[static_cast<std::size_t>(bi)] = h;
  }
  std::uint64_t h = 0x100000001b3ULL;
  for (std::uint64_t ph : partial) h = hash_mix(h, ph);
  return h;
}

}  // namespace detail

/// 64-bit fingerprint of a CSR matrix's *pattern* (shape + rowptr + colids).
/// With `include_value_zeros` the zero/nonzero status of every stored value
/// is folded in as well — that is the effective pattern under *valued* mask
/// semantics, where an explicitly stored zero does not admit its position.
template <class IT, class VT>
std::uint64_t pattern_fingerprint(const CsrMatrix<IT, VT>& x,
                                  bool include_value_zeros = false) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = detail::hash_mix(h, static_cast<std::uint64_t>(x.nrows));
  h = detail::hash_mix(h, static_cast<std::uint64_t>(x.ncols));
  h = detail::hash_mix(h, static_cast<std::uint64_t>(x.nnz()));
  h = detail::hash_mix(h, detail::hash_range(x.rowptr.data(), x.rowptr.size()));
  h = detail::hash_mix(h, detail::hash_range(x.colids.data(), x.colids.size()));
  if (include_value_zeros) {
    std::uint64_t zh = 0x100000001b3ULL;
    std::uint64_t word = 0;
    int bits = 0;
    for (const VT& v : x.values) {
      word = (word << 1) | (v != VT{} ? 1u : 0u);
      if (++bits == 64) {
        zh = detail::hash_mix(zh, word);
        word = 0;
        bits = 0;
      }
    }
    if (bits > 0) zh = detail::hash_mix(zh, word);
    h = detail::hash_mix(h, zh);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Structure dirty log
// ---------------------------------------------------------------------------

/// Row-block granularity of partial plan refresh: dirty row ranges are
/// widened to these boundaries before artifacts are recomputed, so the
/// bookkeeping (and the refresh itself) is per row *block*, not per row.
inline constexpr int kPlanDirtyBlockRows = 256;

/// Append-only log of structurally mutated row ranges for one operand — the
/// bridge between BoundMatrix::structure_changed(row_range) and SpgemmPlan's
/// partial refresh. Each log carries a process-unique id and a monotone
/// epoch; a plan remembers (id, epoch) per operand and, on its next
/// execution, refreshes exactly the row blocks recorded since. Past a small
/// cap the *oldest half* of the entries collapses to one covering range, so
/// the log stays bounded while cursors that sync regularly keep seeing the
/// precise recent ranges; only a long-stale cursor pays a conservative
/// full-ish refresh.
template <class IT>
class StructureDirtyLog {
 public:
  struct Range {
    std::uint64_t epoch;
    IT begin;
    IT end;
  };

  StructureDirtyLog() : id_(next_id()) {}

  /// Process-unique identity: a plan cursor pinned to a different log (the
  /// operand was rebound) can never be mistaken for being up to date.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Record rows [begin, end) as structurally changed.
  void record(IT begin, IT end) {
    if (begin >= end) return;
    entries_.push_back({++epoch_, begin, end});
    if (entries_.size() > kMaxEntries) {
      // Fold the oldest half into one covering range (entries are in epoch
      // order, so its epoch is the last merged one). Recent entries — the
      // ones a regularly-syncing cursor actually consumes — stay precise.
      const std::size_t half = entries_.size() / 2;
      Range merged = entries_.front();
      for (std::size_t i = 1; i < half; ++i) {
        merged.begin = std::min(merged.begin, entries_[i].begin);
        merged.end = std::max(merged.end, entries_[i].end);
        merged.epoch = std::max(merged.epoch, entries_[i].epoch);
      }
      entries_.erase(entries_.begin() + 1, entries_.begin() + half);
      entries_.front() = merged;
    }
    MSP_CHECK_DIRTY_LOG(*this, "StructureDirtyLog::record");
  }

  /// Checked-build validator: epochs strictly increasing (the fold keeps the
  /// merged front's newest epoch, so order survives collapses), every epoch
  /// within (0, epoch()], and every range non-empty.
  void check_invariants(const char* site) const {
    invariants::check_dirty_log_ranges(entries_, epoch_, site);
  }

  /// Ranges recorded after epoch `since`. Collapsed entries carry their
  /// newest epoch over a covering range, so a stale cursor always sees a
  /// superset of what it missed — conservative, never lossy.
  [[nodiscard]] std::vector<Range> ranges_since(std::uint64_t since) const {
    std::vector<Range> out;
    for (const Range& r : entries_) {
      if (r.epoch > since) out.push_back(r);
    }
    return out;
  }

 private:
  static constexpr std::size_t kMaxEntries = 64;

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t id_;
  std::uint64_t epoch_ = 0;
  std::vector<Range> entries_;
};

/// Coalesce sorted disjoint row runs into at most `max_ranges` ranges for
/// recording into a StructureDirtyLog. Runs whose gap is under
/// kPlanDirtyBlockRows merge first — the refresh widens to block boundaries
/// anyway, so that merge never dirties an extra block. If still over the
/// cap, the narrowest inter-run gaps are swallowed next (smallest coverage
/// growth). Bounding the per-batch record count keeps one large scattered
/// batch from flushing the log's precise history for other cursors.
template <class IT>
[[nodiscard]] inline std::vector<std::pair<IT, IT>> coalesce_dirty_ranges(
    const std::vector<std::pair<IT, IT>>& runs,
    std::size_t max_ranges = 32) {
  std::vector<std::pair<IT, IT>> out;
  out.reserve(runs.size());
  for (const auto& r : runs) {
    if (!out.empty() &&
        r.first - out.back().second < static_cast<IT>(kPlanDirtyBlockRows)) {
      out.back().second = std::max(out.back().second, r.second);
    } else {
      out.push_back(r);
    }
  }
  if (out.size() > max_ranges) {
    std::vector<IT> gaps;
    gaps.reserve(out.size() - 1);
    for (std::size_t i = 1; i < out.size(); ++i) {
      gaps.push_back(out[i].first - out[i - 1].second);
    }
    const std::size_t kill = out.size() - max_ranges;
    std::nth_element(gaps.begin(),
                     gaps.begin() + static_cast<std::ptrdiff_t>(kill - 1),
                     gaps.end());
    const IT cutoff = gaps[kill - 1];  // ties may merge extra runs: fine,
                                       // coverage only grows (conservative)
    std::vector<std::pair<IT, IT>> tight;
    tight.reserve(max_ranges);
    for (const auto& r : out) {
      if (!tight.empty() && r.first - tight.back().second <= cutoff) {
        tight.back().second = std::max(tight.back().second, r.second);
      } else {
        tight.push_back(r);
      }
    }
    out.swap(tight);
  }
  MSP_CHECK_COALESCE(runs, out, max_ranges, "coalesce_dirty_ranges");
  return out;
}

// ---------------------------------------------------------------------------
// Shareable CSC transpose of B
// ---------------------------------------------------------------------------

/// B's CSC transpose plus the CSR→CSC entry permutation used to re-gather
/// values. Held through a shared_ptr so a bound B handle can hand one
/// transpose to every plan it feeds and to the Engine's result splice (the
/// structure depends only on B, not on the mask). The pattern is built
/// once; `refresh_values` re-gathers from the *current* B so that
/// same-pattern value updates flow through (a stale-value cache would
/// silently poison results).
template <class IT, class VT>
struct CscTransposeCache {
  CscMatrix<IT, VT> csc;
  std::vector<IT> perm;  ///< CSR entry → CSC position
  bool built = false;
  /// Caller-tracked values version the CSC values were last gathered for
  /// (BoundMatrix::values_version). 0 means "unknown" — a raw (handle-less)
  /// execution always re-gathers and resets this to 0, so version-gated
  /// skipping only ever happens between two calls through the same handle
  /// contract.
  std::uint64_t fresh_for_version = 0;

  /// The transpose of the current B. `values_version`, when nonzero, is
  /// the caller's monotonically bumped values version for this B
  /// (BoundMatrix::values_version): if the values were last gathered for
  /// exactly that version the O(nnz) gather is skipped — the handle
  /// contract (values_changed() after in-place mutation) makes that safe,
  /// and it keeps steady-state Inner calls free of per-call value copies.
  /// Version 0 (raw callers, no contract) always re-gathers.
  const CscMatrix<IT, VT>& ensure(const CsrMatrix<IT, VT>& b,
                                  std::uint64_t values_version = 0) {
    ensure_structure(b);
    if (values_version == 0 || fresh_for_version != values_version) {
      refresh_values(b);
      fresh_for_version = values_version;
    }
    return csc;
  }

  void ensure_structure(const CsrMatrix<IT, VT>& b) {
    if (built) return;
    built = true;
    const std::size_t nnz = b.nnz();
    std::vector<IT> colptr(static_cast<std::size_t>(b.ncols) + 1, 0);
    std::vector<IT> rowids(nnz);
    perm.resize(nnz);
    std::vector<IT> next(static_cast<std::size_t>(b.ncols), 0);
    for (std::size_t p = 0; p < nnz; ++p) {
      ++next[static_cast<std::size_t>(b.colids[p])];
    }
    exclusive_prefix_sum(next);
    for (IT j = 0; j < b.ncols; ++j) {
      colptr[static_cast<std::size_t>(j)] = next[static_cast<std::size_t>(j)];
    }
    colptr[static_cast<std::size_t>(b.ncols)] = static_cast<IT>(nnz);
    for (IT i = 0; i < b.nrows; ++i) {
      for (IT p = b.rowptr[i]; p < b.rowptr[i + 1]; ++p) {
        const auto pos = static_cast<std::size_t>(
            next[static_cast<std::size_t>(b.colids[p])]++);
        rowids[pos] = i;
        perm[pos] = p;
      }
    }
    csc = CscMatrix<IT, VT>(b.nrows, b.ncols, std::move(colptr),
                            std::move(rowids), std::vector<VT>(nnz));
  }

  void refresh_values(const CsrMatrix<IT, VT>& b) {
    MSP_ASSERT(built);
#pragma omp parallel for schedule(static)
    for (std::size_t pos = 0; pos < perm.size(); ++pos) {
      csc.values[pos] = b.values[static_cast<std::size_t>(perm[pos])];
    }
  }

  /// Drop the cached transpose entirely — B's *structure* changed, so both
  /// the CSC pattern and the CSR→CSC permutation are stale. The next
  /// ensure_structure rebuilds from the mutated B.
  void invalidate() {
    built = false;
    perm.clear();
    csc = CscMatrix<IT, VT>{};
    fresh_for_version = 0;
  }
};

// ---------------------------------------------------------------------------
// Operand hints
// ---------------------------------------------------------------------------

/// Precomputed per-operand state a caller (the Engine facade's BoundMatrix
/// handles, core/bound_matrix.hpp) can hand to ExecutionContext::multiply so
/// the context skips re-deriving it. Every field is optional; an unset field
/// is computed per call exactly as before, so partially-bound calls (say, a
/// bound B under a fresh per-iteration mask) still work. Fingerprints are
/// the *raw* pattern fingerprints — the context applies its (test-only)
/// fingerprint transform before they enter a plan key, keeping the
/// collision test seam effective for hinted calls too.
template <class IT, class VT>
struct SpgemmOperandHints {
  std::optional<std::uint64_t> fa;  ///< pattern fingerprint of A
  std::optional<std::uint64_t> fb;  ///< pattern fingerprint of B
  /// Mask fingerprint under the call's semantics (pattern fingerprint for
  /// structural, valued fingerprint for valued semantics).
  std::optional<std::uint64_t> fm;
  /// Per-row flops of A·B, shared into any plan built by this call.
  std::shared_ptr<const std::vector<std::int64_t>> flops;
  /// B's transpose cache, adopted by the plan (Inner algorithm only) so
  /// the CSC structure is built once per handle rather than once per plan.
  std::shared_ptr<CscTransposeCache<IT, VT>> b_csc;
  /// B's values version (BoundMatrix::values_version): lets ensure_b_csc
  /// skip the O(nnz) value re-gather while the version is unchanged.
  std::uint64_t b_values_version = 0;
  /// Structure dirty logs of the operands (BoundMatrix::dirty_log), read by
  /// SpgemmPlan::sync to refresh exactly the mutated row blocks on a plan
  /// cache hit. Null when an operand has never seen structure_changed.
  /// Must outlive the multiply call; only read.
  const StructureDirtyLog<IT>* a_dirty = nullptr;
  const StructureDirtyLog<IT>* b_dirty = nullptr;
  const StructureDirtyLog<IT>* m_dirty = nullptr;
};

// ---------------------------------------------------------------------------
// SpgemmPlan
// ---------------------------------------------------------------------------

/// Pattern-derived execution plan for C = M ⊙ (A·B) (or ¬M ⊙ (A·B)) under a
/// fixed (mask kind, mask semantics). Eagerly captures per-row flops and the
/// semantics-reduced mask; the remaining artifacts (one-phase bounds,
/// two-phase symbolic row pointers, B's CSC transpose, the active rows)
/// are built lazily by whichever execution first needs them and cached for
/// every later call. The `ensure_*` accessors take the current operands
/// because the plan stores no references — operands may be different objects
/// across calls as long as their patterns match the plan's fingerprints.
template <class IT, class VT, class MT>
class SpgemmPlan {
 public:
  /// `shared_flops` lets a bound A handle hand every plan over the same
  /// A·B one per-row flops vector instead of each plan recounting it; when
  /// null the plan counts for itself. The caller must only pass flops
  /// actually derived from (a, b).
  SpgemmPlan(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
             const CsrMatrix<IT, MT>& m, MaskKind kind,
             MaskSemantics semantics,
             std::shared_ptr<const std::vector<std::int64_t>> shared_flops =
                 nullptr)
      : nrows_(m.nrows),
        ncols_(m.ncols),
        kind_(kind),
        semantics_(semantics),
        flops_(shared_flops != nullptr
                   ? std::move(shared_flops)
                   : std::make_shared<const std::vector<std::int64_t>>(
                         row_flops(a, b))) {
    MSP_ASSERT(flops_->size() == static_cast<std::size_t>(a.nrows));
    total_flops_ = 0;
    for (std::int64_t f : *flops_) total_flops_ += f;
    if (semantics_ == MaskSemantics::kValued) {
      // Valued semantics reduce to structural semantics on the mask with
      // its explicit zeros dropped; filtering is plan work, done once.
      filtered_ = drop_explicit_zeros(m);
    }
  }

  [[nodiscard]] IT nrows() const { return nrows_; }
  [[nodiscard]] IT ncols() const { return ncols_; }
  [[nodiscard]] MaskKind mask_kind() const { return kind_; }
  [[nodiscard]] MaskSemantics semantics() const { return semantics_; }

  /// The mask the kernels must see: the caller's mask under structural
  /// semantics, the plan's zero-filtered copy under valued semantics.
  [[nodiscard]] const CsrMatrix<IT, MT>& effective_mask(
      const CsrMatrix<IT, MT>& m) const {
    return semantics_ == MaskSemantics::kValued ? filtered_ : m;
  }

  /// Per-row multiply counts of A·B (captured at plan construction).
  [[nodiscard]] const std::vector<std::int64_t>& flops() const {
    return *flops_;
  }
  /// Shareable handle on the flops vector (plans over the same A·B built
  /// from one bound handle share it).
  [[nodiscard]] std::shared_ptr<const std::vector<std::int64_t>> flops_ptr()
      const {
    return flops_;
  }
  [[nodiscard]] std::int64_t total_flops() const { return total_flops_; }

  /// Log2-binned shape summary of the per-row flops — the input of the
  /// tuner's per-bin routing model (core/tuner.hpp). Built on first use,
  /// cached for the plan's lifetime (the flops vector is immutable).
  const FlopsHistogram& flops_histogram() {
    if (!histogram_built_) {
      histogram_ = build_flops_histogram(*flops_);
      histogram_built_ = true;
    }
    return histogram_;
  }

  /// One-phase per-row output bounds. With flops in hand the plan's bound
  /// is min(nnz(M(i,:)), flops(i)) — tighter than the planless nnz(M(i,:))
  /// — and min(ncols − nnz(M(i,:)), flops(i)) for a complemented mask.
  const std::vector<std::size_t>& ensure_bounds(const CsrMatrix<IT, MT>& m) {
    if (bounds_.empty() && nrows_ > 0) {
      const CsrMatrix<IT, MT>& mm = effective_mask(m);
      bounds_.resize(static_cast<std::size_t>(nrows_));
#pragma omp parallel for schedule(static)
      for (IT i = 0; i < nrows_; ++i) {
        const auto mask_nnz = static_cast<std::size_t>(mm.row_nnz(i));
        const auto f =
            static_cast<std::size_t>((*flops_)[static_cast<std::size_t>(i)]);
        const std::size_t allowed =
            kind_ == MaskKind::kMask
                ? mask_nnz
                : static_cast<std::size_t>(ncols_) - mask_nnz;
        bounds_[static_cast<std::size_t>(i)] = std::min(allowed, f);
      }
    }
    return bounds_;
  }

  /// Two-phase symbolic structure: the exact output row pointers. Populated
  /// by the first execution (either phase — a one-phase run's compacted
  /// rowptr is adopted too) and reused to skip symbolic passes entirely.
  [[nodiscard]] bool has_structure() const {
    return !structure_rowptr_.empty();
  }
  [[nodiscard]] const std::vector<IT>& structure_rowptr() const {
    MSP_ASSERT(has_structure());
    return structure_rowptr_;
  }
  void adopt_structure(const std::vector<IT>& rowptr) {
    MSP_ASSERT(rowptr.size() == static_cast<std::size_t>(nrows_) + 1);
    if (structure_rowptr_.empty()) structure_rowptr_ = rowptr;
  }
  /// Sink handed to the drivers: they fill it with the output row pointers
  /// if (and only if) it is still empty, which is exactly adopt_structure.
  std::vector<IT>* structure_sink() { return &structure_rowptr_; }

  /// CSC transpose of B for the pull-based Inner kernel (structure built
  /// once, values re-gathered unless `values_version` says they are fresh;
  /// see CscTransposeCache::ensure). The cache object is created lazily
  /// here unless a bound B handle injected its own through adopt_csc()
  /// first.
  const CscMatrix<IT, VT>& ensure_b_csc(const CsrMatrix<IT, VT>& b,
                                        std::uint64_t values_version = 0) {
    if (b_csc_ == nullptr) {
      b_csc_ = std::make_shared<CscTransposeCache<IT, VT>>();
    }
    return b_csc_->ensure(b, values_version);
  }

  /// Inject a (possibly already built) shared transpose cache. A no-op if
  /// the plan already owns one — an existing cache may already be built for
  /// this B and must not be silently replaced.
  void adopt_csc(std::shared_ptr<CscTransposeCache<IT, VT>> cache) {
    if (b_csc_ == nullptr) b_csc_ = std::move(cache);
  }

  /// The rows with flops > 0, ascending: the rows the drivers schedule
  /// (a zero-flops row's output is provably empty). Built on first use and
  /// dropped whenever sync() recounts the flops.
  const std::vector<IT>& active_rows() {
    if (!active_rows_) {
      active_rows_.emplace();
      for (std::size_t i = 0; i < flops_->size(); ++i) {
        if ((*flops_)[i] > 0) active_rows_->push_back(static_cast<IT>(i));
      }
    }
    return *active_rows_;
  }

  /// Partial plan refresh against the operands' structure dirty logs
  /// (BoundMatrix::structure_changed): recompute flops / bounds / symbolic
  /// row pointers for exactly the row blocks mutated since this plan last
  /// synced, instead of evicting the plan. Must be called before any other
  /// artifact accessor on a cache hit whose operands carry dirty logs.
  ///
  /// `fresh_plan` marks a plan built *this call* (its artifacts already
  /// reflect the current matrices): it adopts the logs' current epochs
  /// without refreshing. A plan meeting a non-empty log it has no cursor
  /// for (e.g. created by a raw call that predates the log)
  /// cannot tell how stale it is and conservatively refreshes every row.
  ///
  /// Returns the number of rows whose artifacts were recomputed.
  std::size_t sync(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                   const CsrMatrix<IT, MT>& m, bool fresh_plan,
                   const StructureDirtyLog<IT>* a_log,
                   const StructureDirtyLog<IT>* b_log,
                   const StructureDirtyLog<IT>* m_log) {
    using Range = typename StructureDirtyLog<IT>::Range;
    bool full_a = false, full_b = false, full_m = false;
    std::vector<Range> a_ranges, b_ranges, m_ranges;
    advance_cursor(a_log, fresh_plan, a_cursor_, a_ranges, full_a);
    advance_cursor(b_log, fresh_plan, b_cursor_, b_ranges, full_b);
    advance_cursor(m_log, fresh_plan, m_cursor_, m_ranges, full_m);
    const bool b_changed = full_b || !b_ranges.empty();
    const bool m_changed = full_m || !m_ranges.empty();
    if (!full_a && !b_changed && !m_changed && a_ranges.empty()) return 0;
    // B's structure changed: the cached transpose (pattern + permutation)
    // is stale regardless of which output rows it feeds.
    if (b_changed && b_csc_ != nullptr) b_csc_->invalidate();
    if (nrows_ == 0) return 0;

    // Mark the output rows whose flops change (A rows mutated, or A rows
    // referencing a mutated B row) and, separately, every output row whose
    // bounds/structure must be recounted (flops-dirty ∪ mask-dirty rows).
    const auto n = static_cast<std::size_t>(nrows_);
    std::vector<char> flop_dirty(n, 0);
    if (full_a) {
      std::fill(flop_dirty.begin(), flop_dirty.end(), 1);
    } else {
      for (const Range& r : a_ranges) mark_rows(flop_dirty, r.begin, r.end);
    }
    if (full_b) {
      std::fill(flop_dirty.begin(), flop_dirty.end(), 1);
    } else if (!b_ranges.empty()) {
      // Rows of A referencing a dirty B row, via a bitmap over A's columns.
      std::vector<char> b_dirty_row(static_cast<std::size_t>(a.ncols), 0);
      for (const Range& r : b_ranges) {
        const auto lo = static_cast<std::size_t>(std::max<IT>(0, r.begin));
        const auto hi = static_cast<std::size_t>(std::min<IT>(a.ncols, r.end));
        if (lo < hi) {
          std::fill(b_dirty_row.begin() + static_cast<std::ptrdiff_t>(lo),
                    b_dirty_row.begin() + static_cast<std::ptrdiff_t>(hi), 1);
        }
      }
#pragma omp parallel for schedule(dynamic, 512)
      for (IT i = 0; i < nrows_; ++i) {
        if (flop_dirty[static_cast<std::size_t>(i)]) continue;
        for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
          if (b_dirty_row[static_cast<std::size_t>(a.colids[p])]) {
            flop_dirty[static_cast<std::size_t>(i)] = 1;
            break;
          }
        }
      }
    }
    widen_to_blocks(flop_dirty);

    std::vector<char> out_dirty = flop_dirty;
    if (full_m) {
      std::fill(out_dirty.begin(), out_dirty.end(), 1);
    } else {
      for (const Range& r : m_ranges) mark_rows(out_dirty, r.begin, r.end);
    }
    widen_to_blocks(out_dirty);

    // Valued semantics carry a zero-filtered mask copy; any mask change can
    // move explicit zeros, so refilter (the filtered copy is whole-matrix).
    if (m_changed && semantics_ == MaskSemantics::kValued) {
      filtered_ = drop_explicit_zeros(m);
    }

    bool any_flop_dirty = false;
    for (char c : flop_dirty) any_flop_dirty |= (c != 0);
    if (any_flop_dirty) refresh_flops(a, b, flop_dirty);

    std::size_t rows_refreshed = 0;
    for (char c : out_dirty) rows_refreshed += (c != 0);
    if (rows_refreshed == 0) return 0;
    if (!bounds_.empty()) refresh_bounds(m, out_dirty);
    if (!structure_rowptr_.empty()) refresh_structure(a, b, m, out_dirty);
    return rows_refreshed;
  }

  /// Checked-build validator: the plan's derived artifacts must agree with
  /// the operands it is about to execute against — flops vector length,
  /// mask shape, bounds length, symbolic rowptr sizing/monotonicity, and
  /// the CSC transpose cache's shape versus B. Called after sync() on the
  /// execution path; tests call it directly on deliberately corrupted plans.
  void check_invariants(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                        const CsrMatrix<IT, MT>& m, const char* site) const {
    invariants::check_plan_flops_length(flops_->size(), a.nrows, site);
    if (m.nrows != nrows_ || m.ncols != ncols_) {
      invariants::fail("plan.mask_shape", site,
                       "mask " + std::to_string(m.nrows) + "x" +
                           std::to_string(m.ncols) + " vs plan " +
                           std::to_string(nrows_) + "x" +
                           std::to_string(ncols_));
    }
    if (!bounds_.empty() &&
        bounds_.size() != static_cast<std::size_t>(nrows_)) {
      invariants::fail("plan.bounds_length", site,
                       "bounds.size()=" + std::to_string(bounds_.size()));
    }
    invariants::check_symbolic_rowptr(structure_rowptr_, nrows_, site);
    if (b_csc_ != nullptr && b_csc_->built) {
      invariants::check_csc_shape(
          static_cast<std::int64_t>(b_csc_->csc.nrows),
          static_cast<std::int64_t>(b_csc_->csc.ncols), b_csc_->perm.size(),
          static_cast<std::int64_t>(b.nrows), static_cast<std::int64_t>(b.ncols),
          b.nnz(), site);
    }
  }

 private:
  /// Last-synced position in one operand's dirty log. log_id 0 = never
  /// pinned to any log.
  struct DirtyCursor {
    std::uint64_t log_id = 0;
    std::uint64_t epoch = 0;
  };

  /// Advance `cur` to `log`'s current epoch, reporting what was missed:
  /// `ranges` for an ordinary catch-up, `full` when staleness is unknowable
  /// (no cursor for a non-empty log, or the log disappeared/was replaced).
  static void advance_cursor(const StructureDirtyLog<IT>* log, bool fresh_plan,
                             DirtyCursor& cur,
                             std::vector<typename StructureDirtyLog<IT>::Range>&
                                 ranges,
                             bool& full) {
    if (log == nullptr) {
      // This call tracks no log for the operand, but an earlier one did:
      // mutations may have happened unseen — refresh everything.
      if (cur.log_id != 0) {
        full = true;
        cur = {};
      }
      return;
    }
    if (cur.log_id != log->id()) {
      // First encounter with this log. A fresh plan's artifacts already
      // reflect the current matrices, and an epoch-0 log has recorded
      // nothing yet; any other combination is unknowably stale.
      if (!fresh_plan && log->epoch() != 0) full = true;
      cur = {log->id(), log->epoch()};
      return;
    }
    if (cur.epoch != log->epoch()) {
      ranges = log->ranges_since(cur.epoch);
      cur.epoch = log->epoch();
    }
  }

  void mark_rows(std::vector<char>& v, IT begin, IT end) const {
    const auto lo = static_cast<std::size_t>(std::clamp<IT>(begin, 0, nrows_));
    const auto hi = static_cast<std::size_t>(std::clamp<IT>(end, 0, nrows_));
    if (lo < hi) {
      std::fill(v.begin() + static_cast<std::ptrdiff_t>(lo),
                v.begin() + static_cast<std::ptrdiff_t>(hi), 1);
    }
  }

  /// Widen per-row dirty marks to kPlanDirtyBlockRows blocks — the unit of
  /// the plan's dirty tracking (and of the skipped-work accounting).
  void widen_to_blocks(std::vector<char>& v) const {
    for (std::size_t b0 = 0; b0 < v.size();
         b0 += static_cast<std::size_t>(kPlanDirtyBlockRows)) {
      const std::size_t b1 =
          std::min(v.size(), b0 + static_cast<std::size_t>(kPlanDirtyBlockRows));
      bool any = false;
      for (std::size_t i = b0; i < b1; ++i) any |= (v[i] != 0);
      if (any) {
        std::fill(v.begin() + static_cast<std::ptrdiff_t>(b0),
                  v.begin() + static_cast<std::ptrdiff_t>(b1), 1);
      }
    }
  }

  /// Copy-on-write flops refresh: the vector may be shared with sibling
  /// plans and a bound handle, so dirty rows are recounted into a fresh
  /// copy.
  void refresh_flops(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                     const std::vector<char>& dirty) {
    auto next = std::make_shared<std::vector<std::int64_t>>(*flops_);
#pragma omp parallel for schedule(dynamic, 256)
    for (IT i = 0; i < nrows_; ++i) {
      if (!dirty[static_cast<std::size_t>(i)]) continue;
      std::int64_t f = 0;
      for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
        f += b.row_nnz(a.colids[p]);
      }
      (*next)[static_cast<std::size_t>(i)] = f;
    }
    flops_ = std::move(next);
    total_flops_ = 0;
    for (std::int64_t f : *flops_) total_flops_ += f;
    active_rows_.reset();  // lazily rebuilt from the new flops
    histogram_built_ = false;
  }

  void refresh_bounds(const CsrMatrix<IT, MT>& m,
                      const std::vector<char>& dirty) {
    const CsrMatrix<IT, MT>& mm = effective_mask(m);
#pragma omp parallel for schedule(static)
    for (IT i = 0; i < nrows_; ++i) {
      if (!dirty[static_cast<std::size_t>(i)]) continue;
      const auto mask_nnz = static_cast<std::size_t>(mm.row_nnz(i));
      const auto f =
          static_cast<std::size_t>((*flops_)[static_cast<std::size_t>(i)]);
      const std::size_t allowed =
          kind_ == MaskKind::kMask
              ? mask_nnz
              : static_cast<std::size_t>(ncols_) - mask_nnz;
      bounds_[static_cast<std::size_t>(i)] = std::min(allowed, f);
    }
  }

  /// Exact symbolic recount of the dirty rows — the number of distinct
  /// admitted product columns, which is precisely what every kernel's
  /// symbolic pass produces (the two-phase numeric driver asserts it) —
  /// then a rebuild of the row-pointer prefix sum. Untouched rows keep
  /// their counts: that is the skipped symbolic work partial refresh buys.
  void refresh_structure(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                         const CsrMatrix<IT, MT>& m,
                         const std::vector<char>& dirty) {
    const CsrMatrix<IT, MT>& mm = effective_mask(m);
    std::vector<IT> dirty_rows;
    for (IT i = 0; i < nrows_; ++i) {
      if (dirty[static_cast<std::size_t>(i)]) dirty_rows.push_back(i);
    }
    std::vector<IT> counts(dirty_rows.size(), 0);
    const auto ncols = static_cast<std::size_t>(ncols_);
#pragma omp parallel
    {
      // Generation-stamped dense mask/seen arrays: O(ncols) once per
      // thread, O(row output) per row — the MSA bookkeeping trick.
      std::vector<std::uint32_t> mask_gen(ncols, 0);
      std::vector<std::uint32_t> seen_gen(ncols, 0);
      std::uint32_t gen = 0;
#pragma omp for schedule(dynamic, 16)
      for (std::int64_t idx = 0;
           idx < static_cast<std::int64_t>(dirty_rows.size()); ++idx) {
        const IT i = dirty_rows[static_cast<std::size_t>(idx)];
        ++gen;
        for (IT mj : mm.row_cols(i)) {
          mask_gen[static_cast<std::size_t>(mj)] = gen;
        }
        IT cnt = 0;
        for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
          const IT k = a.colids[p];
          for (IT q = b.rowptr[k]; q < b.rowptr[k + 1]; ++q) {
            const auto j = static_cast<std::size_t>(b.colids[q]);
            const bool admitted = kind_ == MaskKind::kMask
                                      ? mask_gen[j] == gen
                                      : mask_gen[j] != gen;
            if (admitted && seen_gen[j] != gen) {
              seen_gen[j] = gen;
              ++cnt;
            }
          }
        }
        counts[static_cast<std::size_t>(idx)] = cnt;
      }
    }
    std::vector<IT> lens(static_cast<std::size_t>(nrows_));
    for (IT i = 0; i < nrows_; ++i) {
      lens[static_cast<std::size_t>(i)] =
          structure_rowptr_[static_cast<std::size_t>(i) + 1] -
          structure_rowptr_[static_cast<std::size_t>(i)];
    }
    for (std::size_t idx = 0; idx < dirty_rows.size(); ++idx) {
      lens[static_cast<std::size_t>(dirty_rows[idx])] = counts[idx];
    }
    structure_rowptr_[0] = 0;
    for (IT i = 0; i < nrows_; ++i) {
      structure_rowptr_[static_cast<std::size_t>(i) + 1] =
          structure_rowptr_[static_cast<std::size_t>(i)] +
          lens[static_cast<std::size_t>(i)];
    }
  }

  IT nrows_;
  IT ncols_;
  MaskKind kind_;
  MaskSemantics semantics_;

  CsrMatrix<IT, MT> filtered_;  // valued semantics only
  std::shared_ptr<const std::vector<std::int64_t>> flops_;  // shareable
  std::int64_t total_flops_ = 0;

  FlopsHistogram histogram_;            // lazy (histogram_built_)
  bool histogram_built_ = false;

  std::vector<std::size_t> bounds_;     // lazy, 1P
  std::vector<IT> structure_rowptr_;    // lazy, 2P (or adopted from 1P)
  std::shared_ptr<CscTransposeCache<IT, VT>> b_csc_;  // lazy, Inner
  std::optional<std::vector<IT>> active_rows_;  // lazy

  DirtyCursor a_cursor_;  // last-synced dirty-log positions (sync())
  DirtyCursor b_cursor_;
  DirtyCursor m_cursor_;
};

}  // namespace msp
