// Checked-build invariant layer: deep structural validators invoked at
// every layer boundary, compiled to nothing unless MSPGEMM_CHECKED is
// defined (the -DMSPGEMM_CHECKED=ON CMake option).
//
// The layers interact through unstated structural invariants — CSR
// well-formedness (including the delta matrix's live CSR), the dirty log's
// per-row stamps, plan-artifact consistency, shard-store accounting, and
// the engine's splice-cache shape contract. The end-to-end differential
// fuzzers catch violations only after corruption has propagated three
// layers downstream; this header catches them at the boundary where they
// originate and raises a typed `msp::invariant_error` naming the violated
// invariant and the call site.
//
// Design:
//  * `MSP_CHECK_*` macros are the call-site gates. In unchecked builds
//    they expand to `((void)0)` — the validator templates are never even
//    instantiated, so release builds carry zero cost (acceptance-tested
//    against BENCH_baseline.json).
//  * Validators are templates over the container types (not concrete
//    includes), so this header depends only on util/common.hpp and can be
//    included from every layer without cycles.
//  * Validators are ordinary functions, always available: tests corrupt
//    structures on purpose and call them directly, independent of the
//    build flavour. Stateful layers (SpgemmPlan, ShardStore, DeltaMatrix,
//    StructureDirtyLog) expose a `check_invariants(site)` member that
//    gathers private state and funnels into these validators.
//
// Adding an invariant for a new layer: write a `check_<layer>` validator
// here (throw via `invariants::fail` with a stable dotted invariant name),
// add an `MSP_CHECK_<LAYER>` macro in both branches below, call it at the
// layer's mutation/handoff boundaries, and add a seeded-corruption test in
// tests/test_invariants.cpp asserting the name surfaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace msp {

/// A machine-checked structural invariant was violated. Carries the stable
/// dotted invariant name (e.g. "csr.colids_sorted") and the call site that
/// detected it, so a violation reads as "which contract, which boundary"
/// instead of a fuzzer diff three layers downstream.
class invariant_error : public std::logic_error {
 public:
  invariant_error(std::string invariant, std::string site, std::string detail)
      : std::logic_error("invariant violated: " + invariant + " at " + site +
                         (detail.empty() ? "" : " (" + detail + ")")),
        invariant_(std::move(invariant)),
        site_(std::move(site)) {}

  [[nodiscard]] const std::string& invariant() const noexcept {
    return invariant_;
  }
  [[nodiscard]] const std::string& site() const noexcept { return site_; }

 private:
  std::string invariant_;
  std::string site_;
};

namespace invariants {

[[noreturn]] inline void fail(const char* invariant, const char* site,
                              std::string detail = {}) {
  throw invariant_error(invariant, site, std::move(detail));
}

// ---------------------------------------------------------------------------
// CSR well-formedness
// ---------------------------------------------------------------------------

/// Deep CSR validation: rowptr sizing/monotonicity, nnz accounting, and
/// per-row strictly-sorted in-bounds column indices. O(nnz).
template <class Csr>
void check_csr(const Csr& x, const char* site) {
  if (x.nrows < 0 || x.ncols < 0) {
    fail("csr.shape_nonnegative", site,
         "nrows=" + std::to_string(x.nrows) +
             " ncols=" + std::to_string(x.ncols));
  }
  if (x.rowptr.size() != static_cast<std::size_t>(x.nrows) + 1) {
    fail("csr.rowptr_size", site,
         "rowptr.size()=" + std::to_string(x.rowptr.size()) +
             " nrows=" + std::to_string(x.nrows));
  }
  if (x.rowptr.front() != 0) {
    fail("csr.rowptr_front", site,
         "rowptr[0]=" + std::to_string(x.rowptr.front()));
  }
  if (static_cast<std::size_t>(x.rowptr.back()) != x.colids.size()) {
    fail("csr.nnz_accounting", site,
         "rowptr.back()=" + std::to_string(x.rowptr.back()) +
             " colids.size()=" + std::to_string(x.colids.size()));
  }
  if (x.colids.size() != x.values.size()) {
    fail("csr.colids_values_size", site,
         "colids.size()=" + std::to_string(x.colids.size()) +
             " values.size()=" + std::to_string(x.values.size()));
  }
  using IT = std::decay_t<decltype(x.rowptr[0])>;
  for (IT i = 0; i < x.nrows; ++i) {
    const IT lo = x.rowptr[static_cast<std::size_t>(i)];
    const IT hi = x.rowptr[static_cast<std::size_t>(i) + 1];
    if (hi < lo) {
      fail("csr.rowptr_monotone", site, "row " + std::to_string(i));
    }
    for (IT p = lo; p < hi; ++p) {
      const IT c = x.colids[static_cast<std::size_t>(p)];
      if (c < 0 || c >= x.ncols) {
        fail("csr.colids_in_bounds", site,
             "row " + std::to_string(i) + " col " + std::to_string(c));
      }
      if (p > lo && c <= x.colids[static_cast<std::size_t>(p) - 1]) {
        fail("csr.colids_sorted", site, "row " + std::to_string(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Structure dirty log
// ---------------------------------------------------------------------------

/// Per-row stamp validation over the raw arrays: every row stamp within
/// [0, epoch], and every block maximum at least the stamp of each row in
/// its block of `block_rows` rows — a block maximum below one of its rows
/// makes readers skip that block and silently miss the row. Data-level so
/// tests can corrupt plain vectors.
inline void check_dirty_stamps(const std::vector<std::uint64_t>& stamps,
                               const std::vector<std::uint64_t>& block_max,
                               std::uint64_t epoch, std::size_t block_rows,
                               const char* site) {
  const std::size_t blocks =
      block_rows == 0 ? 0 : (stamps.size() + block_rows - 1) / block_rows;
  if (block_max.size() != blocks) {
    fail("dirty_log.block_count", site,
         std::to_string(block_max.size()) + " blocks for " +
             std::to_string(stamps.size()) + " rows");
  }
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    if (stamps[i] > epoch) {
      fail("dirty_log.epoch_bound", site,
           "row " + std::to_string(i) + " stamp " + std::to_string(stamps[i]) +
               " > log epoch " + std::to_string(epoch));
    }
    if (stamps[i] > block_max[i / block_rows]) {
      fail("dirty_log.block_max", site,
           "row " + std::to_string(i) + " stamp " + std::to_string(stamps[i]) +
               " > block maximum " + std::to_string(block_max[i / block_rows]));
    }
  }
}

// ---------------------------------------------------------------------------
// Plan consistency
// ---------------------------------------------------------------------------

/// Flops vector length must equal A's row count — the contract behind
/// shared-flops batch construction and the hit-path cross-check.
inline void check_plan_flops_length(std::size_t flops_size,
                                    std::int64_t a_nrows, const char* site) {
  if (flops_size != static_cast<std::size_t>(a_nrows)) {
    fail("plan.flops_length", site,
         "flops.size()=" + std::to_string(flops_size) +
             " a.nrows=" + std::to_string(a_nrows));
  }
}

/// Symbolic output row pointers: exact sizing and monotonicity. (The
/// per-entry counts are pinned by the two-phase numeric driver; here we
/// guard the prefix-sum structure a partial refresh rebuilds.)
template <class IT>
void check_symbolic_rowptr(const std::vector<IT>& rowptr, IT nrows,
                           const char* site) {
  if (rowptr.empty()) return;  // structure not yet exported: legal
  if (rowptr.size() != static_cast<std::size_t>(nrows) + 1) {
    fail("plan.symbolic_rowptr_size", site,
         "rowptr.size()=" + std::to_string(rowptr.size()) +
             " nrows=" + std::to_string(nrows));
  }
  if (rowptr.front() != 0) {
    fail("plan.symbolic_rowptr_front", site,
         "rowptr[0]=" + std::to_string(rowptr.front()));
  }
  for (std::size_t i = 1; i < rowptr.size(); ++i) {
    if (rowptr[i] < rowptr[i - 1]) {
      fail("plan.symbolic_rowptr_monotone", site,
           "row " + std::to_string(i - 1));
    }
  }
}

/// CSC transpose cache shape agreement with the B it claims to mirror.
inline void check_csc_shape(std::int64_t csc_nrows, std::int64_t csc_ncols,
                            std::size_t perm_size, std::int64_t b_nrows,
                            std::int64_t b_ncols, std::size_t b_nnz,
                            const char* site) {
  if (csc_nrows != b_nrows || csc_ncols != b_ncols || perm_size != b_nnz) {
    fail("plan.csc_shape", site,
         "csc " + std::to_string(csc_nrows) + "x" + std::to_string(csc_ncols) +
             " perm=" + std::to_string(perm_size) + " vs B " +
             std::to_string(b_nrows) + "x" + std::to_string(b_ncols) +
             " nnz=" + std::to_string(b_nnz));
  }
}

// ---------------------------------------------------------------------------
// Engine result-splice cache
// ---------------------------------------------------------------------------

/// Key/operand-shape agreement for the incremental result splice: the
/// cached previous result must have exactly the output shape the current
/// operands produce, or stitching dirty row blocks into it is meaningless.
template <class Csr, class IT>
void check_splice(const Csr& prev, IT a_nrows, IT b_ncols, const char* site) {
  if (prev.nrows != a_nrows || prev.ncols != b_ncols) {
    fail("engine.splice_shape", site,
         "cached " + std::to_string(prev.nrows) + "x" +
             std::to_string(prev.ncols) + " vs expected " +
             std::to_string(a_nrows) + "x" + std::to_string(b_ncols));
  }
}

// ---------------------------------------------------------------------------
// Operand-hint fingerprint freshness
// ---------------------------------------------------------------------------

/// A hinted fingerprint must match a recount of the operand it accompanies
/// — unless the operand is in identity-fingerprint mode (a dirty log is
/// attached and tracks mutations). Catches the documented BoundMatrix
/// hazard: mutating a bound matrix without telling the handle serves a
/// plan for the old pattern.
inline void check_hint_fingerprint(std::uint64_t hinted,
                                   std::uint64_t recomputed,
                                   const char* operand, const char* site) {
  if (hinted != recomputed) {
    fail("exec.hint_fingerprint_fresh", site,
         std::string(operand) +
             " handle fingerprint does not match the operand pattern "
             "(mutated without values_changed/structure_changed/rebind?)");
  }
}

}  // namespace invariants
}  // namespace msp

// ---------------------------------------------------------------------------
// Call-site gates
// ---------------------------------------------------------------------------
// MSPGEMM_CHECKED (the CMake option) turns every MSP_CHECK_* into a real
// validator call; otherwise they compile to nothing and the validator
// templates are never instantiated.

#if defined(MSPGEMM_CHECKED)
#define MSP_CHECKED_BUILD 1
#else
#define MSP_CHECKED_BUILD 0
#endif

#if MSP_CHECKED_BUILD
#define MSP_CHECK_CSR(x, site) ::msp::invariants::check_csr((x), (site))
#define MSP_CHECK_DELTA(dm, site) (dm).check_invariants((site))
#define MSP_CHECK_DIRTY_LOG(log, site) (log).check_invariants((site))
#define MSP_CHECK_PLAN(plan, a, b, m, site) \
  (plan).check_invariants((a), (b), (m), (site))
#define MSP_CHECK_SHARD_STORE(store, site) \
  (store).check_invariants_locked((site))
#define MSP_CHECK_SPLICE(prev, a_nrows, b_ncols, site) \
  ::msp::invariants::check_splice((prev), (a_nrows), (b_ncols), (site))
#define MSP_CHECK_HINT_FP(hinted, recomputed, operand, site)           \
  ::msp::invariants::check_hint_fingerprint((hinted), (recomputed),    \
                                            (operand), (site))
#else
#define MSP_CHECK_CSR(x, site) ((void)0)
#define MSP_CHECK_DELTA(dm, site) ((void)0)
#define MSP_CHECK_DIRTY_LOG(log, site) ((void)0)
#define MSP_CHECK_PLAN(plan, a, b, m, site) ((void)0)
#define MSP_CHECK_SHARD_STORE(store, site) ((void)0)
#define MSP_CHECK_SPLICE(prev, a_nrows, b_ncols, site) ((void)0)
#define MSP_CHECK_HINT_FP(hinted, recomputed, operand, site) ((void)0)
#endif
