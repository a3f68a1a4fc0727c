// Execution-configuration types shared by the planless dispatcher
// (core/masked_spgemm.hpp) and the plan/execute subsystem (core/plan.hpp,
// core/exec_context.hpp). Kept dependency-free so the plan layer can talk
// about mask kinds and statistics without pulling in the kernels.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace msp {

/// The algorithm families evaluated in the paper (§8: 6 schemes × 2 phases).
enum class MaskedAlgorithm {
  kMsa,      ///< masked sparse accumulator (§5.2)
  kHash,     ///< hash accumulator (§5.3)
  kMca,      ///< mask compressed accumulator (§5.4); no complement support
  kHeap,     ///< heap with NInspect = 1 (§5.5)
  kHeapDot,  ///< heap with NInspect = ∞ (§5.5)
  kInner,    ///< pull-based inner product (§4.1)
  kAdaptive, ///< per-row hybrid of MSA/Hash/Heap (paper §9 future work)
};

/// One-phase vs two-phase execution (paper §6).
enum class MaskedPhase {
  kOnePhase,
  kTwoPhase,
};

/// Regular mask (keep M's pattern) vs complemented mask (keep everything
/// except M's pattern).
enum class MaskKind {
  kMask,
  kComplement,
};

/// GraphBLAS mask semantics: a *structural* mask admits every stored entry
/// (the paper's setting — §2: "we only utilize the pattern of the mask");
/// a *valued* mask additionally requires the stored value to be nonzero,
/// so explicitly stored zeros do not admit their position.
enum class MaskSemantics {
  kStructural,
  kValued,
};

/// Execution statistics filled when MaskedSpgemmOptions::stats is set —
/// the observable data behind the paper's §6 one-phase/two-phase
/// discussion (phase time split and the quality of the mask-derived
/// output-size bound), extended with the plan/execute split's setup
/// accounting so callers can see what plan reuse amortizes away.
struct MaskedSpgemmStats {
  double symbolic_seconds = 0.0;  ///< 2P only: pattern-counting pass
  double numeric_seconds = 0.0;   ///< value-producing pass
  double assemble_seconds = 0.0;  ///< 1P only: compaction into final CSR
  std::size_t output_nnz = 0;
  std::size_t bound_nnz = 0;      ///< 1P only: Σ per-row upper bounds

  /// Plan-based execution only: seconds spent building or extending plan
  /// artifacts (flops, bounds, symbolic structure, transpose, active rows)
  /// during this call. Zero when the plan cache already held everything.
  double plan_seconds = 0.0;
  /// Plan-based execution only: true when the keyed plan cache already
  /// held a plan for the operand patterns (no planning from scratch).
  bool plan_cache_hit = false;
  /// 2P only: true when the symbolic phase was skipped because the plan
  /// already carried the output row pointers.
  bool symbolic_skipped = false;
  /// Plan-based execution only: flops(A·B) from the plan — free for
  /// callers that would otherwise rescan A/B (GFLOPS metrics, k-truss). A
  /// call answered by the Engine's result splice reports the flops of the
  /// rows it recomputed.
  std::int64_t total_flops = 0;
  /// Plan-based execution only: rows whose plan artifacts (flops, bounds,
  /// symbolic rowptr) were recomputed by a partial refresh this call —
  /// the dirty row blocks of a structure_changed update stream. 0 on a
  /// clean hit; nrows on a conservative full refresh. Together with
  /// symbolic_skipped this is the observable proof that untouched row
  /// blocks skipped their symbolic pass.
  std::size_t plan_rows_refreshed = 0;

  /// Fold one part's stats into an aggregate over several products (the
  /// shards of a tiled call, the masks of a batch): timings, sizes and
  /// flops sum; the cache-hit / symbolic-skipped flags hold only when they
  /// held for every part, so the aggregate starts with both set.
  void absorb(const MaskedSpgemmStats& s) {
    symbolic_seconds += s.symbolic_seconds;
    numeric_seconds += s.numeric_seconds;
    assemble_seconds += s.assemble_seconds;
    plan_seconds += s.plan_seconds;
    output_nnz += s.output_nnz;
    bound_nnz += s.bound_nnz;
    total_flops += s.total_flops;
    plan_cache_hit = plan_cache_hit && s.plan_cache_hit;
    symbolic_skipped = symbolic_skipped && s.symbolic_skipped;
  }

  /// output_nnz / bound_nnz — how tight the paper's nnz(M) bound was
  /// (1.0 = exact; meaningful for one-phase runs only).
  [[nodiscard]] double bound_tightness() const {
    return bound_nnz == 0 ? 1.0
                          : static_cast<double>(output_nnz) /
                                static_cast<double>(bound_nnz);
  }
};

/// Aggregated per-call statistics for an iterative algorithm or service
/// that issues many masked multiplies — the observable evidence of what
/// plan reuse amortizes (symbolic passes skipped, planning time saved).
struct PlanUsageStats {
  double symbolic_seconds = 0.0;  ///< total symbolic time actually spent
  double numeric_seconds = 0.0;
  double plan_seconds = 0.0;      ///< total planning/setup time
  std::size_t calls = 0;
  std::size_t plan_hits = 0;
  std::size_t plan_misses = 0;
  std::size_t symbolic_skips = 0;

  /// Fold one multiply's stats into the totals.
  void absorb(const MaskedSpgemmStats& s) {
    ++calls;
    symbolic_seconds += s.symbolic_seconds;
    numeric_seconds += s.numeric_seconds;
    plan_seconds += s.plan_seconds;
    if (s.plan_cache_hit) ++plan_hits; else ++plan_misses;
    if (s.symbolic_skipped) ++symbolic_skips;
  }

  /// Symbolic + planning: the setup work the plan/execute split targets.
  [[nodiscard]] double setup_seconds() const {
    return symbolic_seconds + plan_seconds;
  }
};

/// The row-level accumulator choices the adaptive kernel can be steered
/// between. A routing table (below) maps each flops-per-row bin to one of
/// these; Heap is only honoured for regular masks (its set-difference pass
/// offers no shortcut under complement — paper §5.5).
enum class RowAlgo : std::uint8_t {
  kMsa = 0,
  kHash = 1,
  kHeap = 2,
};

/// Number of log2 flops-per-row bins used by the flops histogram, the
/// tuner's calibration grid, and the adaptive routing table. Bin index is
/// bit_width(flops) clamped to [0, kFlopsBins) — bin 0 holds zero-flop
/// rows, bin b holds rows with flops in [2^(b-1), 2^b).
inline constexpr int kFlopsBins = 64;

/// Bin index for a per-row flops count (see kFlopsBins).
inline int flops_bin(std::int64_t flops) {
  const int b = std::bit_width(static_cast<std::uint64_t>(flops > 0 ? flops : 0));
  return b < kFlopsBins ? b : kFlopsBins - 1;
}

/// Per-flops-bin routing table for the adaptive kernel: route[b] names the
/// accumulator for rows whose flops fall in bin b. Produced by the tuner
/// (core/tuner.hpp) from measured per-bin kernel costs; consumed through
/// MaskedSpgemmOptions::route_table. Plain data so the planless dispatcher
/// stays dependency-free.
struct AdaptiveRouteTable {
  std::array<RowAlgo, kFlopsBins> route{};  // zero-init routes all to MSA
};

/// Histogram of per-row flops over the log2 bins — the shape summary the
/// tuner's model consumes. SpgemmPlan caches one per plan.
struct FlopsHistogram {
  std::array<std::int64_t, kFlopsBins> rows{};   ///< row count per bin
  std::array<std::int64_t, kFlopsBins> flops{};  ///< total flops per bin
  std::int64_t total_rows = 0;
  std::int64_t total_flops = 0;
};

/// Build the histogram from a per-row flops array (as computed by
/// row_flops / carried by SpgemmPlan).
inline FlopsHistogram build_flops_histogram(const std::int64_t* row_flops,
                                            std::size_t nrows) {
  FlopsHistogram h;
  h.total_rows = static_cast<std::int64_t>(nrows);
  for (std::size_t i = 0; i < nrows; ++i) {
    const std::int64_t f = row_flops[i];
    const int b = flops_bin(f);
    ++h.rows[static_cast<std::size_t>(b)];
    h.flops[static_cast<std::size_t>(b)] += f;
    h.total_flops += f;
  }
  return h;
}

inline FlopsHistogram build_flops_histogram(
    const std::vector<std::int64_t>& row_flops) {
  return build_flops_histogram(row_flops.data(), row_flops.size());
}

struct MaskedSpgemmOptions {
  MaskedAlgorithm algorithm = MaskedAlgorithm::kMsa;
  MaskedPhase phase = MaskedPhase::kOnePhase;
  MaskKind mask_kind = MaskKind::kMask;
  /// Override the heap kernel's NInspect (paper §5.5): -1 keeps the
  /// algorithm's default (1 for kHeap, ∞ for kHeapDot); 0/1/... force a
  /// value. Used by the NInspect ablation benchmark.
  long heap_n_inspect = -1;
  /// When non-null, filled with phase timings and bound quality.
  MaskedSpgemmStats* stats = nullptr;
  /// Structural (default, as in the paper) or valued mask interpretation.
  MaskSemantics mask_semantics = MaskSemantics::kStructural;
  /// Optional per-flops-bin routing for kAdaptive, produced by the tuner's
  /// calibrated model. Null keeps the kernel's built-in per-row heuristic.
  /// The table must outlive the multiply call; it is only read.
  const AdaptiveRouteTable* route_table = nullptr;
  /// Set by the calibrated kAuto path: when the execution context's plan
  /// already carries the exact output structure, upgrade the phase to
  /// two-phase. A warm two-phase run skips its symbolic pass outright, so
  /// exact-sized allocation strictly beats one-phase bound buffers plus
  /// compaction; the crossover model only prices the *cold* trade-off.
  /// Phase choice never changes the computed bits.
  bool exact_phase_when_cached = false;
};

/// Human-readable scheme name, e.g. "MSA-1P" — the labels of paper Fig. 8.
inline const char* algorithm_name(MaskedAlgorithm a) {
  switch (a) {
    case MaskedAlgorithm::kMsa: return "MSA";
    case MaskedAlgorithm::kHash: return "Hash";
    case MaskedAlgorithm::kMca: return "MCA";
    case MaskedAlgorithm::kHeap: return "Heap";
    case MaskedAlgorithm::kHeapDot: return "HeapDot";
    case MaskedAlgorithm::kInner: return "Inner";
    case MaskedAlgorithm::kAdaptive: return "Adaptive";
  }
  return "?";
}

}  // namespace msp
