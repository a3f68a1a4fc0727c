// Row-parallel drivers and the public Masked SpGEMM entry point.
//
// Two execution strategies (paper §6):
//  * one-phase (1P): allocate an upper-bounded temporary, compute, compact.
//    The bound exploits the paper's key observation that the mask is a good
//    size approximation: nnz(C(i,:)) ≤ nnz(M(i,:)) for a regular mask, and
//    ≤ min(ncols − nnz(M(i,:)), flops(i)) for a complemented one.
//  * two-phase (2P): a symbolic pass computes exact per-row counts, a prefix
//    sum turns them into row pointers, and the numeric pass writes in place.
//
// Parallelization is coarse-grained across rows (paper §3): every row loop
// is one dynamic schedule of kRowChunk-row chunks. The planless path runs
// it over all rows; the plan-based path (core/plan.hpp,
// core/exec_context.hpp) runs it over the plan's active rows (flops > 0)
// and, for 2P, hands the drivers cached symbolic row pointers so repeated
// multiplies skip the symbolic pass entirely. Many masks against one A·B
// are many calls (Engine::multiply_batch), each with its own parallel
// regions. Each thread owns one kernel instance whose scratch space is
// reused across all rows it processes (and, through ExecutionContext,
// across calls); which rows a thread gets varies from call to call, and
// the bits do not depend on it.
//
// The configuration types (MaskedAlgorithm, MaskKind, MaskedSpgemmOptions,
// MaskedSpgemmStats, ...) live in core/config.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "core/flops.hpp"
#include "core/plan.hpp"
#include "core/adaptive_kernel.hpp"
#include "core/hash_accumulator.hpp"
#include "core/heap_kernel.hpp"
#include "core/inner_kernel.hpp"
#include "core/mca_accumulator.hpp"
#include "core/msa_accumulator.hpp"
#include "matrix/convert.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"
#include "util/common.hpp"
#include "util/prefix_sum.hpp"
#include "util/timer.hpp"

namespace msp {

namespace detail {

template <class IT, class MT>
void validate_shapes(IT a_rows, IT a_cols, IT b_rows, IT b_cols,
                     const CsrMatrix<IT, MT>& m) {
  if (a_cols != b_rows) {
    throw invalid_argument_error("masked_multiply: inner dimension mismatch");
  }
  if (m.nrows != a_rows || m.ncols != b_cols) {
    throw invalid_argument_error("masked_multiply: mask shape mismatch");
  }
}

/// Rows per dynamic-schedule work unit, planned or not. Small enough that
/// a few heavy rows cannot strand one thread at the end of a loop.
inline constexpr int kRowChunk = 64;

/// Row-parallel driver loop: dynamic chunks of kRowChunk over `rows` (a
/// plan's active rows — zero-flops rows are skipped, their output rows are
/// provably empty) or, when `rows` is null, over all `nrows` rows.
/// `make_kernel(tid)` runs once per participating thread.
template <class IT, class KernelFactory, class RowFn>
void for_each_row(IT nrows, const std::vector<IT>* rows,
                  KernelFactory&& make_kernel, RowFn&& fn) {
  const auto n = rows != nullptr ? static_cast<std::int64_t>(rows->size())
                                 : static_cast<std::int64_t>(nrows);
#pragma omp parallel
  {
    auto kernel = make_kernel(thread_id());
    // nowait: the region's closing barrier is the only one the loop needs.
#pragma omp for schedule(dynamic, kRowChunk) nowait
    for (std::int64_t k = 0; k < n; ++k) {
      fn(kernel, rows != nullptr ? (*rows)[static_cast<std::size_t>(k)]
                                 : static_cast<IT>(k));
    }
  }
}

/// One-phase driver: `ub[i]` bounds row i's output size; the temporary is
/// laid out by the prefix sum of the bounds, computed rows are compacted
/// into the final CSR with a second prefix sum over actual counts. When
/// `structure_sink` is set, the exact output row pointers are exported so
/// a plan can skip future symbolic passes.
template <class IT, class VT, class KernelFactory>
CsrMatrix<IT, VT> run_one_phase(IT nrows, IT ncols,
                                const std::vector<std::size_t>& ub,
                                KernelFactory make_kernel,
                                MaskedSpgemmStats* stats = nullptr,
                                const std::vector<IT>* rows = nullptr,
                                std::vector<IT>* structure_sink = nullptr) {
  Timer phase_timer;
  std::vector<std::size_t> offsets(static_cast<std::size_t>(nrows) + 1, 0);
  for (IT i = 0; i < nrows; ++i) {
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] + ub[static_cast<std::size_t>(i)];
  }
  const std::size_t cap = offsets.back();
  // Default-initialized (NOT zeroed) temporaries: a std::vector here would
  // value-initialize `cap` elements — a full write pass over memory the
  // kernels are about to overwrite anyway, big enough to distort the
  // one-phase/two-phase trade-off the paper measures in §6.
  std::unique_ptr<IT[]> tmp_cols(new IT[cap]);
  std::unique_ptr<VT[]> tmp_vals(new VT[cap]);
  std::vector<IT> counts(static_cast<std::size_t>(nrows), 0);

  for_each_row(nrows, rows, make_kernel, [&](auto& kernel, IT i) {
    const std::size_t off = offsets[static_cast<std::size_t>(i)];
    counts[static_cast<std::size_t>(i)] =
        kernel.numeric_row(i, tmp_cols.get() + off, tmp_vals.get() + off);
    MSP_ASSERT(static_cast<std::size_t>(counts[i]) <=
               ub[static_cast<std::size_t>(i)]);
  });
  if (stats != nullptr) {
    stats->numeric_seconds = phase_timer.seconds();
    stats->bound_nnz = cap;
    phase_timer.reset();
  }

  std::vector<IT> rowptr_counts = counts;
  const IT total = exclusive_prefix_sum(rowptr_counts);
  CsrMatrix<IT, VT> out(nrows, ncols);
  out.colids.resize(static_cast<std::size_t>(total));
  out.values.resize(static_cast<std::size_t>(total));
  for (IT i = 0; i < nrows; ++i) out.rowptr[i] = rowptr_counts[i];
  out.rowptr[nrows] = total;
#pragma omp parallel for schedule(dynamic, kRowChunk)
  for (IT i = 0; i < nrows; ++i) {
    const std::size_t src = offsets[static_cast<std::size_t>(i)];
    const std::size_t dst = static_cast<std::size_t>(out.rowptr[i]);
    const std::size_t c = static_cast<std::size_t>(counts[i]);
    std::copy_n(tmp_cols.get() + src, c, out.colids.data() + dst);
    std::copy_n(tmp_vals.get() + src, c, out.values.data() + dst);
  }
  if (stats != nullptr) {
    stats->assemble_seconds = phase_timer.seconds();
    stats->output_nnz = out.nnz();
  }
  if (structure_sink != nullptr && structure_sink->empty()) {
    *structure_sink = out.rowptr;
  }
  MSP_ASSERT(out.check_structure());
  return out;
}

/// Two-phase driver: symbolic counts → prefix sum → numeric in place. With
/// `cached_rowptr` (from a plan) the symbolic pass is skipped outright; a
/// freshly computed structure is exported through `structure_sink`.
template <class IT, class VT, class KernelFactory>
CsrMatrix<IT, VT> run_two_phase(IT nrows, IT ncols, KernelFactory make_kernel,
                                MaskedSpgemmStats* stats = nullptr,
                                const std::vector<IT>* rows = nullptr,
                                const std::vector<IT>* cached_rowptr = nullptr,
                                std::vector<IT>* structure_sink = nullptr) {
  Timer phase_timer;
  CsrMatrix<IT, VT> out(nrows, ncols);
  if (cached_rowptr != nullptr) {
    out.rowptr = *cached_rowptr;
    if (stats != nullptr) {
      stats->symbolic_seconds = 0.0;
      stats->symbolic_skipped = true;
    }
  } else {
    std::vector<IT> counts(static_cast<std::size_t>(nrows), 0);
    for_each_row(nrows, rows, make_kernel, [&](auto& kernel, IT i) {
      counts[static_cast<std::size_t>(i)] = kernel.symbolic_row(i);
    });
    if (stats != nullptr) stats->symbolic_seconds = phase_timer.seconds();
    const IT total = exclusive_prefix_sum(counts);
    for (IT i = 0; i < nrows; ++i) out.rowptr[i] = counts[i];
    out.rowptr[nrows] = total;
  }
  const IT total = out.rowptr[nrows];
  out.colids.resize(static_cast<std::size_t>(total));
  out.values.resize(static_cast<std::size_t>(total));
  phase_timer.reset();
  for_each_row(nrows, rows, make_kernel, [&](auto& kernel, IT i) {
    const IT written =
        kernel.numeric_row(i, out.colids.data() + out.rowptr[i],
                           out.values.data() + out.rowptr[i]);
    MSP_ASSERT(written == out.rowptr[i + 1] - out.rowptr[i]);
    (void)written;
  });
  if (stats != nullptr) {
    stats->numeric_seconds = phase_timer.seconds();
    stats->output_nnz = out.nnz();
  }
  if (structure_sink != nullptr && structure_sink->empty()) {
    *structure_sink = out.rowptr;
  }
  MSP_ASSERT(out.check_structure());
  return out;
}

/// A row kernel over a row list: position k stands for row rows[k] of the
/// full operands, so the one- and two-phase drivers compute just the listed
/// rows (row k of their result is row rows[k] of the product) and the cost
/// follows those rows' flops, not the matrix (the Engine's result splice).
template <class Kernel, class IT>
struct ListedRowKernel {
  Kernel kernel;
  const IT* rows;

  template <class VT>
  IT numeric_row(IT k, IT* out_cols, VT* out_vals) {
    return kernel.numeric_row(rows[k], out_cols, out_vals);
  }
  IT symbolic_row(IT k) { return kernel.symbolic_row(rows[k]); }
};

/// Row-list driver factory: wraps `make_kernel` so the drivers run over
/// `rows` (sorted, distinct; must outlive the drivers' use).
template <class IT, class KernelFactory>
auto listed_rows(KernelFactory make_kernel, const std::vector<IT>& rows) {
  return [make_kernel, rows = rows.data()](int tid) {
    return ListedRowKernel<decltype(make_kernel(tid)), IT>{make_kernel(tid),
                                                          rows};
  };
}

/// Per-row one-phase output bounds (see file header).
template <class IT, class VT, class MT>
std::vector<std::size_t> one_phase_bounds(const CsrMatrix<IT, VT>& a,
                                          const CsrMatrix<IT, VT>& b,
                                          const CsrMatrix<IT, MT>& m,
                                          MaskKind kind) {
  std::vector<std::size_t> ub(static_cast<std::size_t>(m.nrows), 0);
  if (kind == MaskKind::kMask) {
#pragma omp parallel for schedule(static)
    for (IT i = 0; i < m.nrows; ++i) {
      ub[static_cast<std::size_t>(i)] = static_cast<std::size_t>(m.row_nnz(i));
    }
  } else {
    const auto flops = row_flops(a, b);
#pragma omp parallel for schedule(static)
    for (IT i = 0; i < m.nrows; ++i) {
      const std::size_t allowed =
          static_cast<std::size_t>(b.ncols) -
          static_cast<std::size_t>(m.row_nnz(i));
      ub[static_cast<std::size_t>(i)] = std::min(
          allowed, static_cast<std::size_t>(flops[static_cast<std::size_t>(i)]));
    }
  }
  return ub;
}

template <class IT, class VT, class KernelFactory>
CsrMatrix<IT, VT> run_with_phase(IT nrows, IT ncols,
                                 const std::vector<std::size_t>* ub,
                                 KernelFactory make_kernel,
                                 const MaskedSpgemmOptions& opt) {
  if (opt.phase == MaskedPhase::kOnePhase) {
    MSP_ASSERT(ub != nullptr);
    return run_one_phase<IT, VT>(nrows, ncols, *ub, make_kernel, opt.stats);
  }
  return run_two_phase<IT, VT>(nrows, ncols, make_kernel, opt.stats);
}

/// The one kernel-construction switch, shared by every driver caller:
/// calls `run(make_kernel)` with the per-thread kernel factory of
/// `opt.algorithm` over A, B and the mask `m` the kernels see, and returns
/// what `run` returns. `lend(std::type_identity<S>{}, tid)` lends thread
/// `tid` a scratch of type S (null: each kernel owns its scratch); `b_csc`
/// is B's transpose, read by Inner only; `flops`, when set, holds the
/// per-row flops the adaptive kernel routes by (null: counted per row).
template <Semiring SR, class IT, class VT, class MT, class Lend, class Run>
auto with_kernel(const MaskedSpgemmOptions& opt, const CsrMatrix<IT, VT>& a,
                 const CsrMatrix<IT, VT>& b,
                 std::type_identity_t<const CscMatrix<IT, VT>*> b_csc,
                 const CsrMatrix<IT, MT>& m, const std::int64_t* flops,
                 Lend&& lend, Run&& run) {
  const bool complemented = opt.mask_kind == MaskKind::kComplement;
  switch (opt.algorithm) {
    case MaskedAlgorithm::kMsa: {
      using K = MsaKernel<SR, IT, VT, MT>;
      return run([&](int tid) {
        return K(a, b, m, complemented,
                 lend(std::type_identity<typename K::Scratch>{}, tid));
      });
    }
    case MaskedAlgorithm::kHash: {
      using K = HashKernel<SR, IT, VT, MT>;
      return run([&](int tid) {
        return K(a, b, m, complemented,
                 lend(std::type_identity<typename K::Scratch>{}, tid));
      });
    }
    case MaskedAlgorithm::kMca: {
      using K = McaKernel<SR, IT, VT, MT>;
      return run([&](int tid) {
        return K(a, b, m, complemented,
                 lend(std::type_identity<typename K::Scratch>{}, tid));
      });
    }
    case MaskedAlgorithm::kHeap:
    case MaskedAlgorithm::kHeapDot: {
      using K = HeapKernel<SR, IT, VT, MT>;
      const long fallback =
          opt.algorithm == MaskedAlgorithm::kHeap ? 1 : kInspectAll;
      const long inspect =
          opt.heap_n_inspect >= 0 ? opt.heap_n_inspect : fallback;
      return run([&, inspect](int tid) {
        return K(a, b, m, complemented, inspect,
                 lend(std::type_identity<typename K::Scratch>{}, tid));
      });
    }
    case MaskedAlgorithm::kInner: {
      using K = InnerKernel<SR, IT, VT, MT>;
      MSP_ASSERT(b_csc != nullptr);
      return run([&](int) { return K(a, *b_csc, m, complemented); });
    }
    case MaskedAlgorithm::kAdaptive: {
      using K = AdaptiveKernel<SR, IT, VT, MT>;
      return run([&](int tid) {
        return K(a, b, m, complemented,
                 typename K::Policy{.table = opt.route_table}, flops,
                 lend(std::type_identity<typename K::Scratch>{}, tid));
      });
    }
  }
  throw invalid_argument_error("masked SpGEMM: unknown algorithm");
}

}  // namespace detail

/// Masked SpGEMM with a pre-transposed B (CSC) for the Inner algorithm.
/// Use this overload to amortize the transpose across repeated calls.
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> masked_multiply_inner(const CsrMatrix<IT, VT>& a,
                                        const CscMatrix<IT, VT>& b_csc,
                                        const CsrMatrix<IT, MT>& m,
                                        const MaskedSpgemmOptions& opt = {}) {
  detail::validate_shapes(a.nrows, a.ncols, b_csc.nrows, b_csc.ncols, m);
  if (opt.mask_semantics == MaskSemantics::kValued) {
    // Same reduction as masked_multiply: drop explicit zeros (shared
    // parallel helper), then treat the filtered mask structurally.
    MaskedSpgemmOptions structural = opt;
    structural.mask_semantics = MaskSemantics::kStructural;
    return masked_multiply_inner<SR>(a, b_csc, drop_explicit_zeros(m),
                                     structural);
  }
  const bool complemented = opt.mask_kind == MaskKind::kComplement;
  auto factory = [&](int) {
    return InnerKernel<SR, IT, VT, MT>(a, b_csc, m, complemented);
  };
  if (opt.phase == MaskedPhase::kOnePhase) {
    std::vector<std::size_t> ub(static_cast<std::size_t>(m.nrows));
    if (!complemented) {
#pragma omp parallel for schedule(static)
      for (IT i = 0; i < m.nrows; ++i) {
        ub[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(m.row_nnz(i));
      }
    } else {
#pragma omp parallel for schedule(static)
      for (IT i = 0; i < m.nrows; ++i) {
        ub[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(b_csc.ncols) -
            static_cast<std::size_t>(m.row_nnz(i));
      }
    }
    return detail::run_one_phase<IT, VT>(m.nrows, b_csc.ncols, ub, factory,
                                         opt.stats);
  }
  return detail::run_two_phase<IT, VT>(m.nrows, b_csc.ncols, factory,
                                       opt.stats);
}

/// Masked SpGEMM: C = M ⊙ (A·B) on semiring SR (or ¬M ⊙ (A·B) for a
/// complemented mask). The paper's 12 scheme variants are selected through
/// `opt` (algorithm × phase × mask kind). Only the mask's *pattern* is used;
/// its value type MT is irrelevant (paper §2).
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> masked_multiply(const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b,
                                  const CsrMatrix<IT, MT>& m,
                                  const MaskedSpgemmOptions& opt = {}) {
  detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, m);
  if (opt.mask_semantics == MaskSemantics::kValued) {
    // Valued semantics reduce to structural semantics on the mask with its
    // explicit zeros dropped (shared parallel helper, also used by
    // SpgemmPlan); filter once and dispatch structurally.
    MaskedSpgemmOptions structural = opt;
    structural.mask_semantics = MaskSemantics::kStructural;
    return masked_multiply<SR>(a, b, drop_explicit_zeros(m), structural);
  }
  const bool complemented = opt.mask_kind == MaskKind::kComplement;
  if (complemented && opt.algorithm == MaskedAlgorithm::kMca) {
    // Must be rejected before the parallel region: exceptions cannot cross
    // an OpenMP boundary, and the kernel constructor runs per thread.
    throw invalid_argument_error("MCA does not support complemented masks");
  }

  if (opt.algorithm == MaskedAlgorithm::kInner) {
    // The pull-based kernel wants B's columns contiguous; transpose once
    // here (the dispatcher-level cost the paper notes for dot-based codes).
    const CscMatrix<IT, VT> b_csc = csr_to_csc(b);
    return masked_multiply_inner<SR>(a, b_csc, m, opt);
  }

  std::vector<std::size_t> ub;
  const std::vector<std::size_t>* ub_ptr = nullptr;
  if (opt.phase == MaskedPhase::kOnePhase) {
    ub = detail::one_phase_bounds(a, b, m, opt.mask_kind);
    ub_ptr = &ub;
  }

  return detail::with_kernel<SR>(
      opt, a, b, nullptr, m, nullptr, [](auto, int) { return nullptr; },
      [&](auto&& factory) {
        return detail::run_with_phase<IT, VT>(m.nrows, b.ncols, ub_ptr,
                                              factory, opt);
      });
}

}  // namespace msp
