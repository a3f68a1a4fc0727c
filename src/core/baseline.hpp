// Baseline Masked SpGEMM implementations standing in for
// SuiteSparse:GraphBLAS (paper §8 compares against SS:DOT and SS:SAXPY).
//
// The real SS:GB library is not available in this offline reproduction;
// these baselines reimplement the *algorithmic strategies* the paper
// attributes to it, which is what the relative comparisons exercise:
//
//  * baseline_dot  (≈ SS:DOT)  — pull-based dot products over the mask,
//    with B transposed to CSC inside the call on every invocation (the
//    per-call transpose overhead the paper calls out in §8.4), and a full
//    two-phase execution without our symbolic early-exit optimization.
//  * baseline_saxpy (≈ SS:SAXPY) — push-based Gustavson SpGEMM computed
//    *without* consulting the mask, followed by a separate mask application
//    (eWiseMult) — the unfused "plain then mask" strategy of paper Fig. 1.
//    For a complemented mask the post-pass keeps entries outside M instead.
//
// See DESIGN.md §5 (substitutions) for the full rationale.
#pragma once

#include "core/masked_spgemm.hpp"
#include "core/spgemm.hpp"
#include "matrix/convert.hpp"
#include "matrix/csr.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"

namespace msp {

namespace detail {

/// Dot kernel without the symbolic early-exit: the symbolic pass runs the
/// full merge (as a value-free numeric pass would), modeling a baseline that
/// does not specialize its symbolic phase for existence queries.
template <Semiring SR, class IT, class VT, class MT>
class BaselineDotKernel {
 public:
  BaselineDotKernel(const CsrMatrix<IT, VT>& a, const CscMatrix<IT, VT>& b,
                    const CsrMatrix<IT, MT>& m, bool complemented)
      : a_(a), b_(b), m_(m), complemented_(complemented) {}

  IT numeric_row(IT i, IT* out_cols, VT* out_vals) {
    IT cnt = 0;
    auto emit = [&](IT j) {
      VT acc{};
      if (full_dot(i, j, acc)) {
        out_cols[cnt] = j;
        out_vals[cnt] = acc;
        ++cnt;
      }
    };
    visit_allowed(i, emit);
    return cnt;
  }

  IT symbolic_row(IT i) {
    IT cnt = 0;
    auto count = [&](IT j) {
      VT acc{};
      if (full_dot(i, j, acc)) ++cnt;  // no early exit, by design
    };
    visit_allowed(i, count);
    return cnt;
  }

 private:
  template <class Fn>
  void visit_allowed(IT i, Fn fn) {
    const auto mcols = m_.row_cols(i);
    if (!complemented_) {
      for (IT j : mcols) fn(j);
      return;
    }
    std::size_t mp = 0;
    for (IT j = 0; j < b_.ncols; ++j) {
      while (mp < mcols.size() && mcols[mp] < j) ++mp;
      if (mp < mcols.size() && mcols[mp] == j) continue;
      fn(j);
    }
  }

  bool full_dot(IT i, IT j, VT& acc) {
    IT pa = a_.rowptr[i];
    const IT ea = a_.rowptr[i + 1];
    IT pb = b_.colptr[j];
    const IT eb = b_.colptr[j + 1];
    bool any = false;
    while (pa < ea && pb < eb) {
      if (a_.colids[pa] < b_.rowids[pb]) {
        ++pa;
      } else if (a_.colids[pa] > b_.rowids[pb]) {
        ++pb;
      } else {
        const VT prod = SR::multiply(a_.values[pa], b_.values[pb]);
        acc = any ? SR::add(acc, prod) : prod;
        any = true;
        ++pa;
        ++pb;
      }
    }
    return any;
  }

  const CsrMatrix<IT, VT>& a_;
  const CscMatrix<IT, VT>& b_;
  const CsrMatrix<IT, MT>& m_;
  const bool complemented_;
};

}  // namespace detail

/// SS:DOT-style baseline: per-call transpose of B + unoptimized two-phase
/// dot products driven by the mask.
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> baseline_dot(const CsrMatrix<IT, VT>& a,
                               const CsrMatrix<IT, VT>& b,
                               const CsrMatrix<IT, MT>& m,
                               MaskKind kind = MaskKind::kMask) {
  detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, m);
  const CscMatrix<IT, VT> b_csc = csr_to_csc(b);  // paid on every call
  const bool complemented = kind == MaskKind::kComplement;
  auto factory = [&](int) {
    return detail::BaselineDotKernel<SR, IT, VT, MT>(a, b_csc, m,
                                                     complemented);
  };
  return detail::run_two_phase<IT, VT>(m.nrows, b.ncols, factory);
}

/// SS:SAXPY-style baseline: unmasked Gustavson SpGEMM, then a separate mask
/// application pass (paper Fig. 1 "plain then masked").
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> baseline_saxpy(const CsrMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b,
                                 const CsrMatrix<IT, MT>& m,
                                 MaskKind kind = MaskKind::kMask,
                                 int chunk_rows = 64) {
  detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, m);
  CsrMatrix<IT, VT> full = multiply<SR>(a, b, chunk_rows);
  if (kind == MaskKind::kMask) {
    // Keep product entries whose position exists in the mask.
    CsrMatrix<IT, VT> mask_ones(m.nrows, m.ncols);
    mask_ones.rowptr = m.rowptr;
    mask_ones.colids = m.colids;
    mask_ones.values.assign(m.nnz(), VT{1});
    return ewise_mult(full, mask_ones,
                      [](const VT& c, const VT&) { return c; });
  }
  // Complemented: keep product entries whose position is absent from M.
  std::vector<IT> counts(static_cast<std::size_t>(full.nrows), 0);
#pragma omp parallel for schedule(dynamic, 256)
  for (IT i = 0; i < full.nrows; ++i) {
    IT pc = full.rowptr[i], pm = m.rowptr[i];
    const IT ec = full.rowptr[i + 1], em = m.rowptr[i + 1];
    IT c = 0;
    while (pc < ec) {
      while (pm < em && m.colids[pm] < full.colids[pc]) ++pm;
      if (pm >= em || m.colids[pm] != full.colids[pc]) ++c;
      ++pc;
    }
    counts[static_cast<std::size_t>(i)] = c;
  }
  const IT total = exclusive_prefix_sum(counts);
  CsrMatrix<IT, VT> out(full.nrows, full.ncols);
  out.colids.resize(static_cast<std::size_t>(total));
  out.values.resize(static_cast<std::size_t>(total));
  for (IT i = 0; i < full.nrows; ++i) out.rowptr[i] = counts[i];
  out.rowptr[full.nrows] = total;
#pragma omp parallel for schedule(dynamic, 256)
  for (IT i = 0; i < full.nrows; ++i) {
    IT pc = full.rowptr[i], pm = m.rowptr[i];
    const IT ec = full.rowptr[i + 1], em = m.rowptr[i + 1];
    std::size_t pos = static_cast<std::size_t>(out.rowptr[i]);
    while (pc < ec) {
      while (pm < em && m.colids[pm] < full.colids[pc]) ++pm;
      if (pm >= em || m.colids[pm] != full.colids[pc]) {
        out.colids[pos] = full.colids[pc];
        out.values[pos] = full.values[pc];
        ++pos;
      }
      ++pc;
    }
  }
  MSP_ASSERT(out.check_structure());
  return out;
}

}  // namespace msp
