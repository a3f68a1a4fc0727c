// Masked Sparse Accumulator (MSA) row kernel — paper §5.2, Algorithm 2.
//
// Two dense arrays of length ncols(B): `values` holds accumulated products,
// `states` the NOTALLOWED/ALLOWED/SET automaton. For the non-complemented
// mask, the gather pass iterates the mask row, which simultaneously emits
// SET entries (in mask order — stable/sorted) and resets every touched state
// to NOTALLOWED, so no O(ncols) per-row reinitialization is needed.
//
// For the complemented mask (paper: "the default state becomes ALLOWED, and
// for each element in the mask we invoke setNotAllowed"), dense epoch
// counters replace the state bytes: a column is NOTALLOWED iff its
// not-allowed stamp equals the current row epoch, and SET iff its set stamp
// does. An insertion-order list of SET keys makes the gather proportional to
// the row's output, not to ncols (the Gustavson trick the paper cites).
//
// The kernel's mutable state lives in a `Scratch` that can be borrowed from
// an ExecutionContext: the O(ncols) dense arrays are then allocated once per
// thread and reused across every row *and every call*, instead of being
// reallocated per kernel construction. The between-rows invariants (states
// all NOTALLOWED; stamps ≤ epoch) are exactly the between-calls invariants,
// so a borrowed scratch needs no reinitialization beyond size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/accumulator.hpp"
#include "matrix/csr.hpp"
#include "semiring/semiring.hpp"
#include "util/common.hpp"

namespace msp {

template <Semiring SR, class IT, class VT, class MT>
class MsaKernel {
 public:
  struct Scratch {
    std::vector<VT> values;
    std::vector<EntryState> states;                 // non-complemented path
    std::vector<std::uint32_t> not_allowed_epoch;   // complemented path
    std::vector<std::uint32_t> set_epoch;
    std::vector<IT> inserted;
    std::vector<IT> admit;                          // admitted B positions
    std::uint32_t epoch = 0;

    /// Grow (never shrink) to serve `ncols` columns, preserving the
    /// between-rows invariants for whatever portion already existed.
    void prepare(std::size_t ncols, bool complemented) {
      if (values.size() < ncols) values.resize(ncols);
      if (complemented) {
        if (epoch >= (std::uint32_t{1} << 31)) {
          // Headroom guard: epoch increments once per row, so reset stamps
          // well before the counter could wrap mid-call and alias them.
          std::fill(not_allowed_epoch.begin(), not_allowed_epoch.end(), 0u);
          std::fill(set_epoch.begin(), set_epoch.end(), 0u);
          epoch = 0;
        }
        if (not_allowed_epoch.size() < ncols) {
          not_allowed_epoch.resize(ncols, 0);
          set_epoch.resize(ncols, 0);
        }
      } else if (states.size() < ncols) {
        states.resize(ncols, EntryState::kNotAllowed);
        admit.resize(ncols);
      }
    }
  };

  MsaKernel(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
            const CsrMatrix<IT, MT>& m, bool complemented,
            Scratch* scratch = nullptr)
      : a_(a), b_(b), m_(m), complemented_(complemented) {
    if (scratch == nullptr) {
      owned_ = std::make_unique<Scratch>();
      scratch = owned_.get();
    }
    s_ = scratch;
    s_->prepare(static_cast<std::size_t>(b.ncols), complemented_);
  }

  IT numeric_row(IT i, IT* out_cols, VT* out_vals) {
    return complemented_ ? numeric_complement(i, out_cols, out_vals)
                         : numeric_plain(i, out_cols, out_vals);
  }

  IT symbolic_row(IT i) {
    return complemented_ ? symbolic_complement(i) : symbolic_plain(i);
  }

 private:
  // Plain (non-complemented) numeric rows run one product loop in two
  // passes per B row. Compact writes every position into the admit list
  // and advances its length only where the mask admits the column, with no
  // branch; apply then walks the admitted positions in order. The admit
  // test is true for a data-dependent fraction of products (one in six on
  // triangle counting), so as a branch it mispredicts, while the compact
  // pass reads only column ids and state bytes. Bit-identity with the
  // branchy form: per output column the SR::add sequence is unchanged (k in
  // A's order, admitted q in increasing order), and a not-admitted lane is
  // never touched. The admit list is sized to ncols(B), the longest
  // possible B row, so the loop needs no size check.
  //
  // symbolic_plain keeps a gated pair. Its select-store loop (a store to
  // every visited state byte) only pays when a noticeable fraction of lanes
  // are admitted; rows whose mask density is below 1/2^kSimdMaskDensityShift
  // of ncols keep the branchy early-skip loop, whose branch is then almost
  // always predicted. Within one B row the column ids are strictly
  // increasing (CsrMatrix invariant), so the lanes are distinct and
  // `omp simd` is sound.
  static constexpr int kSimdMaskDensityShift = 7;

  bool branch_free_row(std::ptrdiff_t mask_len) const {
    return (mask_len << kSimdMaskDensityShift) >=
           static_cast<std::ptrdiff_t>(b_.ncols);
  }

  IT numeric_plain(IT i, IT* out_cols, VT* out_vals) {
    const auto mcols = m_.row_cols(i);
    if (mcols.empty()) return 0;
    auto* const states = s_->states.data();
    auto* const values = s_->values.data();
    IT* const admit = s_->admit.data();
    const IT* const madm = mcols.data();
    const auto mlen = static_cast<std::ptrdiff_t>(mcols.size());
    // Mask-admit scatter: distinct sorted columns, one byte store each.
#pragma omp simd
    for (std::ptrdiff_t t = 0; t < mlen; ++t) {
      states[static_cast<std::size_t>(madm[t])] = EntryState::kAllowed;
    }
    for (IT p = a_.rowptr[i]; p < a_.rowptr[i + 1]; ++p) {
      const IT k = a_.colids[p];
      const VT av = a_.values[p];
      const IT* const bcols = b_.colids.data() + b_.rowptr[k];
      const VT* const bvals = b_.values.data() + b_.rowptr[k];
      const IT blen = b_.rowptr[k + 1] - b_.rowptr[k];
      IT n = 0;
      for (IT q = 0; q < blen; ++q) {
        admit[n] = q;
        n += states[static_cast<std::size_t>(bcols[q])] !=
             EntryState::kNotAllowed;
      }
      for (IT t = 0; t < n; ++t) {
        const IT q = admit[t];
        const std::size_t j = static_cast<std::size_t>(bcols[q]);
        const VT prod = SR::multiply(av, bvals[q]);
        values[j] =
            states[j] == EntryState::kSet ? SR::add(values[j], prod) : prod;
        states[j] = EntryState::kSet;
      }
    }
    // Contiguous mask-order gather. The output store stays guarded: the
    // caller's buffer may be sized to the exact row count (2P numeric),
    // so an unconditional compaction store could run past it.
    IT cnt = 0;
    for (std::ptrdiff_t t = 0; t < mlen; ++t) {
      const IT j = madm[t];
      const std::size_t js = static_cast<std::size_t>(j);
      if (states[js] == EntryState::kSet) {
        out_cols[cnt] = j;
        out_vals[cnt] = values[js];
        ++cnt;
      }
      states[js] = EntryState::kNotAllowed;
    }
    return cnt;
  }

  IT symbolic_plain(IT i) {
    const auto mcols = m_.row_cols(i);
    if (mcols.empty()) return 0;
    auto* const states = s_->states.data();
    const IT* const madm = mcols.data();
    const auto mlen = static_cast<std::ptrdiff_t>(mcols.size());
#pragma omp simd
    for (std::ptrdiff_t t = 0; t < mlen; ++t) {
      states[static_cast<std::size_t>(madm[t])] = EntryState::kAllowed;
    }
    const bool branch_free = branch_free_row(mlen);
    for (IT p = a_.rowptr[i]; p < a_.rowptr[i + 1]; ++p) {
      const IT k = a_.colids[p];
      const IT* const bcols = b_.colids.data() + b_.rowptr[k];
      const auto blen =
          static_cast<std::ptrdiff_t>(b_.rowptr[k + 1] - b_.rowptr[k]);
      if (!branch_free) {
        for (std::ptrdiff_t q = 0; q < blen; ++q) {
          const std::size_t j = static_cast<std::size_t>(bcols[q]);
          if (states[j] == EntryState::kAllowed) states[j] = EntryState::kSet;
        }
        continue;
      }
#pragma omp simd
      for (std::ptrdiff_t q = 0; q < blen; ++q) {
        const std::size_t j = static_cast<std::size_t>(bcols[q]);
        const EntryState st = states[j];
        states[j] = st == EntryState::kAllowed ? EntryState::kSet : st;
      }
    }
    IT cnt = 0;
#pragma omp simd reduction(+ : cnt)
    for (std::ptrdiff_t t = 0; t < mlen; ++t) {
      const std::size_t js = static_cast<std::size_t>(madm[t]);
      cnt += states[js] == EntryState::kSet ? IT{1} : IT{0};
      states[js] = EntryState::kNotAllowed;
    }
    return cnt;
  }

  IT numeric_complement(IT i, IT* out_cols, VT* out_vals) {
    begin_complement_row(i);
    auto& values = s_->values;
    auto& set_epoch = s_->set_epoch;
    const auto epoch = s_->epoch;
    for (IT p = a_.rowptr[i]; p < a_.rowptr[i + 1]; ++p) {
      const IT k = a_.colids[p];
      const VT av = a_.values[p];
      for (IT q = b_.rowptr[k]; q < b_.rowptr[k + 1]; ++q) {
        const std::size_t j = static_cast<std::size_t>(b_.colids[q]);
        if (s_->not_allowed_epoch[j] == epoch) continue;
        if (set_epoch[j] == epoch) {
          values[j] = SR::add(values[j], SR::multiply(av, b_.values[q]));
        } else {
          set_epoch[j] = epoch;
          values[j] = SR::multiply(av, b_.values[q]);
          s_->inserted.push_back(b_.colids[q]);
        }
      }
    }
    std::sort(s_->inserted.begin(), s_->inserted.end());
    IT cnt = 0;
    for (IT j : s_->inserted) {
      out_cols[cnt] = j;
      out_vals[cnt] = values[static_cast<std::size_t>(j)];
      ++cnt;
    }
    return cnt;
  }

  IT symbolic_complement(IT i) {
    begin_complement_row(i);
    const auto epoch = s_->epoch;
    IT cnt = 0;
    for (IT p = a_.rowptr[i]; p < a_.rowptr[i + 1]; ++p) {
      const IT k = a_.colids[p];
      for (IT q = b_.rowptr[k]; q < b_.rowptr[k + 1]; ++q) {
        const std::size_t j = static_cast<std::size_t>(b_.colids[q]);
        if (s_->not_allowed_epoch[j] == epoch || s_->set_epoch[j] == epoch) {
          continue;
        }
        s_->set_epoch[j] = epoch;
        ++cnt;
      }
    }
    return cnt;
  }

  void begin_complement_row(IT i) {
    ++s_->epoch;
    s_->inserted.clear();
    for (IT j : m_.row_cols(i)) {
      s_->not_allowed_epoch[static_cast<std::size_t>(j)] = s_->epoch;
    }
  }

  const CsrMatrix<IT, VT>& a_;
  const CsrMatrix<IT, VT>& b_;
  const CsrMatrix<IT, MT>& m_;
  const bool complemented_;

  std::unique_ptr<Scratch> owned_;
  Scratch* s_ = nullptr;
};

}  // namespace msp
