// Shared helpers for the test suite: random rectangular matrices with
// small-integer values (so floating-point accumulation is exact and results
// can be compared with operator==), an exact matrix comparison with
// readable failure output, and a one-shot per-scheme multiply.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "gen/rng.hpp"
#include "matrix/convert.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"

namespace msp::testing {

/// Random rows×cols CSR with each position present independently with
/// probability `density`, values uniform in {1, ..., 9} (exactly
/// representable; any sum of < 2^50 of them is exact in double).
template <class IT = int, class VT = double>
CsrMatrix<IT, VT> random_csr(IT rows, IT cols, double density,
                             std::uint64_t seed) {
  Xoshiro256 rng(seed);
  CooMatrix<IT, VT> coo(rows, cols);
  for (IT i = 0; i < rows; ++i) {
    for (IT j = 0; j < cols; ++j) {
      if (rng.next_double() < density) {
        coo.push(i, j, static_cast<VT>(1 + rng.next_below(9)));
      }
    }
  }
  return coo_to_csr(std::move(coo));
}

/// Exact comparison with a diff-style failure message.
template <class IT, class VT>
::testing::AssertionResult csr_equal(const CsrMatrix<IT, VT>& expected,
                                     const CsrMatrix<IT, VT>& actual) {
  if (expected.nrows != actual.nrows || expected.ncols != actual.ncols) {
    return ::testing::AssertionFailure()
           << "shape mismatch: expected " << expected.nrows << "x"
           << expected.ncols << ", got " << actual.nrows << "x"
           << actual.ncols;
  }
  if (!actual.check_structure()) {
    return ::testing::AssertionFailure() << "actual fails check_structure()";
  }
  for (IT i = 0; i < expected.nrows; ++i) {
    const IT ne = expected.rowptr[i + 1] - expected.rowptr[i];
    const IT na = actual.rowptr[i + 1] - actual.rowptr[i];
    if (ne != na) {
      return ::testing::AssertionFailure()
             << "row " << i << ": expected " << ne << " entries, got " << na;
    }
    for (IT p = 0; p < ne; ++p) {
      const IT pe = expected.rowptr[i] + p;
      const IT pa = actual.rowptr[i] + p;
      if (expected.colids[pe] != actual.colids[pa]) {
        return ::testing::AssertionFailure()
               << "row " << i << " slot " << p << ": expected column "
               << expected.colids[pe] << ", got " << actual.colids[pa];
      }
      if (expected.values[pe] != actual.values[pa]) {
        return ::testing::AssertionFailure()
               << "entry (" << i << "," << expected.colids[pe]
               << "): expected value " << expected.values[pe] << ", got "
               << actual.values[pa];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// One multiply of `s` through a fresh Engine: the per-scheme oracle, with
/// no plan or result cached by an earlier call.
template <class SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> run_fresh(Scheme s, const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b,
                            const CsrMatrix<IT, MT>& m,
                            MaskKind kind = MaskKind::kMask,
                            MaskSemantics semantics =
                                MaskSemantics::kStructural) {
  Engine engine;
  return engine.multiply_scheme<SR>(s, a, b, m, kind, semantics);
}

}  // namespace msp::testing
