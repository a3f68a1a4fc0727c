// Kernel-level unit tests: the accumulator state machines (paper Figs. 3/5)
// exercised directly through the row-kernel interface on handcrafted
// matrices, plus adversarial stress (hash collisions, long probe chains,
// repeated reuse across rows) that whole-matrix tests are unlikely to hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/baseline.hpp"
#include "core/hash_accumulator.hpp"
#include "core/heap_kernel.hpp"
#include "core/inner_kernel.hpp"
#include "core/mca_accumulator.hpp"
#include "core/masked_spgemm.hpp"
#include "core/msa_accumulator.hpp"
#include "matrix/convert.hpp"
#include "matrix/dense.hpp"
#include "semiring/semiring.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;
using SR = PlusTimes<VT>;
using msp::testing::random_csr;

struct Fixture {
  CsrMatrix<IT, VT> a;
  CsrMatrix<IT, VT> b;
  CsrMatrix<IT, VT> m;
};

/// u = row 0 of A selects three rows of B that all hit column 2, so the
/// accumulator must take ALLOWED → SET → SET (+ accumulate) transitions.
Fixture accumulation_fixture() {
  Fixture f;
  CooMatrix<IT, VT> a(1, 4);
  a.push(0, 0, 2.0);
  a.push(0, 1, 3.0);
  a.push(0, 3, 5.0);
  f.a = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(4, 5);
  b.push(0, 2, 1.0);  // 2*1
  b.push(1, 2, 1.0);  // 3*1
  b.push(3, 2, 1.0);  // 5*1  -> (0,2) = 10
  b.push(0, 0, 7.0);  // (0,0) = 14, masked out
  b.push(1, 4, 1.0);  // (0,4) = 3, allowed
  f.b = coo_to_csr(std::move(b));
  CooMatrix<IT, VT> m(1, 5);
  m.push(0, 1, 1.0);  // allowed but never produced
  m.push(0, 2, 1.0);
  m.push(0, 4, 1.0);
  f.m = coo_to_csr(std::move(m));
  return f;
}

template <class Kernel>
void check_accumulation_fixture() {
  const Fixture f = accumulation_fixture();
  Kernel kernel(f.a, f.b, f.m, /*complemented=*/false);
  std::vector<IT> cols(8);
  std::vector<VT> vals(8);
  const IT cnt = kernel.numeric_row(0, cols.data(), vals.data());
  ASSERT_EQ(cnt, 2);
  EXPECT_EQ(cols[0], 2);
  EXPECT_DOUBLE_EQ(vals[0], 10.0);  // three inserts accumulated
  EXPECT_EQ(cols[1], 4);
  EXPECT_DOUBLE_EQ(vals[1], 3.0);
  // Symbolic must agree and kernel must be reusable for the same row.
  EXPECT_EQ(kernel.symbolic_row(0), 2);
  const IT cnt2 = kernel.numeric_row(0, cols.data(), vals.data());
  EXPECT_EQ(cnt2, 2);
  EXPECT_DOUBLE_EQ(vals[0], 10.0);
}

TEST(MsaKernel, StateMachineAccumulates) {
  check_accumulation_fixture<MsaKernel<SR, IT, VT, VT>>();
}
TEST(HashKernel, StateMachineAccumulates) {
  check_accumulation_fixture<HashKernel<SR, IT, VT, VT>>();
}
TEST(McaKernel, StateMachineAccumulates) {
  check_accumulation_fixture<McaKernel<SR, IT, VT, VT>>();
}
TEST(HeapKernel, StateMachineAccumulates) {
  check_accumulation_fixture<HeapKernel<SR, IT, VT, VT>>();
}

TEST(InnerKernel, StateMachineAccumulates) {
  const Fixture f = accumulation_fixture();
  const CscMatrix<IT, VT> b_csc = csr_to_csc(f.b);
  InnerKernel<SR, IT, VT, VT> kernel(f.a, b_csc, f.m, false);
  std::vector<IT> cols(8);
  std::vector<VT> vals(8);
  const IT cnt = kernel.numeric_row(0, cols.data(), vals.data());
  ASSERT_EQ(cnt, 2);
  EXPECT_DOUBLE_EQ(vals[0], 10.0);
  EXPECT_DOUBLE_EQ(vals[1], 3.0);
  EXPECT_EQ(kernel.symbolic_row(0), 2);
}

/// Kernels must fully reset between rows: row 1 is empty in A, so even
/// though the mask admits everything, no stale state may leak from row 0.
template <class Kernel>
void check_reset_between_rows() {
  CooMatrix<IT, VT> a(2, 2);
  a.push(0, 0, 1.0);
  auto am = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(2, 2);
  b.push(0, 0, 1.0);
  b.push(0, 1, 1.0);
  auto bm = coo_to_csr(std::move(b));
  CooMatrix<IT, VT> m(2, 2);
  m.push(0, 0, 1.0);
  m.push(0, 1, 1.0);
  m.push(1, 0, 1.0);
  m.push(1, 1, 1.0);
  auto mm = coo_to_csr(std::move(m));
  Kernel kernel(am, bm, mm, false);
  std::vector<IT> cols(4);
  std::vector<VT> vals(4);
  EXPECT_EQ(kernel.numeric_row(0, cols.data(), vals.data()), 2);
  EXPECT_EQ(kernel.numeric_row(1, cols.data(), vals.data()), 0);
  EXPECT_EQ(kernel.symbolic_row(1), 0);
}

TEST(MsaKernel, ResetsBetweenRows) {
  check_reset_between_rows<MsaKernel<SR, IT, VT, VT>>();
}
TEST(HashKernel, ResetsBetweenRows) {
  check_reset_between_rows<HashKernel<SR, IT, VT, VT>>();
}
TEST(McaKernel, ResetsBetweenRows) {
  check_reset_between_rows<McaKernel<SR, IT, VT, VT>>();
}
TEST(HeapKernel, ResetsBetweenRows) {
  check_reset_between_rows<HeapKernel<SR, IT, VT, VT>>();
}

/// Hash stress: mask keys chosen to collide heavily under multiplicative
/// hashing into a small table (all keys share low-order structure), with a
/// mask large enough to force several table growths across rows.
TEST(HashKernel, CollisionAndGrowthStress) {
  const IT n = 4096;
  const IT stride = 64;  // keys 0, 64, 128, ... stress one hash bucket range
  CooMatrix<IT, VT> m(3, n);
  for (IT j = 0; j < n; j += stride) {
    m.push(0, j, 1.0);
    m.push(2, j, 1.0);
  }
  m.push(1, 0, 1.0);  // tiny row between big ones: growth then shrink usage
  auto mm = coo_to_csr(std::move(m));
  CooMatrix<IT, VT> a(3, 1);
  for (IT i = 0; i < 3; ++i) a.push(i, 0, 1.0);
  auto am = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(1, n);
  for (IT j = 0; j < n; j += 2 * stride) b.push(0, j, 2.0);
  auto bm = coo_to_csr(std::move(b));

  HashKernel<SR, IT, VT, VT> kernel(am, bm, mm, false);
  std::vector<IT> cols(static_cast<std::size_t>(n));
  std::vector<VT> vals(static_cast<std::size_t>(n));
  const IT c0 = kernel.numeric_row(0, cols.data(), vals.data());
  EXPECT_EQ(c0, n / (2 * stride));
  for (IT p = 0; p < c0; ++p) {
    EXPECT_EQ(cols[p] % (2 * stride), 0);
    EXPECT_DOUBLE_EQ(vals[p], 2.0);
  }
  EXPECT_EQ(kernel.numeric_row(1, cols.data(), vals.data()), 1);
  EXPECT_EQ(kernel.numeric_row(2, cols.data(), vals.data()), n / (2 * stride));
}

/// The heap kernel's NInspect settings are performance knobs only: results
/// must be identical for 0, 1, and ∞ on random inputs.
TEST(HeapKernel, NInspectSettingsAgree) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto a = random_csr<IT, VT>(24, 24, 0.2, seed);
    const auto b = random_csr<IT, VT>(24, 24, 0.2, seed + 50);
    const auto m = random_csr<IT, VT>(24, 24, 0.3, seed + 99);
    const auto expected = reference_masked_multiply<SR>(a, b, m, false);
    for (long inspect : {0L, 1L, 2L, 7L, kInspectAll}) {
      MaskedSpgemmOptions opt;
      opt.algorithm = MaskedAlgorithm::kHeap;
      opt.heap_n_inspect = inspect;
      const auto actual = masked_multiply<SR>(a, b, m, opt);
      EXPECT_TRUE(msp::testing::csr_equal(expected, actual))
          << "NInspect=" << inspect << " seed " << seed;
    }
  }
}

/// Complemented MSA/Hash: epoch-stamp reuse across many rows must never
/// leak state (a row count larger than 2^8 would expose 8-bit epochs, and
/// alternating full/empty rows exposes missed resets).
template <class Kernel>
void check_complement_epoch_reuse() {
  const IT n = 16;
  const IT rows = 600;
  CooMatrix<IT, VT> a(rows, 2);
  CooMatrix<IT, VT> m(rows, n);
  for (IT i = 0; i < rows; ++i) {
    if (i % 2 == 0) a.push(i, 0, 1.0);
    // Mask forbids even columns on every row.
    for (IT j = 0; j < n; j += 2) m.push(i, j, 1.0);
  }
  auto am = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(2, n);
  for (IT j = 0; j < n; ++j) b.push(0, j, 1.0);
  auto bm = coo_to_csr(std::move(b));
  auto mm = coo_to_csr(std::move(m));
  Kernel kernel(am, bm, mm, /*complemented=*/true);
  std::vector<IT> cols(static_cast<std::size_t>(n));
  std::vector<VT> vals(static_cast<std::size_t>(n));
  for (IT i = 0; i < rows; ++i) {
    const IT cnt = kernel.numeric_row(i, cols.data(), vals.data());
    if (i % 2 == 0) {
      ASSERT_EQ(cnt, n / 2) << "row " << i;
      for (IT p = 0; p < cnt; ++p) EXPECT_EQ(cols[p] % 2, 1);
    } else {
      ASSERT_EQ(cnt, 0) << "row " << i;
    }
  }
}

TEST(MsaKernel, ComplementEpochReuse) {
  check_complement_epoch_reuse<MsaKernel<SR, IT, VT, VT>>();
}
TEST(HashKernel, ComplementEpochReuse) {
  check_complement_epoch_reuse<HashKernel<SR, IT, VT, VT>>();
}

TEST(McaKernel, RejectsComplement) {
  const auto a = random_csr<IT, VT>(4, 4, 0.5, 1);
  EXPECT_THROW((McaKernel<SR, IT, VT, VT>(a, a, a, true)),
               invalid_argument_error);
}

/// Random rows×cols CSR whose row lengths cycle through `lens` (each capped
/// at `cols`), with values drawn from {1e16, 1, -1e16, -0.0, 3, 0.5}: sums
/// of these depend on the order of the additions, and a -0.0 product added
/// to a zero start value becomes +0.0, so any reordering or extra add shows
/// in the bits.
CsrMatrix<IT, VT> order_sensitive_csr(IT rows, IT cols,
                                      const std::vector<IT>& lens,
                                      std::uint64_t seed) {
  static constexpr VT kValues[] = {1e16, 1.0, -1e16, -0.0, 3.0, 0.5};
  Xoshiro256 rng(seed);
  std::vector<IT> perm(static_cast<std::size_t>(cols));
  std::iota(perm.begin(), perm.end(), IT{0});
  CooMatrix<IT, VT> coo(rows, cols);
  for (IT i = 0; i < rows; ++i) {
    const IT len =
        std::min(cols, lens[static_cast<std::size_t>(i) % lens.size()]);
    for (IT t = 0; t < len; ++t) {  // partial Fisher-Yates: distinct columns
      const auto u = static_cast<std::size_t>(t);
      std::swap(perm[u], perm[u + rng.next_below(perm.size() - u)]);
      coo.push(i, perm[u], kValues[rng.next_below(std::size(kValues))]);
    }
  }
  return coo_to_csr(std::move(coo));
}

/// MSA's plain-mask numeric loop on wide rows: ncols ≥ 4096, mask rows on
/// both sides of ncols/128 (empty, sparse, at the line, dense, full), every
/// row compared bit for bit with the SAXPY baseline. A second kernel with
/// more columns and B rows longer than the first B's ncols borrows the same
/// scratch, so its admit list and dense arrays must grow.
TEST(MsaKernel, WideRowsMatchBaselineBitForBit) {
  using Msa = MsaKernel<SR, IT, VT, VT>;
  Msa::Scratch scratch;
  auto check = [&](IT ncols, const std::vector<IT>& b_lens,
                   std::uint64_t seed) {
    const IT nrows = 48, inner = 160;
    const auto a = order_sensitive_csr(nrows, inner, {1, 5, 12, 24}, seed);
    const auto b = order_sensitive_csr(inner, ncols, b_lens, seed + 1);
    const IT line = ncols / 128;
    const auto m = order_sensitive_csr(
        nrows, ncols, {0, 1, 7, line - 1, line, line + 1, 4 * line, ncols},
        seed + 2);
    const auto expected = baseline_saxpy<SR>(a, b, m);
    Msa kernel(a, b, m, /*complemented=*/false, &scratch);
    std::vector<IT> colids;
    std::vector<VT> values;
    for (IT i = 0; i < nrows; ++i) {
      const IT row_nnz = expected.rowptr[i + 1] - expected.rowptr[i];
      ASSERT_EQ(kernel.symbolic_row(i), row_nnz) << "row " << i;
      // Exactly sized, as the two-phase numeric pass sizes it.
      std::vector<IT> cols(static_cast<std::size_t>(row_nnz));
      std::vector<VT> vals(static_cast<std::size_t>(row_nnz));
      ASSERT_EQ(kernel.numeric_row(i, cols.data(), vals.data()), row_nnz)
          << "row " << i;
      colids.insert(colids.end(), cols.begin(), cols.end());
      values.insert(values.end(), vals.begin(), vals.end());
    }
    EXPECT_EQ(colids, expected.colids);
    ASSERT_EQ(values.size(), expected.values.size());
    EXPECT_EQ(std::memcmp(values.data(), expected.values.data(),
                          values.size() * sizeof(VT)),
              0);
    EXPECT_GE(scratch.admit.size(), static_cast<std::size_t>(ncols));
    EXPECT_GE(scratch.states.size(), static_cast<std::size_t>(ncols));
  };
  check(4096, {1, 40, 300, 1000}, 11);
  check(8192, {3, 200, 600, 5000}, 21);
}

/// Lazy insert contract (paper §5.1): products whose keys are masked out
/// must be discarded — with the mask filtering applied before the value is
/// used, a semiring whose multiply would trap on masked-out pairs is safe.
TEST(MaskedKernels, MaskedOutProductsAreDiscarded) {
  // B contains a "poison" value at a masked-out column; PlusTimes would
  // propagate a NaN into the output if the kernel consumed it.
  CooMatrix<IT, VT> a(1, 1);
  a.push(0, 0, 1.0);
  auto am = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(1, 3);
  b.push(0, 0, 1.0);
  b.push(0, 1, std::numeric_limits<VT>::quiet_NaN());
  b.push(0, 2, 3.0);
  auto bm = coo_to_csr(std::move(b));
  CooMatrix<IT, VT> m(1, 3);
  m.push(0, 0, 1.0);
  m.push(0, 2, 1.0);
  auto mm = coo_to_csr(std::move(m));
  for (MaskedAlgorithm algo :
       {MaskedAlgorithm::kMsa, MaskedAlgorithm::kHash, MaskedAlgorithm::kMca,
        MaskedAlgorithm::kHeap, MaskedAlgorithm::kHeapDot,
        MaskedAlgorithm::kInner}) {
    MaskedSpgemmOptions opt;
    opt.algorithm = algo;
    const auto c = masked_multiply<SR>(am, bm, mm, opt);
    ASSERT_EQ(c.nnz(), 2u) << algorithm_name(algo);
    EXPECT_DOUBLE_EQ(c.values[0], 1.0) << algorithm_name(algo);
    EXPECT_DOUBLE_EQ(c.values[1], 3.0) << algorithm_name(algo);
    for (VT v : c.values) EXPECT_FALSE(std::isnan(v)) << algorithm_name(algo);
  }
}

}  // namespace
}  // namespace msp
