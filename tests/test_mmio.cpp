// Matrix Market I/O: round trips, symmetric expansion, pattern files, and
// failure injection on malformed inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "matrix/mmio.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;
using msp::testing::csr_equal;
using msp::testing::random_csr;

TEST(Mmio, WriteReadRoundTrip) {
  const auto a = random_csr<IT, VT>(10, 14, 0.25, 1);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const auto back = coo_to_csr(read_matrix_market<IT, VT>(ss));
  EXPECT_TRUE(csr_equal(a, back));
}

TEST(Mmio, EmptyMatrixRoundTrip) {
  const CsrMatrix<IT, VT> a(3, 5);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const auto back = coo_to_csr(read_matrix_market<IT, VT>(ss));
  EXPECT_TRUE(csr_equal(a, back));
}

TEST(Mmio, ReadsGeneralRealCoordinate) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment line\n"
      "3 3 2\n"
      "1 2 1.5\n"
      "3 1 -2.0\n");
  const auto a = coo_to_csr(read_matrix_market<IT, VT>(ss));
  EXPECT_EQ(a.nrows, 3);
  EXPECT_EQ(a.ncols, 3);
  ASSERT_EQ(a.nnz(), 2u);
  EXPECT_EQ(a.colids[0], 1);  // (0,1) = 1.5
  EXPECT_DOUBLE_EQ(a.values[0], 1.5);
  EXPECT_EQ(a.colids[1], 0);  // (2,0) = -2
  EXPECT_DOUBLE_EQ(a.values[1], -2.0);
}

TEST(Mmio, PatternFieldGetsUnitValues) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const auto a = coo_to_csr(read_matrix_market<IT, VT>(ss));
  ASSERT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.values[0], 1.0);
  EXPECT_DOUBLE_EQ(a.values[1], 1.0);
}

TEST(Mmio, SymmetricExpansion) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 5.0\n"
      "2 1 1.0\n"
      "3 2 2.0\n");
  const auto a = coo_to_csr(read_matrix_market<IT, VT>(ss));
  // Diagonal entry stays single; off-diagonals are mirrored.
  EXPECT_EQ(a.nnz(), 5u);
  const auto t = transpose(a);
  EXPECT_EQ(a, t);
}

TEST(Mmio, SkewSymmetricExpansionNegates) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const auto a = coo_to_csr(read_matrix_market<IT, VT>(ss));
  ASSERT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.values[0], -3.0);  // (0,1) mirrored with negation
  EXPECT_DOUBLE_EQ(a.values[1], 3.0);   // (1,0) as stored
}

TEST(Mmio, IntegerFieldAccepted) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "1 2 7\n");
  const auto a = coo_to_csr(read_matrix_market<IT, VT>(ss));
  ASSERT_EQ(a.nnz(), 1u);
  EXPECT_DOUBLE_EQ(a.values[0], 7.0);
}

// Regression: the writer must emit max_digits10 significant digits, or
// values like 1/3 and 0.1 come back off by an ulp and round-trip
// bit-identity breaks (the default ostream precision is 6).
TEST(Mmio, FullPrecisionRoundTripIsBitIdentical) {
  std::vector<VT> vals = {1.0 / 3.0, 0.1, 3.14159265358979323846,
                          std::nextafter(1.0, 2.0), -2.0 / 7.0, 1e-300};
  CsrMatrix<IT, VT> a(2, 3,
                      {0, 3, 6},
                      {0, 1, 2, 0, 1, 2},
                      std::move(vals));
  std::stringstream ss;
  write_matrix_market(ss, a);
  const auto back = coo_to_csr(read_matrix_market<IT, VT>(ss));
  ASSERT_EQ(back.nnz(), a.nnz());
  for (std::size_t i = 0; i < a.nnz(); ++i) {
    // Exact bit equality, not EXPECT_DOUBLE_EQ's 4-ulp tolerance.
    EXPECT_EQ(std::memcmp(&a.values[i], &back.values[i], sizeof(VT)), 0)
        << "value " << i << " lost bits in the text round trip";
  }
}

TEST(Mmio, WriterRestoresStreamPrecision) {
  std::stringstream ss;
  ss.precision(4);
  write_matrix_market(ss, random_csr<IT, VT>(3, 3, 0.5, 2));
  EXPECT_EQ(ss.precision(), 4);
}

// ---- failure injection ------------------------------------------------

TEST(MmioErrors, MissingBanner) {
  std::stringstream ss("not a matrix market file\n1 1 0\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

TEST(MmioErrors, EmptyStream) {
  std::stringstream ss("");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

TEST(MmioErrors, UnsupportedFormat) {
  std::stringstream ss("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

TEST(MmioErrors, UnsupportedField) {
  std::stringstream ss("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

TEST(MmioErrors, UnsupportedSymmetry) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

TEST(MmioErrors, TruncatedEntries) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2\n"
      "1 1 1.0\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

// Regression: the claimed nnz used to size an up-front reserve, so a short
// file claiming 10^15 entries died in bad_alloc instead of io_error.
TEST(MmioErrors, HugeClaimedNnzIsTruncatedNotBadAlloc) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1000000000000000\n"
      "1 1 1.0\n");
  try {
    (void)read_matrix_market<IT, VT>(ss);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    EXPECT_STREQ(e.what(), "mmio: truncated entries");
  }
}

TEST(MmioErrors, OutOfBoundsEntry) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

TEST(MmioErrors, ZeroBasedIndexRejected) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "0 1 1.0\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

// Regression: an unparsable non-comment line before the size line used to
// be silently skipped (the loop `continue`d on extraction failure), so a
// corrupted header could bind the size line to a random later row. Only
// blank lines are tolerated now.
TEST(MmioErrors, GarbageBeforeSizeLineRejected) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "this is not a size line\n"
      "2 2 1\n"
      "1 1 1.0\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

TEST(Mmio, BlankLinesBeforeSizeLineTolerated) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "\n"
      "   \t\n"
      "2 2 1\n"
      "1 2 4.0\n");
  const auto a = coo_to_csr(read_matrix_market<IT, VT>(ss));
  ASSERT_EQ(a.nnz(), 1u);
  EXPECT_DOUBLE_EQ(a.values[0], 4.0);
}

TEST(MmioErrors, MissingValueRejected) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1\n");
  EXPECT_THROW((read_matrix_market<IT, VT>(ss)), io_error);
}

TEST(MmioErrors, NonexistentFileThrows) {
  EXPECT_THROW((read_matrix_market_csr<IT, VT>("/nonexistent/path.mtx")),
               io_error);
}

TEST(MmioFile, FileRoundTrip) {
  const auto a = random_csr<IT, VT>(6, 6, 0.4, 9);
  const std::string path = ::testing::TempDir() + "/msp_mmio_test.mtx";
  write_matrix_market_file(path, a);
  const auto back = read_matrix_market_csr<IT, VT>(path);
  EXPECT_TRUE(csr_equal(a, back));
}

// ---- temp-file read -> write -> read round trips ----------------------
// Start from an on-disk file of each supported flavor, read it, write the
// parsed matrix back out, read again, and require the two parses to agree
// bit-exactly (the writer always emits general real coordinate form, so the
// second parse must reproduce the expanded first parse).

namespace {

CsrMatrix<IT, VT> reread_through_file(const CsrMatrix<IT, VT>& a,
                                      const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/msp_mmio_" + tag + ".mtx";
  write_matrix_market_file(path, a);
  return read_matrix_market_csr<IT, VT>(path);
}

}  // namespace

TEST(MmioFile, RealFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/msp_mmio_real_src.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real general\n"
           "% negative, fractional, and integer-valued entries\n"
           "4 5 4\n"
           "1 1 0.5\n"
           "2 4 -3\n"
           "4 5 1e2\n"
           "3 2 7\n";
  }
  const auto first = read_matrix_market_csr<IT, VT>(path);
  EXPECT_EQ(first.nnz(), 4u);
  EXPECT_TRUE(csr_equal(first, reread_through_file(first, "real")));
}

TEST(MmioFile, PatternFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/msp_mmio_pat_src.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern general\n"
           "3 3 3\n"
           "1 3\n"
           "2 1\n"
           "3 3\n";
  }
  const auto first = read_matrix_market_csr<IT, VT>(path);
  ASSERT_EQ(first.nnz(), 3u);
  for (VT v : first.values) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_TRUE(csr_equal(first, reread_through_file(first, "pattern")));
}

TEST(MmioFile, SymmetricFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/msp_mmio_sym_src.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real symmetric\n"
           "4 4 4\n"
           "1 1 1.5\n"
           "3 1 2.0\n"
           "4 2 -1.0\n"
           "4 4 4.25\n";
  }
  const auto first = read_matrix_market_csr<IT, VT>(path);
  EXPECT_EQ(first.nnz(), 6u);  // two off-diagonals mirrored
  EXPECT_EQ(first, transpose(first));
  EXPECT_TRUE(csr_equal(first, reread_through_file(first, "symmetric")));
}

TEST(MmioFile, LargeGeneratedFileRoundTrip) {
  const auto a = random_csr<IT, VT>(40, 33, 0.15, 17);
  EXPECT_TRUE(csr_equal(a, reread_through_file(a, "generated")));
}

}  // namespace
}  // namespace msp
