// Matrix Market I/O: the exchange format of the SuiteSparse Matrix
// Collection the paper's corpus comes from. Supports coordinate
// real/integer/pattern matrices, general/symmetric/skew-symmetric storage.
#pragma once

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>

#include "matrix/convert.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "util/common.hpp"

namespace msp {

namespace detail {

inline std::string lowercase(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace detail

/// Read a Matrix Market coordinate stream into COO. Symmetric and
/// skew-symmetric storage are expanded to full general form; pattern files
/// get value 1 on every entry. Throws io_error on malformed input.
template <class IT = index_t, class VT = double>
CooMatrix<IT, VT> read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw io_error("mmio: empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") throw io_error("mmio: missing banner");
  object = detail::lowercase(object);
  format = detail::lowercase(format);
  field = detail::lowercase(field);
  symmetry = detail::lowercase(symmetry);
  if (object != "matrix" || format != "coordinate") {
    throw io_error("mmio: only coordinate matrices are supported");
  }
  if (field != "real" && field != "integer" && field != "pattern" &&
      field != "double") {
    throw io_error("mmio: unsupported field type '" + field + "'");
  }
  if (symmetry != "general" && symmetry != "symmetric" &&
      symmetry != "skew-symmetric") {
    throw io_error("mmio: unsupported symmetry '" + symmetry + "'");
  }

  // Skip comment and blank lines, then read the size line. Only genuinely
  // blank lines are tolerated: the first non-comment line with content
  // MUST parse as `rows cols nnz`, anything else is a malformed header —
  // swallowing it silently would let a garbage line shift the whole
  // parse by one line and misread the entry section.
  long long rows = -1, cols = -1, nnz = -1;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '%') continue;
    if (line.find_first_not_of(" \t\r\n\v\f") == std::string::npos) continue;
    std::istringstream sz(line);
    if (!(sz >> rows >> cols >> nnz)) throw io_error("mmio: bad size line");
    break;
  }
  if (rows < 0 || cols < 0 || nnz < 0) throw io_error("mmio: bad size line");

  CooMatrix<IT, VT> coo(checked_cast<IT>(rows), checked_cast<IT>(cols));
  // The size line is untrusted: reserve at most a bounded prefix and let
  // push() grow the rest, so a file claiming 10^15 entries fails as
  // truncated instead of exhausting memory up front.
  constexpr long long kMaxReserve = 1LL << 20;
  coo.entries.reserve(static_cast<std::size_t>(std::min(nnz, kMaxReserve)));
  const bool pattern = (field == "pattern");
  const bool skew = (symmetry == "skew-symmetric");
  const bool sym = (symmetry == "symmetric") || skew;
  long long seen = 0;
  while (seen < nnz) {
    if (!std::getline(in, line)) throw io_error("mmio: truncated entries");
    if (line.empty() || line[0] == '%') continue;
    std::istringstream es(line);
    long long r, c;
    double v = 1.0;
    if (!(es >> r >> c)) throw io_error("mmio: bad entry line");
    if (!pattern && !(es >> v)) throw io_error("mmio: missing value");
    if (r < 1 || r > rows || c < 1 || c > cols) {
      throw io_error("mmio: entry out of bounds");
    }
    const IT ri = static_cast<IT>(r - 1);
    const IT ci = static_cast<IT>(c - 1);
    coo.push(ri, ci, static_cast<VT>(v));
    if (sym && ri != ci) {
      coo.push(ci, ri, static_cast<VT>(skew ? -v : v));
    }
    ++seen;
  }
  return coo;
}

/// Convenience: read a Matrix Market file straight into CSR.
template <class IT = index_t, class VT = double>
CsrMatrix<IT, VT> read_matrix_market_csr(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw io_error("mmio: cannot open '" + path + "'");
  return coo_to_csr(read_matrix_market<IT, VT>(in));
}

/// Write a CSR matrix as a general real coordinate Matrix Market stream.
/// Values are streamed at `max_digits10` precision so a write→read round
/// trip is bit-identical for floating-point value types (the stream's
/// default 6 significant digits would silently break any differential
/// check routed through an MM file). The caller's stream precision is
/// restored on return.
template <class IT, class VT>
void write_matrix_market(std::ostream& out, const CsrMatrix<IT, VT>& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.nrows << ' ' << a.ncols << ' ' << a.nnz() << '\n';
  std::streamsize old_precision = out.precision();
  if constexpr (std::is_floating_point_v<VT>) {
    old_precision = out.precision(std::numeric_limits<VT>::max_digits10);
  }
  for (IT i = 0; i < a.nrows; ++i) {
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      out << (i + 1) << ' ' << (a.colids[p] + 1) << ' ' << a.values[p] << '\n';
    }
  }
  out.precision(old_precision);
}

/// Convenience: write CSR to a Matrix Market file.
template <class IT, class VT>
void write_matrix_market_file(const std::string& path,
                              const CsrMatrix<IT, VT>& a) {
  std::ofstream out(path);
  if (!out) throw io_error("mmio: cannot open '" + path + "' for writing");
  write_matrix_market(out, a);
}

}  // namespace msp
