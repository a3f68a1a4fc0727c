// Shared machinery for the cross-kernel conformance suite: the enumerated
// execution configurations (Scheme x mask kind x mask semantics) and the
// generated matrix corpus every configuration is swept over. The expected
// result for every case is pinned to the core/baseline.hpp SAXPY reference
// (itself cross-checked against the dense oracle in the anchor test).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/masked_spgemm.hpp"
#include "core/scheme.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "matrix/dense.hpp"
#include "matrix/ops.hpp"
#include "test_support.hpp"

namespace msp::conformance {

/// One execution configuration of the sweep. The cross product covers every
/// Scheme (all accumulators: MSA, MCA, hash, heap, heap-dot, inner, plus the
/// two SS-style baselines), both mask kinds (complement skipped where the
/// scheme cannot support it), and both GraphBLAS mask semantics.
struct Config {
  Scheme scheme = Scheme::kMsa1P;
  MaskKind kind = MaskKind::kMask;
  MaskSemantics semantics = MaskSemantics::kStructural;

  [[nodiscard]] std::string name() const {
    std::string n{scheme_name(scheme)};
    for (char& c : n) {
      if (c == ':' || c == '-') c = '_';
    }
    n += kind == MaskKind::kComplement ? "_Comp" : "_Mask";
    n += semantics == MaskSemantics::kValued ? "_Valued" : "_Structural";
    return n;
  }
};

/// GoogleTest value printer, so CTest ids show the config name instead of
/// a raw byte dump.
inline void PrintTo(const Config& cfg, std::ostream* os) {
  *os << cfg.name();
}

inline std::vector<Config> all_configs() {
  std::vector<Config> out;
  for (Scheme s : all_schemes()) {
    for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
      if (kind == MaskKind::kComplement && !scheme_supports_complement(s)) {
        continue;
      }
      for (MaskSemantics sem :
           {MaskSemantics::kStructural, MaskSemantics::kValued}) {
        out.push_back({s, kind, sem});
      }
    }
  }
  return out;
}

/// One (A, B, M) problem instance of the corpus.
template <class IT, class VT = double>
struct Case {
  std::string name;
  CsrMatrix<IT, VT> a;
  CsrMatrix<IT, VT> b;
  CsrMatrix<IT, VT> m;
};

/// Plant explicit zeros on a deterministic subset of stored entries so the
/// structural and valued interpretations genuinely diverge.
template <class IT, class VT>
CsrMatrix<IT, VT> with_explicit_zeros(CsrMatrix<IT, VT> m) {
  for (std::size_t p = 0; p < m.values.size(); ++p) {
    if (p % 3 == 0) m.values[p] = VT{};
  }
  return m;
}

template <class IT, class VT = double>
CsrMatrix<IT, VT> diagonal_matrix(IT n, VT start = VT{2}) {
  CsrMatrix<IT, VT> d(n, n);
  for (IT i = 0; i < n; ++i) {
    d.colids.push_back(i);
    d.values.push_back(start + static_cast<VT>(i % 7));
    d.rowptr[static_cast<std::size_t>(i) + 1] = i + 1;
  }
  return d;
}

/// The conformance corpus (ISSUE 1): empty, dense, diagonal, rectangular,
/// duplicate-free Erdos-Renyi, and RMAT instances. Sizes are small enough
/// for the dense/baseline references yet large enough to exercise every
/// accumulator's collision/merge paths. All masks carry explicit zeros so
/// the valued-semantics leg of the sweep is non-trivial.
template <class IT>
std::vector<Case<IT>> corpus() {
  using VT = double;
  using msp::testing::random_csr;
  std::vector<Case<IT>> out;

  // Empty operands under a nonempty mask: every kernel must produce an
  // empty, well-formed result.
  out.push_back({"empty",
                 CsrMatrix<IT, VT>(IT{8}, IT{8}),
                 CsrMatrix<IT, VT>(IT{8}, IT{8}),
                 with_explicit_zeros(random_csr<IT, VT>(8, 8, 0.5, 11))});

  // Fully dense operands and mask: maximal accumulator occupancy.
  out.push_back({"dense", random_csr<IT, VT>(12, 12, 1.0, 21),
                 random_csr<IT, VT>(12, 12, 1.0, 22),
                 with_explicit_zeros(random_csr<IT, VT>(12, 12, 1.0, 23))});

  // Diagonal A and B (product is diagonal) under a scattered mask.
  out.push_back({"diagonal", diagonal_matrix<IT>(IT{16}),
                 diagonal_matrix<IT>(IT{16}, VT{3}),
                 with_explicit_zeros(random_csr<IT, VT>(16, 16, 0.4, 31))});

  // Rectangular shapes: distinct nrows/ncols/inner dimension.
  out.push_back({"rectangular", random_csr<IT, VT>(9, 13, 0.35, 41),
                 random_csr<IT, VT>(13, 7, 0.35, 42),
                 with_explicit_zeros(random_csr<IT, VT>(9, 7, 0.45, 43))});

  // Duplicate-free Erdos-Renyi graph (paper Fig. 7 workload).
  out.push_back({"erdos_renyi", erdos_renyi<IT, VT>(IT{48}, 6.0, 51),
                 erdos_renyi<IT, VT>(IT{48}, 6.0, 52),
                 with_explicit_zeros(erdos_renyi<IT, VT>(IT{48}, 10.0, 53))});

  // RMAT graph (paper scale-sweep workload): skewed degrees, symmetrized,
  // dedup'd. Self-multiply under its own skewed mask.
  RmatParams rp;
  rp.seed = 61;
  const auto rmat = rmat_graph<IT, VT>(5, 4.0, rp);
  RmatParams rp_mask;
  rp_mask.seed = 62;
  out.push_back({"rmat", rmat, rmat,
                 with_explicit_zeros(rmat_graph<IT, VT>(5, 6.0, rp_mask))});

  return out;
}

// The valued-semantics reduction (drop explicitly stored zeros) comes from
// the library's shared helper, msp::drop_explicit_zeros (matrix/ops.hpp).

/// The pinned reference (core/baseline.hpp): SS:SAXPY-style unmasked
/// multiply + mask application, on the structurally-equivalent mask.
template <class SR, class IT, class VT>
CsrMatrix<IT, VT> expected_result(const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b,
                                  const CsrMatrix<IT, VT>& m, MaskKind kind,
                                  MaskSemantics semantics) {
  if (semantics == MaskSemantics::kValued) {
    return baseline_saxpy<SR>(a, b, drop_explicit_zeros(m), kind);
  }
  return baseline_saxpy<SR>(a, b, m, kind);
}

/// Run one configuration. The twelve paper schemes are executed through
/// masked_multiply (which honors mask semantics directly); the SS-style
/// baselines receive the semantics reduction explicitly, since their
/// signatures predate the MaskSemantics option.
template <class SR, class IT, class VT>
CsrMatrix<IT, VT> run_config(const Config& cfg, const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b,
                             const CsrMatrix<IT, VT>& m) {
  MaskedSpgemmOptions opt;
  opt.mask_kind = cfg.kind;
  opt.mask_semantics = cfg.semantics;
  if (scheme_to_options(cfg.scheme, opt)) {
    return masked_multiply<SR>(a, b, m, opt);
  }
  const CsrMatrix<IT, VT> held =
      cfg.semantics == MaskSemantics::kValued ? drop_explicit_zeros(m) : m;
  if (cfg.scheme == Scheme::kSsDot) {
    return baseline_dot<SR>(a, b, held, cfg.kind);
  }
  return baseline_saxpy<SR>(a, b, held, cfg.kind);
}

}  // namespace msp::conformance
