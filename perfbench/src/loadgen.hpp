// Seeded load generator: every input the benchmark hands to the library is
// built here from the workload seed — the R-MAT graphs, the stream's edit
// batches and the serve workload's query masks. Generation is never part of
// a timed region or of `setup_s`; its cost is reported as setup.generate_s.
//
// Per-op inputs are a pure function of (seed, op index), so the op sequence
// of a run is identical on every run with the same seed whatever number of
// ops the run reaches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gen/rmat.hpp"
#include "gen/rng.hpp"
#include "matrix/csr.hpp"
#include "matrix/delta.hpp"
#include "matrix/ops.hpp"

namespace perfbench {

using IT = msp::index_t;
using VT = double;
using Csr = msp::CsrMatrix<IT, VT>;
using Edit = msp::EdgeUpdate<IT, VT>;

/// Independent sub-seed for one input stream of a workload.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  msp::SplitMix64 sm(seed ^ (tag * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

enum SeedTag : std::uint64_t {
  kGraphTag = 1,
  kEditTag = 2,
  kMaskTag = 3,
  kShuffleTag = 4,
};

/// FNV-1a over raw bytes, chainable.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class T>
std::uint64_t fnv1a_vec(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

inline std::uint64_t checksum(const Csr& m,
                              std::uint64_t h = 0xcbf29ce484222325ULL) {
  h = fnv1a(&m.nrows, sizeof(m.nrows), h);
  h = fnv1a(&m.ncols, sizeof(m.ncols), h);
  h = fnv1a_vec(m.rowptr, h);
  h = fnv1a_vec(m.colids, h);
  return fnv1a_vec(m.values, h);
}

inline std::uint64_t checksum(const std::vector<Edit>& batch,
                              std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const Edit& e : batch) {
    h = fnv1a(&e.row, sizeof(e.row), h);
    h = fnv1a(&e.col, sizeof(e.col), h);
    h = fnv1a(&e.value, sizeof(e.value), h);
    const unsigned char rm = e.remove ? 1 : 0;
    h = fnv1a(&rm, 1, h);
  }
  return h;
}

/// Symmetric R-MAT adjacency (Graph500 parameters), 2^scale vertices.
inline Csr make_graph(std::uint64_t seed, int scale, double edge_factor) {
  msp::RmatParams p;
  p.seed = derive_seed(seed, kGraphTag);
  return msp::rmat_graph<IT, VT>(scale, edge_factor, p);
}

/// The same graph with its vertex labels randomly permuted (as Graph500
/// does). R-MAT puts its hubs at low labels; after the shuffle a row window
/// holds a fair sample of hubs, so what an edit burst costs does not depend
/// on where its window lands.
inline Csr shuffle_labels(const Csr& g, std::uint64_t seed) {
  std::vector<IT> perm(static_cast<std::size_t>(g.nrows));
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<IT>(i);
  msp::Xoshiro256 rng(derive_seed(seed, kShuffleTag));
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return msp::permute_symmetric(g, perm);
}

/// Edit batches are localized bursts: all `edits` edits of op `op` land in
/// one contiguous row window of `max(256, edits)` rows at a random start.
/// About a third of the edits delete an edge of the base graph; the rest
/// insert or overwrite an edge with a value in 1..9. `op < 0` names the
/// set-up batch.
inline std::vector<Edit> make_edit_batch(const Csr& base, std::size_t edits,
                                         std::uint64_t seed, long op) {
  msp::Xoshiro256 rng(derive_seed(seed, kEditTag),
                      static_cast<std::uint64_t>(op + 1));
  const auto nrows = static_cast<std::uint64_t>(base.nrows);
  const std::uint64_t window =
      std::min<std::uint64_t>(nrows, std::max<std::uint64_t>(256, edits));
  const std::uint64_t w0 = rng.next_below(nrows - window + 1);
  std::vector<Edit> batch;
  batch.reserve(edits);
  for (std::size_t e = 0; e < edits; ++e) {
    Edit u;
    u.row = static_cast<IT>(w0 + rng.next_below(window));
    const auto b = static_cast<std::size_t>(base.rowptr[u.row]);
    const auto t = static_cast<std::size_t>(base.rowptr[u.row + 1]);
    if (rng.next_double() < 0.33 && t > b) {
      u.col = base.colids[b + rng.next_below(t - b)];
      u.remove = true;
    } else {
      u.col = static_cast<IT>(
          rng.next_below(static_cast<std::uint64_t>(base.ncols)));
      u.value = static_cast<VT>(1 + rng.next_below(9));
    }
    batch.push_back(u);
  }
  return batch;
}

/// Keep each row of `m` with probability `keep` — one query mask of the
/// serve workload (each user asks about its own subset of the rows).
inline Csr row_sample(const Csr& m, double keep, std::uint64_t seed,
                      std::uint64_t stream) {
  msp::Xoshiro256 rng(seed, stream);
  std::vector<IT> rowptr(static_cast<std::size_t>(m.nrows) + 1, 0);
  std::vector<IT> colids;
  std::vector<VT> values;
  for (IT i = 0; i < m.nrows; ++i) {
    rowptr[static_cast<std::size_t>(i)] = static_cast<IT>(colids.size());
    if (rng.next_double() < keep) {
      for (IT p = m.rowptr[i]; p < m.rowptr[i + 1]; ++p) {
        colids.push_back(m.colids[p]);
        values.push_back(m.values[p]);
      }
    }
  }
  rowptr[static_cast<std::size_t>(m.nrows)] = static_cast<IT>(colids.size());
  return Csr(m.nrows, m.ncols, std::move(rowptr), std::move(colids),
             std::move(values));
}

/// The `count` masks of serve op `op` (`op < 0`: the set-up query).
inline std::vector<Csr> make_masks(const Csr& l, int count, double keep,
                                   std::uint64_t seed, long op) {
  std::vector<Csr> masks;
  masks.reserve(static_cast<std::size_t>(count));
  const std::uint64_t base = derive_seed(seed, kMaskTag);
  for (int j = 0; j < count; ++j) {
    const auto stream = static_cast<std::uint64_t>(op + 1) * 64 +
                        static_cast<std::uint64_t>(j);
    masks.push_back(row_sample(l, keep, base, stream));
  }
  return masks;
}

}  // namespace perfbench
