// Shared infrastructure for the figure-reproduction benchmarks: the
// synthetic graph corpus standing in for the paper's 26 SuiteSparse graphs
// (DESIGN.md §5, substitution 1), environment-variable configuration,
// repetition/timing helpers, and table/profile printers that emit the same
// series the paper plots.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/csr.hpp"
#include "matrix/mmio.hpp"
#include "matrix/ops.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace msp::bench {

using IT = index_t;
using VT = double;
using Graph = CsrMatrix<IT, VT>;

/// Integer configuration from the environment with a default (all benches
/// are runnable with no arguments; env vars scale them up to paper sizes).
inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtol(v, nullptr, 10);
}

/// Repetitions per measurement (min-of-reps is reported).
inline int reps() { return static_cast<int>(env_long("MSP_REPS", 3)); }

/// Measure `fn` reps() times and return the minimum seconds.
template <class Fn>
double time_best(Fn&& fn, int repetitions = reps()) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repetitions; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

struct CorpusEntry {
  std::string name;
  std::function<Graph()> make;
};

/// Directory scanned for real SuiteSparse matrices (satellite of the
/// ROADMAP corpus item): every `*.mtx` file under `MSP_SUITESPARSE_DIR`
/// (default `data/suitesparse`, populated by scripts/fetch_suitesparse.sh)
/// becomes a corpus entry named `ss-<stem>`, loaded as a simple symmetric
/// graph. Opt-in: when the directory is absent or empty the generated
/// corpus is unchanged.
inline std::vector<CorpusEntry> suitesparse_corpus() {
  const char* env = std::getenv("MSP_SUITESPARSE_DIR");
  const std::filesystem::path dir =
      (env != nullptr && *env != '\0') ? env : "data/suitesparse";
  std::vector<CorpusEntry> entries;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return entries;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".mtx") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    entries.push_back({"ss-" + path.stem().string(), [path] {
                         return remove_diagonal(symmetrize(
                             read_matrix_market_csr<IT, VT>(path.string())));
                       }});
  }
  return entries;
}

/// The benchmark corpus: R-MAT (skewed, social/web-like), Erdős-Rényi
/// (near-regular) and grid (mesh/road-like) graphs spanning the density and
/// skew axes of the paper's real-graph set, plus any fetched SuiteSparse
/// matrices (see suitesparse_corpus). `MSP_CORPUS_SCALE_ADD` grows every
/// generated graph by that many powers of two for closer-to-paper sizes.
inline std::vector<CorpusEntry> corpus() {
  const int add = static_cast<int>(env_long("MSP_CORPUS_SCALE_ADD", 0));
  std::vector<CorpusEntry> entries;
  auto rmat = [add](int scale, double ef) {
    return [=] { return rmat_graph<IT, VT>(scale + add, ef); };
  };
  auto er = [add](int scale, double deg) {
    return [=] {
      const IT n = IT{1} << (scale + add);
      return remove_diagonal(symmetrize(erdos_renyi<IT, VT>(n, deg, 7)));
    };
  };
  auto grid = [add](IT side) {
    return [=] { return grid_graph<IT, VT>(side << add, side << add); };
  };
  entries.push_back({"rmat10-ef8", rmat(10, 8.0)});
  entries.push_back({"rmat11-ef8", rmat(11, 8.0)});
  entries.push_back({"rmat11-ef16", rmat(11, 16.0)});
  entries.push_back({"rmat12-ef8", rmat(12, 8.0)});
  entries.push_back({"rmat12-ef16", rmat(12, 16.0)});
  entries.push_back({"rmat13-ef16", rmat(13, 16.0)});
  entries.push_back({"er10-d16", er(10, 16.0)});
  entries.push_back({"er11-d8", er(11, 8.0)});
  entries.push_back({"er12-d8", er(12, 8.0)});
  entries.push_back({"er12-d32", er(12, 32.0)});
  entries.push_back({"er13-d4", er(13, 4.0)});
  entries.push_back({"grid-64", grid(64)});
  entries.push_back({"grid-128", grid(128)});
  for (auto& ss : suitesparse_corpus()) entries.push_back(std::move(ss));
  return entries;
}

/// Print a Dolan–Moré performance-profile table: one column per scheme,
/// one row per ratio point — the data behind paper Figs. 8/9/12/13/16.
inline void print_profiles(const std::vector<std::string>& scheme_names,
                           const std::vector<std::vector<double>>& times,
                           double max_ratio = 2.4) {
  const auto grid = default_ratio_grid(max_ratio);
  std::printf("%-8s", "ratio");
  for (const auto& name : scheme_names) std::printf(" %12s", name.c_str());
  std::printf("\n");
  std::vector<std::vector<ProfilePoint>> profiles;
  profiles.reserve(scheme_names.size());
  for (std::size_t s = 0; s < scheme_names.size(); ++s) {
    profiles.push_back(performance_profile(times, s, grid));
  }
  for (std::size_t g = 0; g < grid.size(); ++g) {
    std::printf("%-8.2f", grid[g]);
    for (const auto& prof : profiles) std::printf(" %12.3f", prof[g].fraction);
    std::printf("\n");
  }
}

/// Print the per-case timing matrix (rows = cases, columns = schemes) that
/// feeds the profiles, for transparency.
inline void print_times(const std::vector<std::string>& case_names,
                        const std::vector<std::string>& scheme_names,
                        const std::vector<std::vector<double>>& times) {
  std::printf("%-14s", "case");
  for (const auto& name : scheme_names) std::printf(" %12s", name.c_str());
  std::printf("\n");
  for (std::size_t c = 0; c < case_names.size(); ++c) {
    std::printf("%-14s", case_names[c].c_str());
    for (std::size_t s = 0; s < scheme_names.size(); ++s) {
      std::printf(" %12.6f", times[s][c]);
    }
    std::printf("\n");
  }
}

inline std::vector<std::string> names_of(const std::vector<Scheme>& schemes) {
  std::vector<std::string> out;
  out.reserve(schemes.size());
  for (Scheme s : schemes) out.emplace_back(scheme_name(s));
  return out;
}

}  // namespace msp::bench
