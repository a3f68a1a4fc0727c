// Google-benchmark microbenchmarks of the four accumulator row kernels and
// the pull-based kernel (paper §5): one full masked SpGEMM per iteration at
// several mask/input density ratios, isolating accumulator behaviour from
// application logic. Complements the figure harnesses with statistically
// managed timings.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <tuple>

#include "apps/tricount.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "semiring/semiring.hpp"

namespace {

using namespace msp;
using IT = index_t;
using VT = double;

struct Inputs {
  CsrMatrix<IT, VT> a;
  CsrMatrix<IT, VT> b;
  CsrMatrix<IT, VT> mask;
};

/// Shared inputs per (n, input degree, mask degree) triple, built once.
const Inputs& inputs_for(IT n, double deg, double mask_deg) {
  static std::map<std::tuple<IT, double, double>, Inputs> cache;
  auto [it, inserted] = cache.try_emplace({n, deg, mask_deg});
  if (inserted) {
    it->second.a = erdos_renyi<IT, VT>(n, deg, 31);
    it->second.b = erdos_renyi<IT, VT>(n, deg, 32);
    it->second.mask = erdos_renyi<IT, VT>(n, mask_deg, 33);
  }
  return it->second;
}

void run_algorithm(benchmark::State& state, MaskedAlgorithm algo) {
  const IT n = static_cast<IT>(state.range(0));
  const double deg = static_cast<double>(state.range(1));
  const double mask_deg = static_cast<double>(state.range(2));
  const Inputs& in = inputs_for(n, deg, mask_deg);
  MaskedSpgemmOptions opt;
  opt.algorithm = algo;
  for (auto _ : state) {
    auto c = masked_multiply<PlusTimes<VT>>(in.a, in.b, in.mask, opt);
    benchmark::DoNotOptimize(c.colids.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.mask.nnz()));
}

void args(benchmark::internal::Benchmark* b) {
  b->Args({1 << 12, 8, 8})     // comparable densities
      ->Args({1 << 12, 32, 4})  // dense inputs, sparse mask
      ->Args({1 << 12, 4, 64})  // sparse inputs, dense mask
      ->Args({1 << 12, 64, 32})  // long B rows, dense mask
      ->Unit(benchmark::kMillisecond);
}

/// The triangle-count shape: L·L masked by L, where L is the relabeled
/// strictly lower triangle of an R-MAT 14 graph: skewed rows, and a mask
/// that admits a data-dependent minority of the products.
void BM_MsaTricount(benchmark::State& state) {
  static const auto input = tricount_prepare(rmat_graph<IT, VT>(14, 16.0));
  const auto& l = input.l;
  MaskedSpgemmOptions opt;
  opt.algorithm = MaskedAlgorithm::kMsa;
  for (auto _ : state) {
    auto c = masked_multiply<PlusTimes<VT>>(l, l, l, opt);
    benchmark::DoNotOptimize(c.colids.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(l.nnz()));
}

void BM_Msa(benchmark::State& s) { run_algorithm(s, MaskedAlgorithm::kMsa); }
void BM_Hash(benchmark::State& s) { run_algorithm(s, MaskedAlgorithm::kHash); }
void BM_Mca(benchmark::State& s) { run_algorithm(s, MaskedAlgorithm::kMca); }
void BM_Heap(benchmark::State& s) { run_algorithm(s, MaskedAlgorithm::kHeap); }
void BM_HeapDot(benchmark::State& s) {
  run_algorithm(s, MaskedAlgorithm::kHeapDot);
}
void BM_Inner(benchmark::State& s) {
  run_algorithm(s, MaskedAlgorithm::kInner);
}

// Large mask rows (600 of 65536 columns, above ncols/128); MSA only, as
// the 39 M-entry mask makes the merge-based kernels slow here.
BENCHMARK(BM_Msa)->Apply(args)->Args({1 << 16, 32, 600});
BENCHMARK(BM_MsaTricount)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Hash)->Apply(args);
BENCHMARK(BM_Mca)->Apply(args);
BENCHMARK(BM_Heap)->Apply(args);
BENCHMARK(BM_HeapDot)->Apply(args);
BENCHMARK(BM_Inner)->Apply(args);

}  // namespace

BENCHMARK_MAIN();
