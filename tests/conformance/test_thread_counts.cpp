// Thread-count bit-identity: every planful scheme × mask kind × mask
// semantics, run cold and then warm through an ExecutionContext at 1, 2, 3
// and 4 OpenMP threads, must reproduce the planless masked_multiply bit for
// bit. The row loops are dynamically scheduled, so which thread (and which
// per-thread scratch) computes a row changes with the width and from call
// to call; a kernel scratch that leaks state from one row into the next
// shows up here as a mismatch. The inputs span many row chunks and include
// zero-flops rows, which the planned loop skips.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conformance_support.hpp"
#include "core/exec_context.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using msp::conformance::Case;
using msp::conformance::Config;
using msp::conformance::all_configs;
using msp::conformance::with_explicit_zeros;
using msp::testing::csr_equal;

/// Restores the OpenMP thread count on scope exit, failed assertion or not.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(max_threads()) {}
  ~ThreadCountGuard() { set_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// Inputs of 1024 and 600 rows: 16 and 10 chunks of the row loop.
std::vector<Case<int>> wide_corpus() {
  std::vector<Case<int>> out;
  RmatParams rp;
  rp.seed = 71;
  const auto rmat = rmat_graph<int, double>(10, 8.0, rp);
  RmatParams rp_mask;
  rp_mask.seed = 72;
  out.push_back({"rmat10", rmat, rmat,
                 with_explicit_zeros(rmat_graph<int, double>(10, 8.0, rp_mask))});
  out.push_back(
      {"rectangular", msp::testing::random_csr<int, double>(600, 400, 0.02, 81),
       msp::testing::random_csr<int, double>(400, 500, 0.02, 82),
       with_explicit_zeros(
           msp::testing::random_csr<int, double>(600, 500, 0.05, 83))});
  return out;
}

std::vector<Config> planful_configs() {
  std::vector<Config> out;
  for (const Config& cfg : all_configs()) {
    MaskedSpgemmOptions opt;
    if (scheme_to_options(cfg.scheme, opt)) out.push_back(cfg);
  }
  return out;
}

class ThreadCountConformance : public ::testing::TestWithParam<Config> {};

TEST_P(ThreadCountConformance, ColdAndWarmMatchPlanlessAtEveryWidth) {
  using SR = PlusTimes<double>;
  const Config cfg = GetParam();
  MaskedSpgemmOptions opt;
  opt.mask_kind = cfg.kind;
  opt.mask_semantics = cfg.semantics;
  ASSERT_TRUE(scheme_to_options(cfg.scheme, opt));
  const ThreadCountGuard guard;
  for (const auto& c : wide_corpus()) {
    const auto expected = masked_multiply<SR>(c.a, c.b, c.m, opt);
    for (int threads : {1, 2, 3, 4}) {
      set_threads(threads);
      ExecutionContext ctx;
      MaskedSpgemmStats st;
      MaskedSpgemmOptions traced = opt;
      traced.stats = &st;
      const auto cold = ctx.multiply<SR>(c.a, c.b, c.m, traced);
      EXPECT_FALSE(st.plan_cache_hit);
      const auto warm = ctx.multiply<SR>(c.a, c.b, c.m, traced);
      EXPECT_TRUE(st.plan_cache_hit);
      EXPECT_TRUE(csr_equal(expected, cold))
          << c.name << " cold at " << threads << " threads";
      EXPECT_TRUE(csr_equal(expected, warm))
          << c.name << " warm at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlanfulSchemes, ThreadCountConformance,
    ::testing::ValuesIn(planful_configs()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.name();
    });

}  // namespace
}  // namespace msp
