// Triangle Counting via Masked SpGEMM — paper §8.2.
//
// After relabeling vertices in non-increasing degree order (Lumsdaine et
// al.'s optimization, cited by the paper), the triangle count of an
// undirected simple graph is sum(L ⊙ (L·L)) where L is the strictly
// lower-triangular part of the adjacency matrix. The multiplication runs on
// the plus-pair semiring, so each output entry counts the wedges closed by
// that edge. Only the Masked SpGEMM is timed, as in the paper.
//
// Every entry point runs through the `msp::Engine` facade; passing a
// pre-bound `BoundMatrix` handle for L additionally skips the per-call
// pattern fingerprint (the steady-state cost of a service answering
// repeated counts over one prepared graph).
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "core/flops.hpp"
#include "core/tiled_engine.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"
#include "util/timer.hpp"

namespace msp {

template <class IT, class VT>
struct TricountInput {
  CsrMatrix<IT, VT> l;       ///< relabeled strictly lower-triangular part
  std::int64_t flops = 0;    ///< flops(L·L), the paper's GFLOPS denominator
};

/// Preprocessing (not timed in benchmarks): degree relabeling + tril.
/// `adj` must be a symmetric adjacency matrix without self-loops.
template <class IT, class VT>
TricountInput<IT, VT> tricount_prepare(const CsrMatrix<IT, VT>& adj) {
  TricountInput<IT, VT> input;
  input.l = tril(permute_symmetric(adj, degree_order(adj)));
  input.flops = total_flops(input.l, input.l);
  return input;
}

template <class IT = index_t>
struct TricountResult {
  std::int64_t triangles = 0;
  double spgemm_seconds = 0.0;  ///< Masked SpGEMM time only
  std::int64_t flops = 0;       ///< flops(L·L)
  PlanUsageStats plan_stats;    ///< setup/symbolic accounting (engine path)
};

/// Count triangles with the given Masked SpGEMM scheme through the Engine
/// facade: plan-then-execute with the engine's plan cache and per-thread
/// scratch. A repeated count over the same prepared input reuses the
/// cached plan; passing `l` (a handle bound to `input.l`) also skips the
/// per-call fingerprint.
template <class IT, class VT>
TricountResult<IT> triangle_count(const TricountInput<IT, VT>& input,
                                  Scheme scheme, Engine& engine,
                                  const BoundMatrix<IT, VT>* l = nullptr) {
  TricountResult<IT> result;
  result.flops = input.flops;
  MaskedSpgemmStats stats;
  Timer timer;
  const CsrMatrix<IT, VT> c = engine.multiply_scheme<PlusPair<VT>>(
      scheme, input.l, input.l, input.l, MaskKind::kMask,
      MaskSemantics::kStructural, &stats, l, l, l);
  result.spgemm_seconds = timer.seconds();
  result.plan_stats.absorb(stats);
  result.triangles = static_cast<std::int64_t>(reduce_sum(c));
  return result;
}

/// Opt-in sharded/out-of-core triangle count: L is split into `shards`
/// contiguous row blocks (optionally spill-managed by `store` when L does
/// not fit the resident budget) and the masked product L ⊙ (L·L) runs
/// shard-by-shard through `tiled` — one ShardedMatrix serves as both the
/// left operand and the aligned mask. The split happens outside the timed
/// region; the count is bit-identical to `triangle_count` with the same
/// scheme.
template <class IT, class VT>
TricountResult<IT> triangle_count_sharded(const TricountInput<IT, VT>& input,
                                          Scheme scheme, TiledEngine& tiled,
                                          int shards,
                                          ShardStore* store = nullptr) {
  TricountResult<IT> result;
  result.flops = input.flops;
  const ShardedMatrix<IT, VT> lsh(input.l, shards, store);
  MaskedSpgemmStats stats;
  Timer timer;
  const CsrMatrix<IT, VT> c = tiled.multiply<PlusPair<VT>>(
      scheme, lsh, input.l, lsh, MaskKind::kMask, MaskSemantics::kStructural,
      &stats);
  result.spgemm_seconds = timer.seconds();
  result.plan_stats.absorb(stats);
  result.triangles = static_cast<std::int64_t>(reduce_sum(c));
  return result;
}

/// Convenience: prepare + count in one call (tests, examples).
template <class IT, class VT>
TricountResult<IT> triangle_count(const CsrMatrix<IT, VT>& adj, Scheme scheme,
                                  Engine& engine) {
  return triangle_count(tricount_prepare(adj), scheme, engine);
}

/// Multi-mask triangle support: for each query mask Mq (nrows×nrows, like
/// L), sum(Mq ⊙ (L·L)) counts the wedges of L closed inside Mq's edge set —
/// the per-subgraph/per-query flavour of triangle counting a multi-mask
/// service answers against one prepared graph. The whole batch runs
/// through Engine::multiply_batch: L is bound once, so it is fingerprinted
/// once and the flops vector and (for Inner) L's transpose are shared
/// across all query plans. Bit-identical to counting each mask separately.
template <class IT, class VT>
std::vector<std::int64_t> triangle_support_batch(
    const TricountInput<IT, VT>& input,
    const std::vector<const CsrMatrix<IT, VT>*>& masks, Scheme scheme,
    Engine& engine) {
  std::vector<std::int64_t> support;
  support.reserve(masks.size());
  const auto cs =
      engine.multiply_batch<PlusPair<VT>>(scheme, input.l, input.l, masks);
  for (const auto& c : cs) {
    support.push_back(static_cast<std::int64_t>(reduce_sum(c)));
  }
  return support;
}

/// The masked-SpGEMM triangle-counting formulations compared by Davis
/// (HPEC'18, the paper's reference [15]). All compute the same count; they
/// differ in which triangular part drives the multiplication and therefore
/// in flops, mask density, and accumulator behaviour. kSandiaLL is the
/// formulation used throughout the paper's §8.2 (and by `triangle_count`).
enum class TricountVariant {
  kBurkhardt,  ///< sum(A ⊙ (A·A)) / 6 — full adjacency both sides
  kCohen,      ///< sum(A ⊙ (L·U)) / 2 — lower×upper, full mask
  kSandiaLL,   ///< sum(L ⊙ (L·L))     — lower×lower, lower mask
  kSandiaUU,   ///< sum(U ⊙ (U·U))     — upper×upper, upper mask
};

inline const char* tricount_variant_name(TricountVariant v) {
  switch (v) {
    case TricountVariant::kBurkhardt: return "Burkhardt";
    case TricountVariant::kCohen: return "Cohen";
    case TricountVariant::kSandiaLL: return "Sandia-LL";
    case TricountVariant::kSandiaUU: return "Sandia-UU";
  }
  return "?";
}

/// Count triangles with a specific formulation through `engine`. `adj`
/// must be a symmetric simple adjacency matrix; vertices are
/// degree-relabeled first, as in §8.2.
template <class IT, class VT>
TricountResult<IT> triangle_count_variant(const CsrMatrix<IT, VT>& adj,
                                          TricountVariant variant,
                                          Scheme scheme, Engine& engine) {
  const auto perm = degree_order(adj);
  const CsrMatrix<IT, VT> a =
      to_pattern(permute_symmetric(adj, perm));
  TricountResult<IT> result;
  Timer timer;
  CsrMatrix<IT, VT> c;
  std::int64_t divisor = 1;
  switch (variant) {
    case TricountVariant::kBurkhardt: {
      result.flops = total_flops(a, a);
      timer.reset();
      c = engine.multiply_scheme<PlusPair<VT>>(scheme, a, a, a);
      divisor = 6;
      break;
    }
    case TricountVariant::kCohen: {
      const CsrMatrix<IT, VT> l = tril(a);
      const CsrMatrix<IT, VT> u = triu(a);
      result.flops = total_flops(l, u);
      timer.reset();
      c = engine.multiply_scheme<PlusPair<VT>>(scheme, l, u, a);
      divisor = 2;
      break;
    }
    case TricountVariant::kSandiaLL: {
      const CsrMatrix<IT, VT> l = tril(a);
      result.flops = total_flops(l, l);
      timer.reset();
      c = engine.multiply_scheme<PlusPair<VT>>(scheme, l, l, l);
      break;
    }
    case TricountVariant::kSandiaUU: {
      const CsrMatrix<IT, VT> u = triu(a);
      result.flops = total_flops(u, u);
      timer.reset();
      c = engine.multiply_scheme<PlusPair<VT>>(scheme, u, u, u);
      break;
    }
  }
  result.spgemm_seconds = timer.seconds();
  result.triangles = static_cast<std::int64_t>(reduce_sum(c)) / divisor;
  return result;
}

}  // namespace msp
