// mspgemm — parallel algorithms for masked sparse matrix-matrix products.
//
// Umbrella header: pulls in the whole public API. Reproduction of
// Milaković, Selvitopi, Nisa, Budimlić & Buluç, "Parallel Algorithms for
// Masked Sparse Matrix-Matrix Products" (PPoPP 2022).
//
// Quickstart:
//   #include "mspgemm.hpp"
//   auto a = msp::erdos_renyi<int>(1 << 12, 8.0, /*seed=*/1);
//   auto m = msp::erdos_renyi<int>(1 << 12, 4.0, /*seed=*/2);
//   msp::MaskedSpgemmOptions opt;           // MSA-1P by default
//   auto c = msp::masked_multiply<msp::PlusTimes<double>>(a, a, m, opt);
#pragma once

#include "core/accumulator.hpp"      // IWYU pragma: export
#include "core/baseline.hpp"         // IWYU pragma: export
#include "core/bound_matrix.hpp"     // IWYU pragma: export
#include "core/config.hpp"           // IWYU pragma: export
#include "core/engine.hpp"           // IWYU pragma: export
#include "core/exec_context.hpp"     // IWYU pragma: export
#include "core/scheme.hpp"           // IWYU pragma: export
#include "core/flops.hpp"            // IWYU pragma: export
#include "core/masked_spgemm.hpp"    // IWYU pragma: export
#include "core/plan.hpp"             // IWYU pragma: export
#include "core/async_io.hpp"         // IWYU pragma: export
#include "core/storage.hpp"          // IWYU pragma: export
#include "core/shard.hpp"            // IWYU pragma: export
#include "core/tiled_engine.hpp"     // IWYU pragma: export
#include "core/masked_spmv.hpp"      // IWYU pragma: export
#include "core/spgemm.hpp"           // IWYU pragma: export
#include "apps/bc.hpp"               // IWYU pragma: export
#include "apps/bfs.hpp"              // IWYU pragma: export
#include "apps/bfs_direction_optimized.hpp"  // IWYU pragma: export
#include "apps/clustering.hpp"       // IWYU pragma: export
#include "apps/components.hpp"       // IWYU pragma: export
#include "apps/ktruss.hpp"           // IWYU pragma: export
#include "apps/tricount.hpp"         // IWYU pragma: export
#include "gen/erdos_renyi.hpp"       // IWYU pragma: export
#include "gen/rmat.hpp"              // IWYU pragma: export
#include "gen/structured.hpp"        // IWYU pragma: export
#include "matrix/convert.hpp"        // IWYU pragma: export
#include "matrix/delta.hpp"          // IWYU pragma: export
#include "matrix/dense.hpp"          // IWYU pragma: export
#include "matrix/mmio.hpp"           // IWYU pragma: export
#include "matrix/ops.hpp"            // IWYU pragma: export
#include "matrix/sparse_vector.hpp"  // IWYU pragma: export
#include "semiring/semiring.hpp"     // IWYU pragma: export
#include "util/stats.hpp"            // IWYU pragma: export
#include "util/timer.hpp"            // IWYU pragma: export
