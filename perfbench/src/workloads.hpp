// The four benchmark workloads. Each one drives the library only through
// its public API and splits its work into the phases main.cpp times
// separately:
//
//   generate      build the seeded inputs (loadgen.hpp); never timed as set-up
//   setup         the program's own set-up, repeated by main.cpp; the last
//                 repetition's state serves the timed loop
//   prepare_op    per-op inputs and counter snapshots, untimed
//   run_op        the timed op
//   answer        digest of the answer of the last op (or warm-up op)
//   sample        per-layer numbers of a traced op, untimed
//
// The reference answers come from a separate oracle process (main.cpp
// starts the same binary with --oracle), which generates the same inputs
// and answers oracle_answer(op) for each op the benchmark checks. Keeping
// the oracle out of the benchmark process keeps its memory out of
// peak_rss_mb and its state away from the program's allocator.
//
// Why each workload exists and which layers it loads is recorded in
// perfbench/README.md.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "apps/tricount.hpp"
#include "core/baseline.hpp"
#include "core/tiled_engine.hpp"
#include "core/tuner.hpp"
#include "loadgen.hpp"
#include "matrix/delta.hpp"
#include "serve/serve.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {

/// Seconds of each set-up phase of one set-up repetition.
struct SetupTimes {
  double prepare = 0;
  double bind = 0;
  double tuner_load = 0;
  double place = 0;
  double first_op = 0;
  [[nodiscard]] double total() const {
    return prepare + bind + tuner_load + place + first_op;
  }
};

/// Per-layer values of one traced op, keyed by metric name.
using LayerSample = std::map<std::string, double>;

/// OpenMP threads of every in-process workload (serve workers run 1).
inline constexpr int kOmpThreads = 2;

/// Paths every workload may need.
struct RunConfig {
  std::uint64_t seed = 1;
  std::string tune_profile;  // the committed TUNE_profile.json
  std::string serve_worker;  // the mspgemm-serve binary
  std::string scratch;       // directory for spilled shards
};

inline void set_omp_threads(int n) {
#ifdef _OPENMP
  omp_set_dynamic(0);
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads kept busy during a timed op (checked against nproc).
  [[nodiscard]] virtual int busy_threads() const = 0;
  [[nodiscard]] virtual int workers() const { return 0; }
  /// Set-up repetitions; `setup_s` is the median of their totals.
  [[nodiscard]] virtual int setup_reps() const { return 5; }
  virtual void generate() = 0;
  /// Checksum of the generated inputs that do not depend on the op index.
  [[nodiscard]] virtual std::uint64_t input_checksum() const = 0;
  /// Checksum of op `op`'s own inputs (0 when ops take no per-op input).
  [[nodiscard]] virtual std::uint64_t op_checksum(long op) const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
  /// One set-up repetition, ending with the warm-up op.
  virtual SetupTimes setup() = 0;
  virtual void prepare_op(long op, bool traced) = 0;
  virtual void run_op(Tracer* t) = 0;
  /// Digest of the answer of the last op (after setup(): of its warm-up op).
  [[nodiscard]] virtual std::uint64_t answer() const = 0;
  /// Whether op `op` is checked against the oracle (main.cpp also checks
  /// the last op of a run). Default: every op.
  [[nodiscard]] virtual bool checked(long /*op*/) const { return true; }
  virtual void sample(const Tracer& t, LayerSample& s) = 0;
  /// Tear down (after the timed loop, before the RSS read); false when the
  /// teardown itself failed.
  virtual bool finish() { return true; }
  /// MiB to add to this process's peak RSS (the largest reaped child).
  [[nodiscard]] virtual double child_peak_rss_mb() const { return 0; }

  // Oracle process side: build the reference state from the generated
  // inputs, then answer with the digest of op `op`'s reference answer
  // (`op` = -1: the warm-up op). Ops are asked in increasing order.
  virtual void oracle_init() = 0;
  virtual std::uint64_t oracle_answer(long op) = 0;

 protected:
  explicit Workload(RunConfig cfg) : cfg_(std::move(cfg)) {}
  RunConfig cfg_;
};

// --- per-layer helpers ------------------------------------------------------

inline void put_kernel(const msp::MaskedSpgemmStats& st, LayerSample& s) {
  s["kernel.numeric_s"] = st.numeric_seconds;
  s["kernel.symbolic_s"] = st.symbolic_seconds;
  s["kernel.assemble_s"] = st.assemble_seconds;
  s["kernel.flops"] = static_cast<double>(st.total_flops);
  s["kernel.output_nnz"] = static_cast<double>(st.output_nnz);
  s["kernel.gflops"] =
      st.numeric_seconds > 0
          ? static_cast<double>(st.total_flops) / st.numeric_seconds * 1e-9
          : 0.0;
}

inline double kernel_seconds(const msp::MaskedSpgemmStats& st) {
  return st.symbolic_seconds + st.numeric_seconds + st.assemble_seconds;
}

using CacheStats = msp::ExecutionContext::CacheStats;

/// Plan- and engine-layer counters of one op: the difference of two
/// ExecutionContext counter snapshots.
inline void put_plan(const CacheStats& b, const CacheStats& a,
                     LayerSample& s) {
  auto d = [](std::size_t x, std::size_t y) {
    return static_cast<double>(y - x);
  };
  s["plan.plan_s"] = a.plan_seconds - b.plan_seconds;
  s["plan.hits"] = d(b.plan_hits, a.plan_hits);
  s["plan.misses"] = d(b.plan_misses, a.plan_misses);
  s["plan.partial_refreshes"] =
      d(b.plan_partial_refreshes, a.plan_partial_refreshes);
  s["plan.rows_refreshed"] = d(b.plan_rows_refreshed, a.plan_rows_refreshed);
  s["plan.evictions"] = d(b.plan_evictions, a.plan_evictions);
  s["plan.fingerprints"] =
      d(b.fingerprints_computed, a.fingerprints_computed);
  s["engine.result_splices"] = d(b.result_splices, a.result_splices);
  s["engine.rows_recomputed"] =
      d(b.result_rows_recomputed, a.result_rows_recomputed);
}

inline std::int64_t triangles_of(const Csr& c) {
  return static_cast<std::int64_t>(msp::reduce_sum(c));
}

/// The oracle of tricount and ooc: the planless SS:DOT-style baseline,
/// masked, so its output stays within nnz(L).
inline std::uint64_t baseline_triangles(const Csr& g) {
  const Csr l = msp::tricount_prepare(g).l;
  return static_cast<std::uint64_t>(triangles_of(
      msp::baseline_dot<msp::PlusPair<VT>>(l, l, l, msp::MaskKind::kMask)));
}

/// Digest of a batch of answers (the serve workload's query result).
inline std::uint64_t checksum(const std::vector<Csr>& cs) {
  const std::uint64_t n = cs.size();
  std::uint64_t h = fnv1a(&n, sizeof n);
  for (const Csr& c : cs) h = checksum(c, h);
  return h;
}

// --- tricount ---------------------------------------------------------------

/// Warm triangle counting on one prepared R-MAT graph through a tuned
/// Engine with a bound handle for L: plans hit, symbolic is skipped, the
/// numeric kernels and kAuto routing do the work.
class TricountWorkload : public Workload {
 public:
  static constexpr int kScale = 16;
  static constexpr double kEdgeFactor = 16;

  explicit TricountWorkload(RunConfig cfg) : Workload(std::move(cfg)) {}

  [[nodiscard]] int busy_threads() const override { return kOmpThreads; }
  void generate() override { g_ = make_graph(cfg_.seed, kScale, kEdgeFactor); }
  [[nodiscard]] std::uint64_t input_checksum() const override {
    return checksum(g_);
  }
  [[nodiscard]] std::uint64_t op_checksum(long) const override { return 0; }
  [[nodiscard]] std::string describe() const override {
    return "rmat" + std::to_string(kScale) + " ef" +
           std::to_string(static_cast<int>(kEdgeFactor)) +
           " A nnz=" + std::to_string(g_.nnz()) +
           (st_ ? " L nnz=" + std::to_string(st_->input.l.nnz()) +
                      " flops/op=" + std::to_string(st_->input.flops)
                : "");
  }

  SetupTimes setup() override {
    st_.reset();
    st_ = std::make_unique<State>();
    SetupTimes t;
    msp::Timer tm;
    st_->input = msp::tricount_prepare(g_);
    t.prepare = tm.seconds();
    tm.reset();
    st_->engine = std::make_unique<msp::Engine>();
    st_->engine->tuned(msp::tuner::load_profile(cfg_.tune_profile));
    t.tuner_load = tm.seconds();
    tm.reset();
    st_->l = st_->engine->bind(st_->input.l);
    t.bind = tm.seconds();
    tm.reset();
    // The warm-up op goes through the apps entry point; the timed ops call
    // the two library functions it is made of (see run_op).
    count_ = msp::triangle_count(st_->input, msp::Scheme::kAuto,
                                 *st_->engine, &st_->l)
                 .triangles;
    t.first_op = tm.seconds();
    return t;
  }

  void prepare_op(long, bool) override {
    before_ = st_->engine->cache_stats();
  }

  /// The body of msp::triangle_count's Engine overload, called directly so
  /// the per-call MaskedSpgemmStats (assemble time, output nnz) are visible.
  void run_op(Tracer* t) override {
    const Csr& l = st_->input.l;
    stats_ = {};
    Csr c;
    {
      SpanScope s(t, "engine.multiply_scheme");
      c = st_->engine->multiply_scheme<msp::PlusPair<VT>>(
          msp::Scheme::kAuto, l, l, l, msp::MaskKind::kMask,
          msp::MaskSemantics::kStructural, &stats_, &st_->l, &st_->l,
          &st_->l);
    }
    SpanScope s(t, "ops.reduce_sum");
    count_ = triangles_of(c);
  }

  [[nodiscard]] std::uint64_t answer() const override {
    return static_cast<std::uint64_t>(count_);
  }

  void sample(const Tracer& t, LayerSample& s) override {
    put_kernel(stats_, s);
    put_plan(before_, st_->engine->cache_stats(), s);
    s["engine.self_s"] = t.op_seconds("engine.multiply_scheme") -
                         s["plan.plan_s"] - kernel_seconds(stats_);
  }

  void oracle_init() override { oracle_ = baseline_triangles(g_); }
  std::uint64_t oracle_answer(long) override { return oracle_; }

 private:
  struct State {
    msp::TricountInput<IT, VT> input;
    std::unique_ptr<msp::Engine> engine;
    msp::BoundMatrix<IT, VT> l;
  };
  Csr g_;
  std::unique_ptr<State> st_;
  std::uint64_t oracle_ = 0;
  std::int64_t count_ = -1;
  msp::MaskedSpgemmStats stats_;
  CacheStats before_;
};

// --- ooc --------------------------------------------------------------------

/// The tricount product out of core: L split into nnz-balanced shards in a
/// ShardStore whose resident budget holds half of L, reloads throttled so
/// that the I/O costs about as much as the compute, prefetch on.
class OocWorkload : public Workload {
 public:
  static constexpr int kShards = 8;
  /// Reload bandwidth of the throttled store. An op reloads every shard
  /// (an LRU store half the size of a sequential sweep keeps none), about
  /// 11 MB at scale 16: ~0.17 s of I/O against ~0.15 s of compute.
  static constexpr double kThrottleMiBps = 64;

  explicit OocWorkload(RunConfig cfg) : Workload(std::move(cfg)) {}

  [[nodiscard]] int busy_threads() const override {
    return kOmpThreads + 1;  // + the store's prefetch worker
  }
  void generate() override {
    g_ = make_graph(cfg_.seed, TricountWorkload::kScale,
                    TricountWorkload::kEdgeFactor);
  }
  [[nodiscard]] std::uint64_t input_checksum() const override {
    return checksum(g_);
  }
  [[nodiscard]] std::uint64_t op_checksum(long) const override { return 0; }
  [[nodiscard]] std::string describe() const override {
    return "rmat16 ef16 L split into " + std::to_string(kShards) +
           " nnz-balanced shards, budget " +
           (st_ ? std::to_string(st_->store->resident_budget()) : "?") +
           " B, throttle " + std::to_string(static_cast<int>(kThrottleMiBps)) +
           " MiB/s, prefetch on";
  }

  SetupTimes setup() override {
    st_.reset();
    st_ = std::make_unique<State>();
    SetupTimes t;
    msp::Timer tm;
    st_->input = msp::tricount_prepare(g_);
    t.prepare = tm.seconds();
    tm.reset();
    st_->tiled = std::make_unique<msp::TiledEngine>();
    st_->tiled->engine().tuned(msp::tuner::load_profile(cfg_.tune_profile));
    t.tuner_load = tm.seconds();
    tm.reset();
    const Csr& l = st_->input.l;
    msp::ShardStore::Options so;
    so.resident_budget = (l.rowptr.size() * sizeof(IT) +
                          l.colids.size() * sizeof(IT) +
                          l.values.size() * sizeof(VT)) /
                         2;
    so.scratch_dir = cfg_.scratch;
    so.mmap_reload = true;
    so.throttle_mbps = kThrottleMiBps;
    so.prefetch_workers = 1;
    st_->store = std::make_unique<msp::ShardStore>(so);
    st_->lsh = std::make_unique<msp::ShardedMatrix<IT, VT>>(
        l, msp::ShardedMatrix<IT, VT>::balanced_ranges(l, kShards),
        st_->store.get());
    t.place = tm.seconds();
    tm.reset();
    st_->b = st_->tiled->engine().bind(l);
    t.bind = tm.seconds();
    tm.reset();
    run_op(nullptr);
    t.first_op = tm.seconds();
    return t;
  }

  void prepare_op(long, bool) override {
    before_ = st_->tiled->cache_stats();
    store_before_ = snapshot(*st_->store);
  }

  void run_op(Tracer* t) override {
    const Csr& l = st_->input.l;
    stats_ = {};
    Csr c;
    {
      SpanScope s(t, "tiled.multiply");
      c = st_->tiled->multiply<msp::PlusPair<VT>>(
          msp::Scheme::kAuto, *st_->lsh, l, *st_->lsh, msp::MaskKind::kMask,
          msp::MaskSemantics::kStructural, &stats_, &st_->b);
    }
    SpanScope s(t, "ops.reduce_sum");
    count_ = triangles_of(c);
  }

  [[nodiscard]] std::uint64_t answer() const override {
    return static_cast<std::uint64_t>(count_);
  }

  void sample(const Tracer& t, LayerSample& s) override {
    put_kernel(stats_, s);
    put_plan(before_, st_->tiled->cache_stats(), s);
    const StoreCounters a = snapshot(*st_->store);
    s["shard.spills"] = static_cast<double>(a.spills - store_before_.spills);
    s["shard.reloads"] =
        static_cast<double>(a.reloads - store_before_.reloads);
    s["shard.prefetch_hits"] =
        static_cast<double>(a.prefetch_hits - store_before_.prefetch_hits);
    s["shard.prefetch_wasted"] = static_cast<double>(
        a.prefetch_wasted - store_before_.prefetch_wasted);
    s["shard.prefetch_failed"] = static_cast<double>(
        a.prefetch_failed - store_before_.prefetch_failed);
    s["tiled.self_s"] = t.op_seconds("tiled.multiply") - s["plan.plan_s"] -
                        kernel_seconds(stats_);
  }

  void oracle_init() override { oracle_ = baseline_triangles(g_); }
  std::uint64_t oracle_answer(long) override { return oracle_; }

 private:
  struct StoreCounters {
    std::size_t spills, reloads, prefetch_hits, prefetch_wasted,
        prefetch_failed;
  };
  static StoreCounters snapshot(const msp::ShardStore& st) {
    const msp::ShardStore::Stats& s = st.stats();
    return {s.spills.load(), s.reloads.load(), s.prefetch_hits.load(),
            s.prefetch_wasted.load(), s.prefetch_failed.load()};
  }
  struct State {
    msp::TricountInput<IT, VT> input;
    std::unique_ptr<msp::TiledEngine> tiled;
    std::unique_ptr<msp::ShardStore> store;  // outlives lsh
    std::unique_ptr<msp::ShardedMatrix<IT, VT>> lsh;
    msp::BoundMatrix<IT, VT> b;
  };
  Csr g_;
  std::unique_ptr<State> st_;
  std::uint64_t oracle_ = 0;
  std::int64_t count_ = -1;
  msp::MaskedSpgemmStats stats_;
  CacheStats before_;
  StoreCounters store_before_{};
};

// --- stream -----------------------------------------------------------------

/// Writes beside reads: each op applies one localized burst of edits to a
/// DeltaMatrix through Engine::update, then answers C = M ⊙ (A·B) with
/// MSA-2P incrementally (partial plan refresh + result splice). kAuto is
/// not used: the engine excludes it from the splice.
class StreamWorkload : public Workload {
 public:
  static constexpr int kScale = 16;
  static constexpr double kEdgeFactor = 16;
  /// Edits per op, as a share of the base graph's nnz.
  static constexpr double kBurstShare = 0.001;
  /// Ops verified against a fresh Engine: those with op % kCheckEvery equal
  /// to a seed-derived offset, plus the last op.
  static constexpr long kCheckEvery = 10;

  explicit StreamWorkload(RunConfig cfg) : Workload(std::move(cfg)) {}

  [[nodiscard]] int busy_threads() const override { return kOmpThreads; }
  // Each set-up ends with a full product (~1.2 Gflop): three keep a run short.
  [[nodiscard]] int setup_reps() const override { return 3; }
  void generate() override {
    g_ = shuffle_labels(make_graph(cfg_.seed, kScale, kEdgeFactor), cfg_.seed);
    edits_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(kBurstShare *
                                    static_cast<double>(g_.nnz())));
    warm_batch_ = make_edit_batch(g_, 1, cfg_.seed, -1);
    check_offset_ = static_cast<long>(derive_seed(cfg_.seed, 99) %
                                      static_cast<std::uint64_t>(kCheckEvery));
  }
  [[nodiscard]] std::uint64_t input_checksum() const override {
    return checksum(warm_batch_, checksum(g_));
  }
  [[nodiscard]] std::uint64_t op_checksum(long op) const override {
    return checksum(make_edit_batch(g_, edits_, cfg_.seed, op));
  }
  [[nodiscard]] std::string describe() const override {
    return "rmat16 ef16 (labels shuffled) A nnz=" + std::to_string(g_.nnz()) +
           ", " +
           std::to_string(edits_) + " edits/op, MSA-2P, checked 1 in " +
           std::to_string(kCheckEvery) + " + last";
  }

  SetupTimes setup() override {
    st_.reset();
    st_ = std::make_unique<State>();
    SetupTimes t;
    msp::Timer tm;
    st_->dm = std::make_unique<msp::DeltaMatrix<IT, VT>>(g_);
    st_->engine = std::make_unique<msp::Engine>();
    t.prepare = tm.seconds();
    tm.reset();
    st_->a = st_->engine->bind(st_->dm->matrix());
    st_->b = st_->engine->bind(g_);
    st_->m = st_->engine->bind(g_);
    t.bind = tm.seconds();
    tm.reset();
    // The first update switches A's handle to its dirty-log identity; the
    // first multiply builds the plan and the cached result every later op
    // splices into.
    (void)st_->engine->update(*st_->dm, st_->a,
                              std::span<const Edit>(warm_batch_));
    result_ = multiply(nullptr);
    t.first_op = tm.seconds();
    return t;
  }

  void prepare_op(long op, bool) override {
    batch_ = make_edit_batch(g_, edits_, cfg_.seed, op);
    before_ = st_->engine->cache_stats();
  }

  void run_op(Tracer* t) override {
    {
      SpanScope s(t, "delta.update");
      update_ = st_->engine->update(*st_->dm, st_->a,
                                    std::span<const Edit>(batch_));
    }
    stats_ = {};
    SpanScope s(t, "engine.multiply_scheme");
    result_ = multiply(&stats_);
  }

  [[nodiscard]] std::uint64_t answer() const override {
    return checksum(result_);
  }
  [[nodiscard]] bool checked(long op) const override {
    return op % kCheckEvery == check_offset_;
  }

  void sample(const Tracer& t, LayerSample& s) override {
    put_kernel(stats_, s);
    put_plan(before_, st_->engine->cache_stats(), s);
    s["engine.self_s"] = t.op_seconds("engine.multiply_scheme") -
                         s["plan.plan_s"] - kernel_seconds(stats_);
    s["delta.update_s"] = t.op_seconds("delta.update");
    s["delta.edits"] = static_cast<double>(batch_.size());
    s["delta.touched_ranges"] =
        static_cast<double>(update_.touched_ranges.size());
    s["delta.compactions"] = update_.compacted ? 1.0 : 0.0;
  }

  /// The oracle replays the same edit batches on its own DeltaMatrix and
  /// answers with a from-scratch product on a fresh Engine with raw
  /// operands: the incremental answer must be bit-identical to it.
  void oracle_init() override {
    oracle_dm_ = std::make_unique<msp::DeltaMatrix<IT, VT>>(g_);
    (void)oracle_dm_->apply_updates(std::span<const Edit>(warm_batch_));
  }
  std::uint64_t oracle_answer(long op) override {
    for (; oracle_op_ < op; ++oracle_op_) {
      const std::vector<Edit> b =
          make_edit_batch(g_, edits_, cfg_.seed, oracle_op_ + 1);
      (void)oracle_dm_->apply_updates(std::span<const Edit>(b));
    }
    msp::Engine fresh;
    return checksum(fresh.multiply_scheme<msp::PlusTimes<VT>>(
        msp::Scheme::kMsa2P, oracle_dm_->matrix(), g_, g_,
        msp::MaskKind::kMask));
  }

 private:
  Csr multiply(msp::MaskedSpgemmStats* stats) {
    return st_->engine->multiply_scheme<msp::PlusTimes<VT>>(
        msp::Scheme::kMsa2P, st_->dm->matrix(), g_, g_, msp::MaskKind::kMask,
        msp::MaskSemantics::kStructural, stats, &st_->a, &st_->b, &st_->m);
  }

  struct State {
    std::unique_ptr<msp::DeltaMatrix<IT, VT>> dm;
    std::unique_ptr<msp::Engine> engine;
    msp::BoundMatrix<IT, VT> a, b, m;
  };
  Csr g_;  // the base graph; also B and the mask
  std::size_t edits_ = 1;
  std::vector<Edit> warm_batch_;
  long check_offset_ = 0;
  std::unique_ptr<State> st_;
  std::vector<Edit> batch_;
  msp::DeltaUpdateResult<IT> update_;
  Csr result_;
  msp::MaskedSpgemmStats stats_;
  CacheStats before_;
  std::unique_ptr<msp::DeltaMatrix<IT, VT>> oracle_dm_;
  long oracle_op_ = -1;  // the last op whose batch oracle_dm_ holds
};

// --- serve ------------------------------------------------------------------

/// The process boundary: a Coordinator with two single-threaded worker
/// processes over row blocks of L; each op is one batched query of fresh
/// row-sampled masks, so worker plans miss.
class ServeWorkload : public Workload {
 public:
  static constexpr int kScale = 15;
  static constexpr double kEdgeFactor = 16;
  static constexpr int kWorkers = 2;
  static constexpr int kMasks = 4;
  static constexpr double kKeep = 0.35;

  explicit ServeWorkload(RunConfig cfg) : Workload(std::move(cfg)) {
    qcfg_.scheme = msp::Scheme::kMsa2P;
    qcfg_.semiring = msp::SemiringId::kPlusTimes;
  }

  // Two single-threaded workers plus the coordinator waiting on them.
  [[nodiscard]] int busy_threads() const override { return kWorkers + 1; }
  [[nodiscard]] int workers() const override { return kWorkers; }

  void generate() override {
    g_ = make_graph(cfg_.seed, kScale, kEdgeFactor);
    // Masks are row samples of L, so the generator derives its own copy of
    // L; the program makes its copy again in set-up and lets it go once the
    // blocks are placed.
    l_gen_ = msp::tricount_prepare(g_).l;
    warm_masks_ = make_masks(l_gen_, kMasks, kKeep, cfg_.seed, -1);
  }
  [[nodiscard]] std::uint64_t input_checksum() const override {
    std::uint64_t h = checksum(g_);
    for (const Csr& m : warm_masks_) h = checksum(m, h);
    return h;
  }
  [[nodiscard]] std::uint64_t op_checksum(long op) const override {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Csr& m : make_masks(l_gen_, kMasks, kKeep, cfg_.seed, op)) {
      h = checksum(m, h);
    }
    return h;
  }
  [[nodiscard]] std::string describe() const override {
    return "rmat15 ef16 L nnz=" + std::to_string(l_gen_.nnz()) + ", " +
           std::to_string(kWorkers) + " workers x 1 thread, " +
           std::to_string(kMasks) + " masks/query (row keep " +
           std::to_string(kKeep).substr(0, 4) + "), MSA-2P plus_times";
  }

  SetupTimes setup() override {
    coord_.reset();  // shuts the previous fleet down
    SetupTimes t;
    msp::Timer tm;
    const msp::TricountInput<IT, VT> input = msp::tricount_prepare(g_);
    t.prepare = tm.seconds();
    tm.reset();
    // Workers inherit the environment: one OpenMP thread each.
    ::setenv("OMP_NUM_THREADS", "1", 1);
    msp::serve::Coordinator::Options opt;
    opt.workers = kWorkers;
    opt.worker_cmd = cfg_.serve_worker;
    coord_ = std::make_unique<msp::serve::Coordinator>(opt);
    ranges_ = msp::ShardedMatrix<IT, VT>::balanced_ranges(input.l, kWorkers);
    coord_->place(input.l, input.l, ranges_);
    t.place = tm.seconds();
    tm.reset();
    got_ = coord_->query(pointers(warm_masks_), qcfg_);
    t.first_op = tm.seconds();
    return t;
  }

  void prepare_op(long op, bool traced) override {
    masks_ = make_masks(l_gen_, kMasks, kKeep, cfg_.seed, op);
    before_ = coord_->stats();
    if (traced) worker_before_ = worker_counters();
  }

  void run_op(Tracer* t) override {
    SpanScope s(t, "serve.query");
    got_ = coord_->query(pointers(masks_), qcfg_);
  }

  [[nodiscard]] std::uint64_t answer() const override {
    return checksum(got_);
  }

  void sample(const Tracer& t, LayerSample& s) override {
    const double query = t.op_seconds("serve.query");
    s["serve.query_s"] = query;
    // Replay each worker's block in-process, single-threaded, with the
    // calls the worker makes; the slowest block bounds the query.
    if (replicas_.empty()) make_replicas();
    set_omp_threads(1);
    double slowest = 0;
    double bytes_out = 0;
    double bytes_back = 0;
    msp::DynConfig dyn;
    dyn.semiring = qcfg_.semiring;
    dyn.scheme = qcfg_.scheme;
    for (auto& r : replicas_) {
      msp::Timer tm;
      std::vector<Csr> blocks;
      for (const Csr& m : masks_) {
        const Csr mb = msp::slice_rows(m, r->lo, r->hi);
        bytes_out +=
            static_cast<double>(msp::detail::serialize_shard(mb).size());
        const msp::BoundMatrix<IT, VT> mh(mb);
        blocks.push_back(r->engine.multiply_dyn(r->ah, r->bh, mh, dyn));
      }
      slowest = std::max(slowest, tm.seconds());
      for (const Csr& c : blocks) {
        bytes_back +=
            static_cast<double>(msp::detail::serialize_shard(c).size());
      }
    }
    set_omp_threads(kOmpThreads);
    s["serve.block_compute_s"] = slowest;
    s["serve.overhead_s"] = query - slowest;
    s["serve.bytes_out"] = bytes_out;
    s["serve.bytes_back"] = bytes_back;
    const auto& a = coord_->stats();
    s["serve.masks_routed"] =
        static_cast<double>(a.masks_routed - before_.masks_routed);
    s["serve.stitches"] = static_cast<double>(a.stitches - before_.stitches);
    s["serve.worker_restarts"] =
        static_cast<double>(a.worker_restarts - before_.worker_restarts);
    const WorkerCounters w = worker_counters();
    s["serve.worker_plan_misses"] =
        static_cast<double>(w.plan_misses - worker_before_.plan_misses);
    s["serve.storage_retries"] =
        static_cast<double>(w.retries - worker_before_.retries);
  }

  /// Every worker must acknowledge, exit 0 and leave no socket behind.
  bool finish() override {
    const bool clean = coord_->shutdown();
    coord_.reset();
    return clean;
  }

  [[nodiscard]] double child_peak_rss_mb() const override {
    ::rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

  /// Bit-identity with the single-process TiledEngine over the same ranges.
  void oracle_init() override {
    oracle_lsh_ = std::make_unique<msp::ShardedMatrix<IT, VT>>(
        l_gen_, msp::ShardedMatrix<IT, VT>::balanced_ranges(l_gen_, kWorkers),
        nullptr);
  }
  std::uint64_t oracle_answer(long op) override {
    std::vector<Csr> want;
    for (const Csr& m :
         op < 0 ? warm_masks_
                : make_masks(l_gen_, kMasks, kKeep, cfg_.seed, op)) {
      want.push_back(oracle_.multiply<msp::PlusTimes<VT>>(
          qcfg_.scheme, *oracle_lsh_, l_gen_, m));
    }
    return checksum(want);
  }

 private:
  struct WorkerCounters {
    std::uint64_t plan_misses = 0;
    std::uint64_t retries = 0;
  };
  WorkerCounters worker_counters() {
    WorkerCounters c;
    for (int k = 0; k < kWorkers; ++k) {
      const msp::serve::WorkerStats ws = coord_->worker_stats(k);
      c.plan_misses += ws.plan_misses;
      c.retries += ws.storage_retries;
    }
    return c;
  }
  static std::vector<const Csr*> pointers(const std::vector<Csr>& ms) {
    std::vector<const Csr*> p;
    for (const Csr& m : ms) p.push_back(&m);
    return p;
  }

  /// In-process stand-in for one worker: its row block and its Engine.
  struct Replica {
    IT lo = 0, hi = 0;
    Csr a;
    msp::BoundMatrix<IT, VT> ah, bh;
    msp::Engine engine;
  };
  /// Built on the first traced op only, so untraced runs do not hold them.
  void make_replicas() {
    for (int k = 0; k < kWorkers; ++k) {
      auto r = std::make_unique<Replica>();
      r->lo = ranges_[static_cast<std::size_t>(k)];
      r->hi = ranges_[static_cast<std::size_t>(k) + 1];
      r->a = msp::slice_rows(l_gen_, r->lo, r->hi);
      r->ah = msp::BoundMatrix<IT, VT>(r->a);
      r->bh = msp::BoundMatrix<IT, VT>(l_gen_);
      replicas_.push_back(std::move(r));
    }
  }

  Csr g_;
  Csr l_gen_;
  std::vector<Csr> warm_masks_;
  msp::serve::QueryConfig qcfg_;
  std::vector<IT> ranges_;
  std::unique_ptr<msp::serve::Coordinator> coord_;
  std::vector<Csr> masks_;
  std::vector<Csr> got_;
  msp::serve::Coordinator::Stats before_;
  WorkerCounters worker_before_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  msp::TiledEngine oracle_;
  std::unique_ptr<msp::ShardedMatrix<IT, VT>> oracle_lsh_;
};

inline std::unique_ptr<Workload> make_workload(const std::string& name,
                                               const RunConfig& cfg) {
  if (name == "tricount") return std::make_unique<TricountWorkload>(cfg);
  if (name == "stream") return std::make_unique<StreamWorkload>(cfg);
  if (name == "ooc") return std::make_unique<OocWorkload>(cfg);
  if (name == "serve") return std::make_unique<ServeWorkload>(cfg);
  return nullptr;
}

}  // namespace perfbench
