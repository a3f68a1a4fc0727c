// perfbench — the repository benchmark binary (run it through
// perfbench/run.py, which builds this binary and the serve worker).
//
//   perfbench --workload tricount|stream|ooc|serve --seed N --seconds S
//             --trace 0|1 --tune-profile PATH --serve-worker PATH
//             --scratch DIR [--gen-only | --oracle]
//
// One run: start the oracle process, generate the seeded inputs, set the
// program up several times (Workload::setup_reps; the last set-up serves the
// loop), then run ops in a closed loop — one client, the next op starts when
// the previous one returned — until S seconds of op time have elapsed. Every
// checked op's answer is compared with the oracle's outside the timed region.
// The last stdout line is the JSON result: end-to-end metrics with --trace 0;
// per-layer metrics with --trace 1, where every other op is traced and the
// rest give the untraced reference for trace.overhead_frac.
//
// --oracle runs the oracle side: generate the same inputs, build the
// reference state, print "ready", then answer each op index read from stdin
// with the hex digest of its reference answer. The benchmark process starts
// it (this binary again) so that no reference computation shares its memory.
//
// --gen-only prints the input checksum and the checksums of the first ops'
// inputs and exits (perfbench/selftest.py compares them across seeds).
#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::LayerSample;
using perfbench::SetupTimes;

constexpr long kMinOps = 20;       // op_s_tail needs > 10 samples
constexpr double kWallGuard = 150;  // seconds; the run must end within 180
constexpr long kGenOnlyOps = 32;
#if defined(__clang__)
constexpr const char* kCompiler = "clang";
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc";
#else
constexpr const char* kCompiler = "c++";
#endif

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, printed on every workload (0 where the layer does
// not run). Seconds are medians over traced ops (set-up phases: over set-up
// repetitions); counts and bytes are means per traced op.
constexpr MetricDef kPerLayer[] = {
    {"kernel.numeric_s", "s"},        {"kernel.symbolic_s", "s"},
    {"kernel.assemble_s", "s"},       {"kernel.flops", "count"},
    {"kernel.output_nnz", "count"},   {"kernel.gflops", "GFLOP/s"},
    {"plan.plan_s", "s"},             {"plan.hits", "count"},
    {"plan.misses", "count"},         {"plan.partial_refreshes", "count"},
    {"plan.rows_refreshed", "count"}, {"plan.evictions", "count"},
    {"plan.fingerprints", "count"},   {"engine.self_s", "s"},
    {"engine.result_splices", "count"}, {"engine.rows_recomputed", "count"},
    {"delta.update_s", "s"},          {"delta.edits", "count"},
    {"delta.touched_ranges", "count"}, {"delta.compactions", "count"},
    {"tiled.self_s", "s"},            {"shard.spills", "count"},
    {"shard.reloads", "count"},       {"shard.prefetch_hits", "count"},
    {"shard.prefetch_wasted", "count"}, {"shard.prefetch_failed", "count"},
    {"serve.query_s", "s"},           {"serve.block_compute_s", "s"},
    {"serve.overhead_s", "s"},        {"serve.bytes_out", "B"},
    {"serve.bytes_back", "B"},        {"serve.masks_routed", "count"},
    {"serve.stitches", "count"},      {"serve.worker_restarts", "count"},
    {"serve.worker_plan_misses", "count"}, {"serve.storage_retries", "count"},
    {"setup.generate_s", "s"},        {"setup.prepare_s", "s"},
    {"setup.bind_s", "s"},            {"setup.tuner_load_s", "s"},
    {"setup.place_s", "s"},           {"setup.first_op_s", "s"},
    {"trace.overhead_frac", "ratio"}, {"trace.residual_s", "s"},
    {"trace.ops_traced", "count"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

struct Args {
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  std::string tune_profile;
  std::string serve_worker;
  std::string scratch;
  bool gen_only = false;
  bool oracle = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --tune-profile PATH --serve-worker "
               "PATH --scratch DIR [--gen-only | --oracle]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--gen-only" || k == "--oracle") {
      (k == "--oracle" ? a.oracle : a.gen_only) = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::atoll(v);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--tune-profile") a.tune_profile = v;
    else if (k == "--serve-worker") a.serve_worker = v;
    else if (k == "--scratch") a.scratch = v;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.workload.empty() || a.seed < 0) usage("--workload and --seed needed");
  const bool timed = !a.gen_only && !a.oracle;
  if (timed && (a.seconds <= 0 || (a.trace != 0 && a.trace != 1))) {
    usage("--seconds > 0 and --trace 0|1 needed");
  }
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void put_metric(std::string& out, bool& first, const char* name, double v,
                const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name, v, unit);
  out += buf;
  first = false;
}

// --- peak RSS of the program ------------------------------------------------

/// Return freed heap pages to the kernel and restart the process's RSS
/// high-water mark from the current RSS, so the peak read at the end covers
/// the program from this point on and not the input generation before it.
void restart_peak_rss() {
  ::malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr || std::fputs("5", f) < 0 || std::fclose(f) != 0) {
    throw std::runtime_error("cannot reset the RSS high-water mark through "
                             "/proc/self/clear_refs");
  }
}

/// The process's RSS high-water mark (VmHWM) in MiB.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

// --- oracle process -----------------------------------------------------------

/// This binary started again with --oracle; asked op by op over two pipes.
class OracleProcess {
 public:
  explicit OracleProcess(const Args& a) {
    int in[2];   // benchmark -> oracle
    int out[2];  // oracle -> benchmark
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    std::vector<std::string> args = {
        "perfbench", "--oracle", "--workload", a.workload, "--seed",
        std::to_string(a.seed), "--tune-profile", a.tune_profile,
        "--serve-worker", a.serve_worker, "--scratch", a.scratch};
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    const int rc = ::posix_spawn(&pid_, "/proc/self/exe", &fa, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) pid_ = -1;
    ::close(in[0]);
    ::close(out[1]);
    to_ = ::fdopen(in[1], "w");
    from_ = ::fdopen(out[0], "r");
    if (rc != 0 || to_ == nullptr || from_ == nullptr) {
      throw std::runtime_error("cannot start the oracle process");
    }
  }
  OracleProcess(const OracleProcess&) = delete;
  OracleProcess& operator=(const OracleProcess&) = delete;
  ~OracleProcess() { (void)close(); }

  /// Block until the oracle has built its reference state, so that none of
  /// its work overlaps the program's set-up.
  void wait_ready() {
    if (read_line() != "ready") {
      throw std::runtime_error("oracle process did not start");
    }
  }

  std::uint64_t ask(long op) {
    if (std::fprintf(to_, "%ld\n", op) < 0 || std::fflush(to_) != 0) {
      throw std::runtime_error("oracle process is gone");
    }
    return std::strtoull(read_line().c_str(), nullptr, 16);
  }

  /// End the oracle and reap it; true when it exited with code 0.
  bool close() {
    if (pid_ <= 0) return status_ok_;
    if (to_ != nullptr) std::fclose(to_);
    if (from_ != nullptr) std::fclose(from_);
    to_ = from_ = nullptr;
    int st = 0;
    while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    status_ok_ = WIFEXITED(st) && WEXITSTATUS(st) == 0;
    return status_ok_;
  }

 private:
  std::string read_line() {
    char buf[64];
    if (std::fgets(buf, sizeof buf, from_) == nullptr) {
      throw std::runtime_error("oracle process ended early");
    }
    std::string s = buf;
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    return s;
  }

  pid_t pid_ = -1;
  std::FILE* to_ = nullptr;
  std::FILE* from_ = nullptr;
  bool status_ok_ = false;
};

/// The --oracle side: answer op indices from stdin until it closes.
int run_oracle(perfbench::Workload& wl) {
  // The benchmark process waits while the oracle computes.
  perfbench::set_omp_threads(perfbench::kOmpThreads + 1);
  wl.generate();
  wl.oracle_init();
  std::printf("ready\n");
  std::fflush(stdout);
  char line[64];
  while (std::fgets(line, sizeof line, stdin) != nullptr) {
    const std::uint64_t d = wl.oracle_answer(std::atol(line));
    std::printf("%016llx\n", static_cast<unsigned long long>(d));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now_s();
  const Args args = parse(argc, argv);

  // No tuning profile may leak in from the environment.
  ::unsetenv("MSP_TUNE_PROFILE");
  // A dead oracle or worker shows up as a failed write, not as a signal.
  ::signal(SIGPIPE, SIG_IGN);

  perfbench::RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.seed);
  cfg.tune_profile = args.tune_profile;
  cfg.serve_worker = args.serve_worker;
  cfg.scratch = args.scratch;
  auto wl = perfbench::make_workload(args.workload, cfg);
  if (!wl) usage(("unknown workload " + args.workload).c_str());

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (wl->busy_threads() > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d busy threads but nproc is %ld\n",
                 args.workload.c_str(), wl->busy_threads(), nproc);
    return 3;
  }

  try {
    if (args.oracle) return run_oracle(*wl);
    perfbench::set_omp_threads(perfbench::kOmpThreads);
    std::unique_ptr<OracleProcess> oracle;
    if (!args.gen_only) oracle = std::make_unique<OracleProcess>(args);

    double t0 = now_s();
    wl->generate();
    const double generate_s = now_s() - t0;
    std::uint64_t ops_sum = 0xcbf29ce484222325ULL;
    for (long op = 0; op < kGenOnlyOps; ++op) {
      const std::uint64_t c = wl->op_checksum(op);
      ops_sum = perfbench::fnv1a(&c, sizeof c, ops_sum);
      if (args.gen_only) {
        std::printf("op %ld %016llx\n", op, static_cast<unsigned long long>(c));
      }
    }
    std::printf("# perfbench workload=%s seed=%lld nproc=%ld omp_threads=%d "
                "workers=%d busy_threads=%d compiler=\"%s %s\" build=%s\n",
                args.workload.c_str(), args.seed, nproc,
                perfbench::kOmpThreads, wl->workers(), wl->busy_threads(),
                kCompiler, __VERSION__, PERFBENCH_BUILD_TYPE);
    std::printf("# inputs checksum=%016llx ops[0..%ld) checksum=%016llx "
                "generate_s=%.3f\n",
                static_cast<unsigned long long>(wl->input_checksum()),
                kGenOnlyOps, static_cast<unsigned long long>(ops_sum),
                generate_s);
    if (args.gen_only) return 0;

    oracle->wait_ready();
    restart_peak_rss();
    std::vector<SetupTimes> setups;
    std::vector<std::uint64_t> warm_answers;
    for (int r = 0; r < wl->setup_reps(); ++r) {
      setups.push_back(wl->setup());
      warm_answers.push_back(wl->answer());
    }
    const std::uint64_t warm_want = oracle->ask(-1);
    const auto setup_bad = std::count_if(
        warm_answers.begin(), warm_answers.end(),
        [&](std::uint64_t d) { return d != warm_want; });
    std::printf("# %s\n", wl->describe().c_str());

    perfbench::Tracer tracer;
    std::vector<double> lat;       // every op (trace 0) / untraced ops
    std::vector<double> lat_traced;
    std::vector<LayerSample> samples;
    long attempted = 0;
    long failed = 0;
    long last_checked = -1;
    double timed = 0;
    std::string first_error;
    bool last_ok = true;
    while ((timed < args.seconds || attempted < kMinOps) &&
           now_s() - t_start < kWallGuard) {
      const long op = attempted;
      const bool traced = args.trace == 1 && op % 2 == 1;
      perfbench::Tracer* tp = traced ? &tracer : nullptr;
      wl->prepare_op(op, traced);
      if (traced) tracer.begin_op(static_cast<int>(op));
      bool ok = true;
      t0 = now_s();
      try {
        perfbench::SpanScope root(tp, "op");
        wl->run_op(tp);
      } catch (const std::exception& e) {
        ok = false;
        if (first_error.empty()) first_error = e.what();
      }
      const double dt = now_s() - t0;
      timed += dt;
      ++attempted;
      (traced ? lat_traced : lat).push_back(dt);
      if (ok && wl->checked(op)) {
        ok = wl->answer() == oracle->ask(op);
        last_checked = op;
      }
      if (!ok) ++failed;
      last_ok = ok;
      if (traced && ok) {
        LayerSample s;
        wl->sample(tracer, s);
        s["trace.residual_s"] = tracer.op_root_self_seconds();
        samples.push_back(std::move(s));
      }
    }
    // The last op is always checked.
    const long last = attempted - 1;
    if (last >= 0 && last_ok && last_checked != last &&
        wl->answer() != oracle->ask(last)) {
      ++failed;
    }
    const bool clean_finish = wl->finish();
    if (!first_error.empty()) {
      std::fprintf(stderr, "perfbench: first op error: %s\n",
                   first_error.c_str());
    }

    // Read before the oracle is reaped: for serve, the children's peak must
    // be the largest worker's.
    const double peak_rss_mb = peak_rss_mib() + wl->child_peak_rss_mb();
    const bool oracle_clean = oracle->close();
    std::vector<double> totals;
    for (const SetupTimes& s : setups) totals.push_back(s.total());

    std::string out;
    bool first = true;
    if (args.trace == 0) {
      std::vector<double> sorted = lat;
      std::sort(sorted.begin(), sorted.end());
      const std::size_t n = sorted.size();
      // The highest percentile with at least ten samples beyond it.
      const std::size_t ti = n > 10 ? n - 11 : n - 1;
      std::printf("# ops=%zu op_time_s=%.3f op_s_tail=p%.1f (%zu of %zu "
                  "ops beyond it) setup reps=%d failed=%ld setup_failures=%ld "
                  "clean_finish=%d oracle_clean=%d\n",
                  n, timed, 100.0 * static_cast<double>(ti + 1) /
                                static_cast<double>(n),
                  n - ti - 1, n, wl->setup_reps(), failed,
                  static_cast<long>(setup_bad), clean_finish ? 1 : 0,
                  oracle_clean ? 1 : 0);
      // Ops completed (answered and not failed) per second of op time.
      put_metric(out, first, "ops_per_s",
                 static_cast<double>(attempted - failed) / timed, "1/s");
      put_metric(out, first, "op_s_p50", median(lat), "s");
      put_metric(out, first, "op_s_tail", sorted[ti], "s");
      put_metric(out, first, "setup_s", median(totals), "s");
      put_metric(out, first, "peak_rss_mb", peak_rss_mb, "MiB");
    } else {
      auto setup_median = [&](double SetupTimes::*f) {
        std::vector<double> v;
        for (const SetupTimes& s : setups) v.push_back(s.*f);
        return median(v);
      };
      const std::pair<const char*, double SetupTimes::*> setup_phases[] = {
          {"setup.prepare_s", &SetupTimes::prepare},
          {"setup.bind_s", &SetupTimes::bind},
          {"setup.tuner_load_s", &SetupTimes::tuner_load},
          {"setup.place_s", &SetupTimes::place},
          {"setup.first_op_s", &SetupTimes::first_op},
      };
      LayerSample run_values;
      for (const auto& [name, field] : setup_phases) {
        run_values[name] = setup_median(field);
      }
      run_values["setup.generate_s"] = generate_s;
      run_values["trace.ops_traced"] = static_cast<double>(samples.size());
      run_values["trace.overhead_frac"] =
          lat.empty() || lat_traced.empty()
              ? 0.0
              : median(lat_traced) / median(lat) - 1.0;
      for (const MetricDef& m : kPerLayer) {
        double v = 0;
        if (const auto it = run_values.find(m.name); it != run_values.end()) {
          v = it->second;
        } else {
          std::vector<double> xs;
          for (const LayerSample& s : samples) {
            const auto f = s.find(m.name);
            xs.push_back(f == s.end() ? 0.0 : f->second);
          }
          const std::string unit = m.unit;
          v = unit == "s" || unit == "GFLOP/s" ? median(xs) : mean(xs);
        }
        put_metric(out, first, m.name, v, m.unit);
      }
      const std::string path = args.scratch + "/trace-" + args.workload +
                               "-" + std::to_string(args.seed) + ".jsonl";
      tracer.write(path);
      std::printf("# %zu spans written to %s\n", tracer.size(), path.c_str());
    }
    const bool correct =
        failed == 0 && setup_bad == 0 && clean_finish && oracle_clean;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed,
                out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
