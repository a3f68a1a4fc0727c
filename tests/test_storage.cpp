// Storage-backend and fault-injection coverage (label: storage).
//
// Three layers:
//  * StorageBackend unit tests — LocalDirBackend / MmapLocalBackend round
//    trips, byte identity between the mmap and streamed read paths,
//    exists/remove semantics, typed io_error on missing blobs;
//  * ShardStore under injected faults (FaultInjectionBackend) — a failed
//    spill or reload surfaces as a typed io_error, leaves resident-bytes
//    accounting and LRU state consistent, and a retry after a transient
//    fault succeeds with a fingerprint-identical payload;
//  * deterministic prefetch semantics — hit/wasted/failed counters behave
//    exactly as the contract in core/shard.hpp promises.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/shard.hpp"
#include "core/storage.hpp"
#include "fault_injection.hpp"
#include "test_support.hpp"

namespace {

using namespace msp;
using msp::testing::csr_equal;
using msp::testing::FaultInjectionBackend;
using msp::testing::random_csr;

/// A scratch directory that exists for the fixture's lifetime.
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    std::random_device rd;
    path = std::filesystem::temp_directory_path() /
           ("mspgemm-storage-test-" + std::to_string(rd()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<std::byte> pattern_blob(std::size_t n) {
  std::vector<std::byte> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }
  return b;
}

// ---------------------------------------------------------------------------
// Backend unit tests
// ---------------------------------------------------------------------------

TEST(StorageBackendTest, LocalDirRoundTrip) {
  TempDir tmp;
  LocalDirBackend be(tmp.path);
  EXPECT_EQ(be.name(), "local-dir");
  EXPECT_FALSE(be.exists("a.bin"));

  const auto blob = pattern_blob(4096 + 13);
  be.write("a.bin", blob.data(), blob.size());
  EXPECT_TRUE(be.exists("a.bin"));

  const ReadBuffer got = be.read("a.bin");
  ASSERT_EQ(got.size(), blob.size());
  EXPECT_EQ(std::memcmp(got.data(), blob.data(), blob.size()), 0);
  EXPECT_FALSE(got.mapped());

  // Overwrite replaces, never appends.
  const auto smaller = pattern_blob(64);
  be.write("a.bin", smaller.data(), smaller.size());
  EXPECT_EQ(be.read("a.bin").size(), smaller.size());

  be.remove("a.bin");
  EXPECT_FALSE(be.exists("a.bin"));
  be.remove("a.bin");  // removing a missing id is silently ignored
  EXPECT_THROW(be.read("a.bin"), io_error);
}

TEST(StorageBackendTest, MmapAndStreamedReadsAreByteIdentical) {
  TempDir tmp;
  MmapLocalBackend mm(tmp.path);
  LocalDirBackend streamed(tmp.path);  // same directory, same blobs
  EXPECT_EQ(mm.name(), "mmap-local");

  const auto blob = pattern_blob(3 * 4096 + 17);  // non-page-aligned tail
  mm.write("b.bin", blob.data(), blob.size());

  const ReadBuffer via_mmap = mm.read("b.bin");
  const ReadBuffer via_stream = streamed.read("b.bin");
  ASSERT_EQ(via_mmap.size(), blob.size());
  ASSERT_EQ(via_stream.size(), blob.size());
  EXPECT_EQ(std::memcmp(via_mmap.data(), via_stream.data(), blob.size()), 0);
#if MSP_HAS_MMAP
  EXPECT_TRUE(via_mmap.mapped());
#endif
  EXPECT_FALSE(via_stream.mapped());
}

TEST(StorageBackendTest, EmptyBlobRoundTripsOnBothBackends) {
  TempDir tmp;
  MmapLocalBackend mm(tmp.path);
  mm.write("empty.bin", nullptr, 0);
  EXPECT_TRUE(mm.exists("empty.bin"));
  // mmap of length 0 is EINVAL; the backend must degrade gracefully.
  EXPECT_EQ(mm.read("empty.bin").size(), 0u);
  LocalDirBackend streamed(tmp.path);
  EXPECT_EQ(streamed.read("empty.bin").size(), 0u);
}

TEST(StorageBackendTest, NonexistentDirectoryIsRejected) {
  TempDir tmp;
  EXPECT_THROW(LocalDirBackend be(tmp.path / "does-not-exist"),
               invalid_argument_error);
}

TEST(StorageBackendTest, FaultInjectionScheduleAndCounters) {
  TempDir tmp;
  auto fb = std::make_shared<FaultInjectionBackend>(
      std::make_shared<LocalDirBackend>(tmp.path));
  const auto blob = pattern_blob(256);

  fb->fail_next_writes(1);
  EXPECT_THROW(fb->write("c.bin", blob.data(), blob.size()), io_error);
  fb->write("c.bin", blob.data(), blob.size());  // schedule exhausted

  fb->fail_next_reads(1);
  EXPECT_THROW(fb->read("c.bin"), io_error);
  EXPECT_EQ(fb->read("c.bin").size(), blob.size());

  fb->truncate_next_read();
  EXPECT_EQ(fb->read("c.bin").size(), blob.size() / 2);

  fb->short_next_write();
  fb->write("d.bin", blob.data(), blob.size());  // silently torn
  EXPECT_EQ(fb->read("d.bin").size(), blob.size() / 2);

  fb->refuse_writes(true);
  EXPECT_THROW(fb->write("e.bin", blob.data(), blob.size()), io_error);
  fb->refuse_writes(false);
  fb->write("e.bin", blob.data(), blob.size());

  EXPECT_EQ(fb->writes(), 5u);  // every attempt counts, including faulted
  EXPECT_EQ(fb->reads(), 4u);
}

// ---------------------------------------------------------------------------
// ShardStore under injected faults
// ---------------------------------------------------------------------------

/// One store over a fault-injection backend, backing a 3-shard split of a
/// fixed random matrix, with per-shard expected payloads for identity
/// checks after fault/retry cycles.
struct FaultedStore {
  TempDir tmp;
  std::shared_ptr<FaultInjectionBackend> fault;
  std::unique_ptr<ShardStore> store;
  CsrMatrix<int, double> source;
  std::unique_ptr<ShardedMatrix<int, double>> sharded;
  std::vector<CsrMatrix<int, double>> expected;

  explicit FaultedStore(
      std::size_t budget = std::numeric_limits<std::size_t>::max()) {
    fault = std::make_shared<FaultInjectionBackend>(
        std::make_shared<LocalDirBackend>(tmp.path));
    ShardStore::Options opt;
    opt.backend = fault;
    opt.resident_budget = budget;
    store = std::make_unique<ShardStore>(opt);
    source = random_csr<int, double>(48, 48, 0.25, 20260807ULL);
    sharded = std::make_unique<ShardedMatrix<int, double>>(source, 3,
                                                           store.get());
    for (int s = 0; s < sharded->shards(); ++s) {
      expected.push_back(
          slice_rows(source, sharded->row_begin(s), sharded->row_end(s)));
    }
  }
};

TEST(ShardStoreFault, WriteRefusalLeavesStoreConsistentAndRetryable) {
  FaultedStore f;
  const std::size_t resident_before = f.store->resident_bytes();
  ASSERT_GT(resident_before, 0u);

  // ENOSPC-style refusal: the spill surfaces a typed io_error and changes
  // nothing — every payload stays resident, accounted, and intact.
  f.fault->refuse_writes(true);
  EXPECT_THROW(f.store->spill_all(), io_error);
  EXPECT_EQ(f.store->resident_bytes(), resident_before);
  for (int s = 0; s < f.sharded->shards(); ++s) {
    EXPECT_TRUE(f.sharded->resident(s));
    const auto held = f.sharded->lease(s);
    EXPECT_TRUE(csr_equal(f.expected[static_cast<std::size_t>(s)],
                          held.matrix()));
  }
  EXPECT_EQ(f.store->stats().spills.load(), 0u);

  // The fault was transient: the retried spill succeeds completely.
  f.fault->refuse_writes(false);
  f.store->spill_all();
  EXPECT_EQ(f.store->resident_bytes(), 0u);
  EXPECT_EQ(f.store->stats().spills.load(),
            static_cast<std::size_t>(f.sharded->shards()));
}

TEST(ShardStoreFault, ReloadFaultIsTypedAndRetrySucceedsIdentically) {
  FaultedStore f;
  const std::uint64_t fp0 = f.sharded->fingerprint(0);
  f.store->spill_all();
  ASSERT_EQ(f.store->resident_bytes(), 0u);

  f.fault->fail_next_reads(1);
  EXPECT_THROW({ auto held = f.sharded->lease(0); }, io_error);
  // The failed pin left no trace: nothing resident, nothing pinned.
  EXPECT_EQ(f.store->resident_bytes(), 0u);
  EXPECT_FALSE(f.sharded->resident(0));

  // Transient fault gone: the retry reloads a fingerprint-identical payload.
  const auto held = f.sharded->lease(0);
  EXPECT_TRUE(csr_equal(f.expected[0], held.matrix()));
  EXPECT_EQ(pattern_fingerprint(held.matrix(), false), fp0);
  EXPECT_EQ(f.sharded->fingerprint(0), fp0);
}

TEST(ShardStoreFault, TruncatedReadIsDetectedAndRetryable) {
  FaultedStore f;
  f.store->spill_all();

  f.fault->truncate_next_read();
  EXPECT_THROW({ auto held = f.sharded->lease(1); }, io_error);
  EXPECT_EQ(f.store->resident_bytes(), 0u);

  const auto held = f.sharded->lease(1);
  EXPECT_TRUE(csr_equal(f.expected[1], held.matrix()));
}

TEST(ShardStoreFault, ShortWriteIsCaughtAtReloadAsTypedError) {
  FaultedStore f;
  // The torn write succeeds silently (the backend failed to detect it), so
  // the spill completes — the corruption must be caught at deserialize
  // time, as a typed io_error, not as garbage data.
  f.fault->short_next_write();
  f.store->spill_all();
  EXPECT_EQ(f.store->resident_bytes(), 0u);

  int failed = 0;
  for (int s = 0; s < f.sharded->shards(); ++s) {
    try {
      const auto held = f.sharded->lease(s);
      EXPECT_TRUE(csr_equal(f.expected[static_cast<std::size_t>(s)],
                            held.matrix()));
    } catch (const io_error&) {
      ++failed;
      EXPECT_FALSE(f.sharded->resident(s));
    }
  }
  EXPECT_EQ(failed, 1);  // exactly the shard behind the torn write
}

TEST(ShardStoreFault, PrefetchSwallowsTransientFaultAndPinRetries) {
  FaultedStore f;
  f.store->spill_all();

  f.fault->fail_next_reads(1);
  f.sharded->prefetch(0);
  f.store->wait_prefetches();

  // The background failure was swallowed: shard stays spilled, counted.
  EXPECT_EQ(f.store->stats().prefetch_failed.load(), 1u);
  EXPECT_FALSE(f.sharded->resident(0));
  EXPECT_EQ(f.store->resident_bytes(), 0u);

  // The next pin retries synchronously and succeeds.
  const auto held = f.sharded->lease(0);
  EXPECT_TRUE(csr_equal(f.expected[0], held.matrix()));
  EXPECT_EQ(f.store->stats().prefetch_hits.load(), 0u);  // sync, not a hit
}

// ---------------------------------------------------------------------------
// Deterministic prefetch semantics
// ---------------------------------------------------------------------------

TEST(ShardStorePrefetch, CompletedPrefetchServesThePinAsAHit) {
  FaultedStore f;  // unlimited budget: prefetched payloads stay resident
  f.store->spill_all();

  f.sharded->prefetch(2);
  f.store->wait_prefetches();
  EXPECT_TRUE(f.sharded->resident(2));
  EXPECT_EQ(f.store->stats().prefetches.load(), 1u);
  EXPECT_EQ(f.store->stats().reloads.load(), 1u);

  const auto held = f.sharded->lease(2);
  EXPECT_TRUE(csr_equal(f.expected[2], held.matrix()));
  EXPECT_EQ(f.store->stats().prefetch_hits.load(), 1u);
  EXPECT_EQ(f.store->stats().prefetch_wasted.load(), 0u);

  // A second lease of the same shard is a plain pin, not another hit.
  const auto again = f.sharded->lease(2);
  EXPECT_EQ(f.store->stats().prefetch_hits.load(), 1u);
}

TEST(ShardStorePrefetch, ResidentAndDuplicatePrefetchesAreNoOps) {
  FaultedStore f;
  // All shards resident: nothing to prefetch.
  f.sharded->prefetch(0);
  f.store->wait_prefetches();
  EXPECT_EQ(f.store->stats().prefetches.load(), 0u);

  f.store->spill_all();
  f.sharded->prefetch(0);
  f.sharded->prefetch(0);  // second call: already loading or resident
  f.store->wait_prefetches();
  EXPECT_LE(f.store->stats().prefetches.load(), 2u);
  EXPECT_GE(f.store->stats().prefetches.load(), 1u);
  EXPECT_TRUE(f.sharded->resident(0));
}

TEST(ShardStorePrefetch, ZeroBudgetPrefetchIsAlwaysWasted) {
  FaultedStore f(/*budget=*/0);
  // Budget 0 spilled everything at registration already.
  EXPECT_EQ(f.store->resident_bytes(), 0u);

  // The contract: the prefetched payload installs unpinned, the budget is
  // re-enforced immediately, and under budget 0 it is evicted on the spot.
  f.sharded->prefetch(1);
  f.store->wait_prefetches();
  EXPECT_FALSE(f.sharded->resident(1));
  EXPECT_EQ(f.store->resident_bytes(), 0u);
  EXPECT_EQ(f.store->stats().prefetch_wasted.load(), 1u);
  EXPECT_EQ(f.store->stats().prefetch_hits.load(), 0u);

  // The payload is still perfectly reloadable afterwards.
  const auto held = f.sharded->lease(1);
  EXPECT_TRUE(csr_equal(f.expected[1], held.matrix()));
}

TEST(ShardStorePrefetch, UnclaimedPrefetchDyingWithItsMatrixCountsWasted) {
  TempDir tmp;
  auto fault = std::make_shared<FaultInjectionBackend>(
      std::make_shared<LocalDirBackend>(tmp.path));
  ShardStore::Options opt;
  opt.backend = fault;
  ShardStore store(opt);
  const auto a = random_csr<int, double>(32, 32, 0.3, 11);
  {
    ShardedMatrix<int, double> sa(a, 2, &store);
    store.spill_all();
    sa.prefetch(0);
    store.wait_prefetches();
    ASSERT_TRUE(sa.resident(0));
    // The sharded matrix dies with the prefetched payload never leased.
  }
  EXPECT_EQ(store.stats().prefetch_wasted.load(), 1u);
  EXPECT_EQ(store.stats().prefetch_hits.load(), 0u);
  EXPECT_EQ(store.resident_bytes(), 0u);
}

TEST(ShardStorePrefetch, CallerBackendBlobsAreCleanedUpOnRemove) {
  TempDir tmp;
  auto fault = std::make_shared<FaultInjectionBackend>(
      std::make_shared<LocalDirBackend>(tmp.path));
  ShardStore::Options opt;
  opt.backend = fault;
  ShardStore store(opt);
  EXPECT_TRUE(store.scratch_dir().empty());  // caller backend: no scratch dir
  const auto a = random_csr<int, double>(32, 32, 0.3, 13);
  {
    ShardedMatrix<int, double> sa(a, 2, &store);
    store.spill_all();
    EXPECT_TRUE(fault->inner().exists("shard-0.bin"));
    EXPECT_TRUE(fault->inner().exists("shard-1.bin"));
  }
  // Unregistration deleted the backend blobs.
  EXPECT_FALSE(fault->inner().exists("shard-0.bin"));
  EXPECT_FALSE(fault->inner().exists("shard-1.bin"));
}

// ---------------------------------------------------------------------------
// RetryBackend: exponential backoff + jitter + retry budget over any inner
// backend (the mspgemm-serve workers' storage seam).
// ---------------------------------------------------------------------------

RetryBackend::Options fast_retry(int max_attempts) {
  RetryBackend::Options opt;
  opt.max_attempts = max_attempts;
  opt.initial_backoff_ms = 0.01;  // measurable but negligible in tests
  opt.max_backoff_ms = 0.1;
  return opt;
}

TEST(RetryBackendTest, TransientReadFaultsWithinBudgetSucceed) {
  TempDir tmp;
  auto fault = std::make_shared<FaultInjectionBackend>(
      std::make_shared<LocalDirBackend>(tmp.path));
  RetryBackend retry(fault, fast_retry(4));
  EXPECT_EQ(retry.name(), "retry(fault-injection(local-dir))");

  const auto blob = pattern_blob(513);
  retry.write("x.bin", blob.data(), blob.size());
  fault->fail_next_reads(2);  // two transient faults, then healthy
  const ReadBuffer got = retry.read("x.bin");
  ASSERT_EQ(got.size(), blob.size());
  EXPECT_EQ(std::memcmp(got.data(), blob.data(), blob.size()), 0);
  EXPECT_EQ(fault->reads(), 3u);  // 2 failed attempts + the success
  EXPECT_EQ(retry.stats().retries.load(), 2u);
  EXPECT_EQ(retry.stats().giveups.load(), 0u);
  EXPECT_GT(retry.stats().backoff_micros.load(), 0u);  // backoff observable
}

TEST(RetryBackendTest, TransientWriteFaultsWithinBudgetSucceed) {
  TempDir tmp;
  auto fault = std::make_shared<FaultInjectionBackend>(
      std::make_shared<LocalDirBackend>(tmp.path));
  RetryBackend retry(fault, fast_retry(3));
  const auto blob = pattern_blob(64);
  fault->fail_next_writes(1);
  retry.write("w.bin", blob.data(), blob.size());
  EXPECT_TRUE(retry.exists("w.bin"));
  EXPECT_EQ(retry.stats().retries.load(), 1u);
}

TEST(RetryBackendTest, ExhaustedBudgetThrowsTypedErrorAndCountsGiveup) {
  TempDir tmp;
  auto fault = std::make_shared<FaultInjectionBackend>(
      std::make_shared<LocalDirBackend>(tmp.path));
  RetryBackend retry(fault, fast_retry(3));
  const auto blob = pattern_blob(64);
  retry.write("x.bin", blob.data(), blob.size());
  fault->fail_next_reads(100);  // faults outlast the 3-attempt budget
  try {
    (void)retry.read("x.bin");
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    // The giveup message carries the op, the id, and the attempt count.
    EXPECT_NE(std::string(e.what()).find("read 'x.bin'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("3 attempt(s)"), std::string::npos);
  }
  EXPECT_EQ(fault->reads(), 3u);  // budget respected, not one read more
  EXPECT_EQ(retry.stats().retries.load(), 2u);
  EXPECT_EQ(retry.stats().giveups.load(), 1u);
}

TEST(RetryBackendTest, FirstAttemptSuccessCostsNoRetries) {
  TempDir tmp;
  RetryBackend retry(std::make_shared<LocalDirBackend>(tmp.path),
                     fast_retry(4));
  const auto blob = pattern_blob(64);
  retry.write("x.bin", blob.data(), blob.size());
  (void)retry.read("x.bin");
  EXPECT_EQ(retry.stats().retries.load(), 0u);
  EXPECT_EQ(retry.stats().backoff_micros.load(), 0u);
}

TEST(RetryBackendTest, NonIoErrorsPropagateWithoutRetry) {
  TempDir tmp;
  auto fault = std::make_shared<FaultInjectionBackend>(
      std::make_shared<LocalDirBackend>(tmp.path));
  RetryBackend retry(fault, fast_retry(4));
  // A missing blob throws io_error from LocalDirBackend and IS retried —
  // but the budget still bounds it.
  EXPECT_THROW((void)retry.read("never-written.bin"), io_error);
  EXPECT_EQ(fault->reads(), 4u);
  // remove/exists are pass-throughs (not idempotent-retry candidates).
  const auto blob = pattern_blob(8);
  retry.write("y.bin", blob.data(), blob.size());
  retry.remove("y.bin");
  EXPECT_FALSE(retry.exists("y.bin"));
}

TEST(RetryBackendTest, InvalidOptionsAreRejected) {
  TempDir tmp;
  auto local = std::make_shared<LocalDirBackend>(tmp.path);
  RetryBackend::Options bad;
  bad.max_attempts = 0;
  EXPECT_THROW(RetryBackend(local, bad), invalid_argument_error);
  bad = {};
  bad.multiplier = 0.5;
  EXPECT_THROW(RetryBackend(local, bad), invalid_argument_error);
  bad = {};
  bad.jitter = 1.5;
  EXPECT_THROW(RetryBackend(local, bad), invalid_argument_error);
  bad = {};
  bad.initial_backoff_ms = -1.0;
  EXPECT_THROW(RetryBackend(local, bad), invalid_argument_error);
}

TEST(RetryBackendTest, ShardStoreSpillReloadThroughRetrySeam) {
  TempDir tmp;
  auto fault = std::make_shared<FaultInjectionBackend>(
      std::make_shared<LocalDirBackend>(tmp.path));
  auto retry = std::make_shared<RetryBackend>(fault, fast_retry(4));
  ShardStore::Options opt;
  opt.backend = retry;
  ShardStore store(opt);
  const auto a = random_csr<int, double>(48, 48, 0.25, 21);
  ShardedMatrix<int, double> sa(a, 2, &store);
  store.spill_all();
  fault->fail_next_reads(2);  // reload absorbs transient faults invisibly
  {
    const auto lease = sa.lease(0);
    EXPECT_TRUE(csr_equal(slice_rows(a, 0, 24), *lease));
  }
  EXPECT_GE(retry->stats().retries.load(), 2u);
  EXPECT_EQ(retry->stats().giveups.load(), 0u);
}

// ---------------------------------------------------------------------------
// Regression: read_streamed's size probe. tellg() reports failure as -1;
// the old code cast it straight to size_t and died in bad_alloc on a
// ~2^64-byte vector instead of the backend contract's typed io_error.
// ---------------------------------------------------------------------------

TEST(StorageRegression, UnsizableStreamIsTypedErrorNotBadAlloc) {
  // A stream in a failed state: tellg() returns pos_type(-1).
  std::istringstream in("payload");
  in.setstate(std::ios::failbit);
  EXPECT_THROW((void)detail::stream_size_or_throw(in, "probe"),
               io_error);
  try {
    (void)detail::stream_size_or_throw(in, "probe");
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot determine stream size"),
              std::string::npos);
  }
  // A healthy stream still sizes correctly.
  std::istringstream ok("12345");
  ok.seekg(0, std::ios::end);
  EXPECT_EQ(detail::stream_size_or_throw(ok, "probe"), 5u);
}

// ---------------------------------------------------------------------------
// Regression: deserialize_shard's header arithmetic. Disk reloads and both
// ends of the serve wire decode through it. The counts used to be
// multiplied into byte sizes unchecked (nnz = 2^62 wraps nnz * 8 to 0, so
// the truncation check passed and the vector constructor threw
// length_error) and narrowed to IT unchecked (ncols = 2^40 became 0).
// ---------------------------------------------------------------------------

// A well-formed header with the given counts, followed by `payload` zero
// bytes.
template <class IT, class VT>
std::vector<std::byte> crafted_shard_blob(std::int64_t nrows,
                                          std::int64_t ncols,
                                          std::uint64_t nnz,
                                          std::size_t payload) {
  detail::ShardFileHeader h;
  h.it_bytes = sizeof(IT);
  h.vt_bytes = sizeof(VT);
  h.nrows = nrows;
  h.ncols = ncols;
  h.nnz = nnz;
  std::vector<std::byte> blob(sizeof(h) + payload);
  std::memcpy(blob.data(), &h, sizeof(h));
  return blob;
}

template <class IT>
void expect_shard_decode_io_error(const std::vector<std::byte>& blob) {
  EXPECT_THROW((void)(detail::deserialize_shard<IT, double>(
                   blob.data(), blob.size(), "crafted")),
               io_error);
}

TEST(StorageRegression, CraftedShardNnzThatWrapsByteSizesIsTypedError) {
  // nnz * sizeof(IT) and nnz * sizeof(VT) both wrap to 0.
  expect_shard_decode_io_error<std::int64_t>(
      crafted_shard_blob<std::int64_t, double>(0, 4, std::uint64_t{1} << 62,
                                               sizeof(std::int64_t)));
  expect_shard_decode_io_error<int>(
      crafted_shard_blob<int, double>(0, 4, std::uint64_t{1} << 62,
                                      sizeof(int)));
}

TEST(StorageRegression, CraftedShardNrowsThatWrapsRowptrSizeIsTypedError) {
  // (nrows + 1) * sizeof(IT) wraps to 0.
  expect_shard_decode_io_error<std::int64_t>(
      crafted_shard_blob<std::int64_t, double>(
          std::numeric_limits<std::int64_t>::max(), 4, 0,
          sizeof(std::int64_t)));
}

TEST(StorageRegression, CraftedShardShapeBeyondIndexTypeIsTypedError) {
  // Sized correctly for an empty 0-row matrix, but ncols does not fit a
  // 32-bit index.
  expect_shard_decode_io_error<int>(crafted_shard_blob<int, double>(
      0, std::int64_t{1} << 40, 0, sizeof(int)));
  expect_shard_decode_io_error<int>(crafted_shard_blob<int, double>(
      std::int64_t{1} << 32, 4, 0, sizeof(int)));
  // The same shape with a fitting index type still decodes.
  const auto ok = crafted_shard_blob<std::int64_t, double>(
      0, std::int64_t{1} << 40, 0, sizeof(std::int64_t));
  const auto m =
      detail::deserialize_shard<std::int64_t, double>(ok.data(), ok.size(),
                                                      "crafted");
  EXPECT_EQ(m.ncols, std::int64_t{1} << 40);
}

// ---------------------------------------------------------------------------
// Iso-valued shard blobs: when every value is bitwise equal to the first,
// the blob stores that value once (header flag kShardIsoValues). Any other
// shard keeps its full value array, and both decode bit-identically.
// ---------------------------------------------------------------------------

using IsoCsr = CsrMatrix<int, double>;

/// Header + rowptr + colids + `values` stored values.
std::size_t shard_blob_size(const IsoCsr& m, std::size_t values) {
  return sizeof(detail::ShardFileHeader) + m.rowptr.size() * sizeof(int) +
         m.colids.size() * sizeof(int) + values * sizeof(double);
}

/// Serialize, decode, and require every stored bit back — values compared
/// with memcmp, so -0.0 and NaN payloads count.
void round_trip_bitwise(const IsoCsr& m) {
  const std::vector<std::byte> blob = detail::serialize_shard(m);
  const IsoCsr back = detail::deserialize_shard<int, double>(
      blob.data(), blob.size(), "iso");
  EXPECT_EQ(back.nrows, m.nrows);
  EXPECT_EQ(back.ncols, m.ncols);
  EXPECT_EQ(back.rowptr, m.rowptr);
  EXPECT_EQ(back.colids, m.colids);
  EXPECT_EQ(back.values.size(), m.values.size());
  if (back.values.size() == m.values.size() && !m.values.empty()) {
    EXPECT_EQ(std::memcmp(back.values.data(), m.values.data(),
                          m.values.size() * sizeof(double)),
              0);
  }
}

double nan_with_payload(std::uint64_t payload) {
  const std::uint64_t bits = 0x7ff8000000000000ULL | payload;
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::uint64_t blob_flags(const std::vector<std::byte>& blob) {
  detail::ShardFileHeader h;
  std::memcpy(&h, blob.data(), sizeof(h));
  return h.flags;
}

TEST(ShardBlob, IsoValuedShardStoresOneValue) {
  IsoCsr m = random_csr<int, double>(40, 30, 0.3, 1201);
  ASSERT_GT(m.nnz(), 1);
  std::fill(m.values.begin(), m.values.end(), 1.0);
  const std::vector<std::byte> blob = detail::serialize_shard(m);
  EXPECT_EQ(blob.size(), shard_blob_size(m, 1));
  EXPECT_EQ(blob_flags(blob), detail::kShardIsoValues);
  round_trip_bitwise(m);
}

TEST(ShardBlob, NonIsoValuesKeepTheFullArray) {
  const IsoCsr base = random_csr<int, double>(40, 30, 0.3, 1202);
  ASSERT_GT(base.nnz(), 2);
  const auto expect_full = [](const IsoCsr& m, const char* what) {
    SCOPED_TRACE(what);
    const std::vector<std::byte> blob = detail::serialize_shard(m);
    EXPECT_EQ(blob.size(), shard_blob_size(m, m.values.size()));
    EXPECT_EQ(blob_flags(blob), 0u);
    round_trip_bitwise(m);
  };

  IsoCsr one_differs = base;
  std::fill(one_differs.values.begin(), one_differs.values.end(), 1.0);
  one_differs.values.back() = 2.0;
  expect_full(one_differs, "a single differing value");

  // +0.0 == -0.0, but the bits differ and must survive.
  IsoCsr signed_zero = base;
  std::fill(signed_zero.values.begin(), signed_zero.values.end(), 0.0);
  signed_zero.values[1] = -0.0;
  expect_full(signed_zero, "+0.0 next to -0.0");

  // Two NaNs with different payloads: unequal bits, never merged.
  IsoCsr nans = base;
  std::fill(nans.values.begin(), nans.values.end(), nan_with_payload(1));
  nans.values[1] = nan_with_payload(2);
  expect_full(nans, "two NaN payloads");

  // One NaN payload throughout is iso (memcmp-equal, although NaN != NaN).
  IsoCsr iso_nan = base;
  std::fill(iso_nan.values.begin(), iso_nan.values.end(), nan_with_payload(7));
  EXPECT_EQ(detail::serialize_shard(iso_nan).size(),
            shard_blob_size(iso_nan, 1));
  round_trip_bitwise(iso_nan);
}

TEST(ShardBlob, EmptyAndOneEntryShards) {
  const IsoCsr empty(5, 7);
  const std::vector<std::byte> eblob = detail::serialize_shard(empty);
  EXPECT_EQ(eblob.size(), shard_blob_size(empty, 0));
  EXPECT_EQ(blob_flags(eblob), 0u);  // iso needs a value to store
  round_trip_bitwise(empty);
  round_trip_bitwise(IsoCsr(0, 0));

  const IsoCsr one(3, 4, {0, 0, 1, 1}, {2}, {-0.0});
  const std::vector<std::byte> oblob = detail::serialize_shard(one);
  EXPECT_EQ(oblob.size(), shard_blob_size(one, 1));
  EXPECT_EQ(blob_flags(oblob), detail::kShardIsoValues);
  round_trip_bitwise(one);
}

TEST(ShardBlob, CraftedFlagsAreTypedErrors) {
  IsoCsr m = random_csr<int, double>(12, 12, 0.4, 1203);
  ASSERT_GT(m.nnz(), 0);
  std::fill(m.values.begin(), m.values.end(), 1.0);
  const std::vector<std::byte> iso = detail::serialize_shard(m);
  ASSERT_EQ(blob_flags(iso), detail::kShardIsoValues);
  const auto with_flags = [](std::vector<std::byte> blob, std::uint64_t f) {
    detail::ShardFileHeader h;
    std::memcpy(&h, blob.data(), sizeof(h));
    h.flags = f;
    std::memcpy(blob.data(), &h, sizeof(h));
    return blob;
  };

  // Unknown flag bits, alone or beside the iso bit.
  expect_shard_decode_io_error<int>(with_flags(iso, 2));
  expect_shard_decode_io_error<int>(
      with_flags(iso, detail::kShardIsoValues | (std::uint64_t{1} << 63)));
  // Iso with nnz == 0: there is no value to replicate.
  auto empty_iso = crafted_shard_blob<int, double>(2, 4, 0,
                                                   3 * sizeof(int) +
                                                       sizeof(double));
  expect_shard_decode_io_error<int>(
      with_flags(std::move(empty_iso), detail::kShardIsoValues));
  // An iso payload one byte short of its single value.
  std::vector<std::byte> short_iso = iso;
  short_iso.pop_back();
  expect_shard_decode_io_error<int>(short_iso);
  // The iso bit set on a blob that stores every value (a flipped bit):
  // decoding it would replicate the first value over all the others.
  std::vector<double> ramp(m.values.size());
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = double(i);
  const IsoCsr full_m(m.nrows, m.ncols, m.rowptr, m.colids, ramp);
  const std::vector<std::byte> full = detail::serialize_shard(full_m);
  ASSERT_EQ(blob_flags(full), 0u);
  expect_shard_decode_io_error<int>(with_flags(full, detail::kShardIsoValues));
  // Trailing bytes after the values, on either layout.
  for (std::vector<std::byte> longer : {iso, full}) {
    longer.push_back(std::byte{0});
    expect_shard_decode_io_error<int>(longer);
  }
  // The untouched blobs still decode.
  EXPECT_NO_THROW((void)(detail::deserialize_shard<int, double>(
      iso.data(), iso.size(), "crafted")));
  EXPECT_NO_THROW((void)(detail::deserialize_shard<int, double>(
      full.data(), full.size(), "crafted")));
}

}  // namespace
