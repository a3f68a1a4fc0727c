// Row-shard decomposition of CSR operands — the out-of-core base layer of
// the scale-out ROADMAP item.
//
// A `ShardedMatrix<IT, VT>` splits one CSR operand into K contiguous
// row-block shards, each a self-contained CsrMatrix (the block's rows over
// the full column space) carrying its own pattern fingerprint, computed
// once at split time. Because every masked-SpGEMM kernel in this library is
// row-wise, the masked product of a row block against an unsharded B is
// exactly the corresponding row block of the monolithic product — so the
// tiled driver (core/tiled_engine.hpp) can execute shard-by-shard and
// stitch the per-shard CSRs back together bit-identically.
//
// A `ShardStore` optionally backs one or more sharded matrices with
// spill-to-storage: shards are serialized through a pluggable
// `StorageBackend` (core/storage.hpp; a local scratch directory by
// default, mmap reloads unless disabled) the first time they are evicted
// and reloaded on demand, under a configurable resident-bytes budget.
// The contract:
//
//  * shards a caller currently holds a `ShardLease` on are pinned and
//    never evicted — the budget is enforced over the *unpinned* resident
//    set, so it can be transiently exceeded while a multiply needs its
//    active operand and mask shards in memory;
//  * eviction is least-recently-used and happens eagerly: whenever a pin,
//    unpin, or completed prefetch leaves the unpinned resident set over
//    budget, LRU shards are spilled until it fits (budget 0 therefore
//    keeps only pinned shards resident). Recency is set by pins and by
//    completed prefetches. A tiled multiply visits the shards whose
//    operand and mask blocks are both resident before the others, so once
//    it starts reloading, the least recently used shards are ones it has
//    finished. The exception is a resident block whose partner block is
//    spilled (a mask split apart from its operand): it waits for the
//    second group and can be displaced, and reloaded, before its visit;
//  * shard payloads are immutable after the split, so each shard is
//    written at most once — later evictions just drop the resident copy
//    and later leases read the same blob back. Blobs of iso-valued shards
//    (every value bitwise equal, as in an unweighted pattern) store the
//    value once; see `detail::ShardFileHeader`.
//
// Prefetch. `prefetch(id)` schedules a *background* reload of a spilled
// shard on the store's completion-queue worker (core/async_io.hpp), so a
// tiled multiply can overlap the next shard's reload with the current
// shard's compute.
// The race semantics are deliberately simple and precise:
//
//  * prefetching a shard that is resident, already loading, or dead is a
//    no-op;
//  * a shard being loaded (by a prefetch worker or by a concurrent pin)
//    is in a transient "loading" state: pins arriving meanwhile block on
//    a condition variable until the load settles, then proceed (hitting
//    the freshly resident payload, or retrying the load themselves if it
//    failed);
//  * a completed prefetch installs the payload as most-recently-used but
//    *unpinned* — the budget is re-enforced immediately, so under a
//    budget smaller than the shard itself the payload is evicted on the
//    spot and the prefetch was wasted (counted in
//    `stats().prefetch_wasted`). Prefetching pays off when the budget
//    affords the pinned working set plus at least one shard;
//  * a prefetch whose backend read fails is swallowed: the shard simply
//    stays spilled and the next pin retries synchronously (surfacing a
//    persistent fault as a typed `io_error` at the use site);
//  * unregistering a shard (`remove`) waits for any in-flight load on it
//    to settle first, so a dying ShardedMatrix never races its own
//    reload.
//
// Thread safety. The store's internal state is mutex-protected and all
// public operations (pin/unpin via leases, prefetch, spill_all, stats,
// accessors) are safe to call from concurrent threads; `Stats` counters
// are atomics readable without synchronization. Backend I/O runs outside
// the lock for loads (synchronous and prefetched alike) and under it for
// eviction writes. What remains single-caller is the *lazy mutation* on
// ShardedMatrix itself (`valued_fingerprint`), and of course the payload
// reference obtained from a lease is only valid while that lease lives.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/async_io.hpp"
#include "core/invariants.hpp"
#include "core/plan.hpp"
#include "core/storage.hpp"
#include "matrix/csr.hpp"
#include "util/common.hpp"

namespace msp {

namespace detail {

/// Binary shard blob layout: a fixed header (magic, element widths, shape,
/// flags) followed by the raw rowptr/colids arrays and the values. When
/// every value is bitwise equal to the first (an unweighted graph pattern:
/// all 1.0), the header carries `kShardIsoValues` and the blob stores that
/// one value instead of nnz copies — the iso-valued matrices of
/// SuiteSparse:GraphBLAS. The header and the blob size are checked on
/// deserialize so a stray, corrupt, or truncated blob fails loudly (typed
/// io_error) instead of producing a malformed matrix.
inline constexpr std::uint64_t kShardIsoValues = 1;

struct ShardFileHeader {
  std::uint64_t magic = 0x4d53505348415232ULL;  // "MSPSHAR2"
  std::uint32_t it_bytes = 0;
  std::uint32_t vt_bytes = 0;
  std::int64_t nrows = 0;
  std::int64_t ncols = 0;
  std::uint64_t nnz = 0;
  std::uint64_t flags = 0;
};

/// True when every value is bitwise equal to the first. memcmp rather than
/// ==: +0.0 and -0.0 (equal) or two NaN payloads (unequal to themselves)
/// must round-trip exactly as stored.
template <class VT>
bool iso_values(const std::vector<VT>& values) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (std::memcmp(&values[i], &values[0], sizeof(VT)) != 0) return false;
  }
  return !values.empty();
}

template <class IT, class VT>
std::vector<std::byte> serialize_shard(const CsrMatrix<IT, VT>& m) {
  ShardFileHeader h;
  h.it_bytes = sizeof(IT);
  h.vt_bytes = sizeof(VT);
  h.nrows = static_cast<std::int64_t>(m.nrows);
  h.ncols = static_cast<std::int64_t>(m.ncols);
  h.nnz = static_cast<std::uint64_t>(m.nnz());
  const bool iso = iso_values(m.values);
  if (iso) h.flags |= kShardIsoValues;
  const std::size_t va_count = iso ? 1 : m.values.size();
  std::vector<std::byte> buf(sizeof(h) + m.rowptr.size() * sizeof(IT) +
                             m.colids.size() * sizeof(IT) +
                             va_count * sizeof(VT));
  std::byte* p = buf.data();
  std::memcpy(p, &h, sizeof(h));
  p += sizeof(h);
  // memcpy-safe: rowptr always holds nrows+1 >= 1 entries, data() nonnull.
  std::memcpy(p, m.rowptr.data(), m.rowptr.size() * sizeof(IT));
  p += m.rowptr.size() * sizeof(IT);
  // Empty shards have null colids/values data(); memcpy's arguments are
  // declared nonnull even for zero sizes.
  if (!m.colids.empty()) {
    std::memcpy(p, m.colids.data(), m.colids.size() * sizeof(IT));
  }
  p += m.colids.size() * sizeof(IT);
  if (va_count != 0) std::memcpy(p, m.values.data(), va_count * sizeof(VT));
  return buf;
}

template <class IT, class VT>
CsrMatrix<IT, VT> deserialize_shard(const std::byte* data, std::size_t size,
                                    const std::string& what) {
  ShardFileHeader h;
  if (size < sizeof(h)) {
    throw io_error("ShardStore: truncated shard blob: " + what);
  }
  std::memcpy(&h, data, sizeof(h));
  // The header is untrusted (disk, wire): every count must fit IT, and is
  // bounded by the payload size by division before any multiply, so a
  // crafted count can neither truncate nor wrap the byte sizes below.
  constexpr auto it_max =
      static_cast<std::uint64_t>(std::numeric_limits<IT>::max());
  const bool iso = (h.flags & kShardIsoValues) != 0;
  if (h.magic != ShardFileHeader{}.magic || h.it_bytes != sizeof(IT) ||
      h.vt_bytes != sizeof(VT) || h.nrows < 0 || h.ncols < 0 ||
      static_cast<std::uint64_t>(h.nrows) > it_max ||
      static_cast<std::uint64_t>(h.ncols) > it_max || h.nnz > it_max ||
      (h.flags & ~kShardIsoValues) != 0 || (iso && h.nnz == 0)) {
    throw io_error("ShardStore: malformed shard blob: " + what);
  }
  const std::size_t payload = size - sizeof(h);
  // An iso blob stores colids for every entry but a single value.
  const std::size_t per_entry = sizeof(IT) + (iso ? 0 : sizeof(VT));
  if (static_cast<std::uint64_t>(h.nrows) >= payload / sizeof(IT) ||
      h.nnz > payload / per_entry) {
    throw io_error("ShardStore: truncated shard blob: " + what);
  }
  const std::size_t rp_bytes =
      (static_cast<std::size_t>(h.nrows) + 1) * sizeof(IT);
  const std::size_t ci_bytes = static_cast<std::size_t>(h.nnz) * sizeof(IT);
  const std::size_t va_bytes =
      (iso ? 1 : static_cast<std::size_t>(h.nnz)) * sizeof(VT);
  // Exact size, not a lower bound: trailing bytes mean the header does not
  // describe the blob (a flipped iso bit on a full-valued blob, say), and
  // decoding it anyway would yield wrong values without an error.
  if (payload != rp_bytes + ci_bytes + va_bytes) {
    throw io_error("ShardStore: shard blob size does not match its header: " +
                   what);
  }
  const std::byte* p = data + sizeof(h);
  std::vector<IT> rowptr(static_cast<std::size_t>(h.nrows) + 1);
  std::vector<IT> colids(static_cast<std::size_t>(h.nnz));
  std::vector<VT> values(static_cast<std::size_t>(h.nnz));
  // memcpy-safe: rp_bytes >= sizeof(IT) (header guarantees nrows >= 0).
  std::memcpy(rowptr.data(), p, rp_bytes);
  p += rp_bytes;
  if (ci_bytes != 0) std::memcpy(colids.data(), p, ci_bytes);
  p += ci_bytes;
  if (iso) {
    // nnz >= 1 was checked above; copies of a trivially copyable VT keep
    // the stored bits.
    std::memcpy(values.data(), p, sizeof(VT));
    std::fill(values.begin() + 1, values.end(), values[0]);
  } else if (va_bytes != 0) {
    std::memcpy(values.data(), p, va_bytes);
  }
  CsrMatrix<IT, VT> out(static_cast<IT>(h.nrows), static_cast<IT>(h.ncols),
                        std::move(rowptr), std::move(colids),
                        std::move(values));
  // The deserialize boundary is where a corrupt-but-well-sized blob would
  // enter the compute path (prefetch install / synchronous reload).
  MSP_CHECK_CSR(out, "detail::deserialize_shard");
  return out;
}

}  // namespace detail

/// Spill-to-storage backing for ShardedMatrix: serializes cold shards
/// through a StorageBackend and reloads them on demand (optionally ahead
/// of demand — see the prefetch contract in the file comment), keeping the
/// unpinned resident set within `resident_budget` bytes (LRU eviction).
/// One store may back several sharded matrices — e.g. an operand and its
/// aligned mask share one budget, which is what a real memory cap looks
/// like. Thread-safe; see the file comment for the exact contract.
class ShardStore {
 public:
  struct Options {
    /// High-water mark in bytes for unpinned resident shard payloads.
    /// Defaults to unlimited (shards then never spill).
    std::size_t resident_budget = std::numeric_limits<std::size_t>::max();
    /// Base directory for the default local backend. Every store creates
    /// its own unique subdirectory underneath (so two stores can never
    /// collide on shard blob names) and removes it on destruction. Empty
    /// (the default) uses the system temp directory; a caller-provided
    /// base must exist and is itself left in place. Ignored when
    /// `backend` is set.
    std::filesystem::path scratch_dir;
    /// Storage backend for spilled shards. Null (the default) creates a
    /// local-directory backend under `scratch_dir` — `MmapLocalBackend`
    /// when `mmap_reload`, `LocalDirBackend` otherwise. A caller-provided
    /// backend (a remote store, a test double) is shared as-is and must
    /// outlive nothing: the store keeps a shared_ptr.
    std::shared_ptr<StorageBackend> backend;
    /// Reload spilled shards through mmap views instead of streamed reads
    /// (default backend only; identical bytes either way).
    bool mmap_reload = true;
    /// Model true out-of-core storage (default backend only): spilled
    /// blobs are fsync'd and evicted from the OS page cache after every
    /// write and read, so each reload pays the real storage-device cost
    /// instead of a page-cache memcpy. Forces streamed reloads (an mmap
    /// view would repopulate the cache it just dropped). The regime the
    /// prefetch pipeline is built for; off by default because tests and
    /// in-memory-sized runs want the cheap path.
    bool cold_reads = false;
    /// When positive, wrap the backend (default or caller-provided) in a
    /// ThrottledBackend capping apparent bandwidth at this many MiB/s — a
    /// stand-in for the HDD/S3-class tier an out-of-core deployment would
    /// actually spill to. 0 (the default) leaves the backend unthrottled.
    double throttle_mbps = 0;
    /// Worker threads servicing `prefetch` (created lazily on first use).
    int prefetch_workers = 1;
  };

  /// Cumulative counters. Atomics: updated under the store lock or by the
  /// prefetch worker, readable from any thread without synchronization.
  struct Stats {
    std::atomic<std::size_t> spills{0};   ///< evictions of a resident shard
    std::atomic<std::size_t> reloads{0};  ///< loads of a spilled shard (sync + prefetch)
    std::atomic<std::size_t> prefetches{0};       ///< background reloads scheduled
    std::atomic<std::size_t> prefetch_hits{0};    ///< pins served by a completed prefetch
    std::atomic<std::size_t> prefetch_wasted{0};  ///< prefetched payloads evicted unused
    std::atomic<std::size_t> prefetch_failed{0};  ///< background reloads that errored
  };

  ShardStore() : ShardStore(Options{}) {}

  explicit ShardStore(Options opt)
      : budget_(opt.resident_budget),
        prefetch_workers_(opt.prefetch_workers < 1 ? 1
                                                   : opt.prefetch_workers) {
    if (opt.backend != nullptr) {
      backend_ = std::move(opt.backend);
    } else {
      std::filesystem::path base = opt.scratch_dir;
      if (base.empty()) {
        base = std::filesystem::temp_directory_path() / "mspgemm-shards";
        std::error_code ec;
        std::filesystem::create_directories(base, ec);
      } else if (!std::filesystem::is_directory(base)) {
        throw invalid_argument_error(
            "ShardStore: scratch_dir does not exist: " + base.string());
      }
      dir_ = unique_scratch_dir(base);
      if (opt.cold_reads) {
        backend_ = std::make_shared<LocalDirBackend>(dir_, false,
                                                     /*cold_reads=*/true);
      } else if (opt.mmap_reload) {
        backend_ = std::make_shared<MmapLocalBackend>(dir_);
      } else {
        backend_ = std::make_shared<LocalDirBackend>(dir_);
      }
    }
    if (opt.throttle_mbps > 0) {
      backend_ = std::make_shared<ThrottledBackend>(
          backend_, opt.throttle_mbps * 1024.0 * 1024.0);
    }
  }

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  ~ShardStore() {
    // Settle every in-flight background load before any entry state (or
    // the backend) goes away; then drop the scratch dir if we created it.
    async_.reset();
    if (!dir_.empty()) {
      backend_.reset();  // close any backend handles into the dir first
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t resident_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return resident_bytes_;
  }
  [[nodiscard]] std::size_t resident_budget() const { return budget_; }
  [[nodiscard]] StorageBackend& backend() const { return *backend_; }
  /// Scratch directory of the default local backend; empty when the store
  /// was built over a caller-provided backend.
  [[nodiscard]] const std::filesystem::path& scratch_dir() const {
    return dir_;
  }

  /// Evict every unpinned resident shard regardless of budget — a test and
  /// walkthrough hook to force the cold-start path deterministically.
  /// Shards currently loading are left to settle (they will be budget-
  /// enforced on install).
  void spill_all() {
    std::lock_guard<std::mutex> lk(mu_);
    for (Entry& e : entries_) {
      if (!e.dead && e.state == State::kResident && e.pins == 0) evict(e);
    }
    MSP_CHECK_SHARD_STORE(*this, "ShardStore::spill_all");
  }

  /// True while the given registered shard has a resident payload.
  [[nodiscard]] bool resident(std::size_t id) const {
    std::lock_guard<std::mutex> lk(mu_);
    MSP_ASSERT(id < entries_.size());
    return entries_[id].state == State::kResident;
  }

  /// Schedule a background reload of a spilled shard on the store's
  /// completion-queue worker. No-op when the shard is resident, already
  /// loading, or dead. See the file comment for the full race semantics.
  void prefetch(std::size_t id) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      MSP_ASSERT(id < entries_.size());
      Entry& e = entries_[id];
      if (e.dead || e.state != State::kSpilled) return;
      e.state = State::kLoading;
      stats_.prefetches.fetch_add(1, std::memory_order_relaxed);
      if (async_ == nullptr) {
        async_ = std::make_unique<AsyncOpGroup>(prefetch_workers_);
      }
    }
    async_->submit([this, id] { prefetch_job(id); });
  }

  /// Block until every scheduled prefetch has settled (test/teardown
  /// hook; pins already coordinate with in-flight loads on their own).
  void wait_prefetches() {
    AsyncOpGroup* g = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      g = async_.get();
    }
    if (g != nullptr) g->drain();  // outside mu_: jobs need the lock
  }

  /// Checked-build validator (public, takes the store lock): accounting and
  /// state-machine invariants over every live entry — resident_bytes_ is
  /// exactly the sum of resident payload sizes, pinned shards are resident,
  /// refcounts are sane, tombstones carry nothing.
  void check_invariants(const char* site) const {
    std::lock_guard<std::mutex> lk(mu_);
    check_invariants_locked(site);
  }

  /// Test seam: skew the resident-bytes accounting by `delta` so
  /// tests/test_invariants.cpp can prove the accounting invariant trips.
  /// Never called outside tests.
  void adjust_resident_bytes_for_testing(std::ptrdiff_t delta) {
    std::lock_guard<std::mutex> lk(mu_);
    resident_bytes_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(resident_bytes_) + delta);
  }

 private:
  template <class, class>
  friend class ShardedMatrix;
  template <class, class>
  friend class ShardLease;

  enum class State {
    kResident,  ///< payload in memory (counted in resident_bytes)
    kSpilled,   ///< payload only in the backend
    kLoading,   ///< a reload (sync pin or prefetch worker) is in flight
  };

  /// Type-erased staged payload: what `fetch` produces off-lock and
  /// `install` moves into the shard slot under the lock.
  using Staged = std::shared_ptr<void>;

  struct Entry {
    std::size_t bytes = 0;
    State state = State::kResident;
    bool on_disk = false;     ///< the backend holds a complete blob
    bool dead = false;        ///< unregistered (tombstone: ids stay stable)
    bool prefetched = false;  ///< resident payload came from an unclaimed prefetch
    int pins = 0;
    std::uint64_t tick = 0;
    std::string key;
    std::function<void(StorageBackend&, const std::string&)> save;
    std::function<Staged(StorageBackend&, const std::string&)> fetch;
    std::function<void(Staged)> install;
    std::function<void()> drop;  ///< free the resident payload
  };

  /// Register a (currently resident) shard payload; returns its entry id.
  std::size_t add(std::size_t bytes,
                  std::function<void(StorageBackend&, const std::string&)> save,
                  std::function<Staged(StorageBackend&, const std::string&)> fetch,
                  std::function<void(Staged)> install,
                  std::function<void()> drop) {
    std::lock_guard<std::mutex> lk(mu_);
    Entry e;
    e.bytes = bytes;
    e.tick = ++tick_;
    e.key = "shard-" + std::to_string(entries_.size()) + ".bin";
    e.save = std::move(save);
    e.fetch = std::move(fetch);
    e.install = std::move(install);
    e.drop = std::move(drop);
    entries_.push_back(std::move(e));
    resident_bytes_ += bytes;
    enforce();
    MSP_CHECK_SHARD_STORE(*this, "ShardStore::add");
    return entries_.size() - 1;
  }

  /// Make the shard resident (reloading if spilled, joining an in-flight
  /// load if one is running) and pin it against eviction. Budget pressure
  /// created by the reload is resolved against the other, unpinned
  /// shards. Throws io_error when the backend read fails or the blob is
  /// corrupt — with accounting untouched, so a later retry is clean.
  void pin(std::size_t id) {
    std::unique_lock<std::mutex> lk(mu_);
    MSP_ASSERT(id < entries_.size());
    Entry& e = entries_[id];  // deque: stable across concurrent add()
    while (e.state != State::kResident) {
      if (e.state == State::kLoading) {
        // A prefetch worker (or another pinner) owns the load; it will
        // settle to kResident or back to kSpilled and notify.
        cv_.wait(lk);
        continue;
      }
      // kSpilled: load it ourselves, I/O outside the lock.
      e.state = State::kLoading;
      lk.unlock();
      Staged staged;
      try {
        staged = e.fetch(*backend_, e.key);
      } catch (...) {
        lk.lock();
        e.state = State::kSpilled;  // accounting untouched; retry is clean
        cv_.notify_all();
        throw;
      }
      lk.lock();
      e.install(std::move(staged));
      e.state = State::kResident;
      resident_bytes_ += e.bytes;
      stats_.reloads.fetch_add(1, std::memory_order_relaxed);
      cv_.notify_all();
    }
    if (e.prefetched) {
      e.prefetched = false;
      stats_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
    }
    ++e.pins;
    e.tick = ++tick_;
    try {
      enforce();
    } catch (...) {
      --e.pins;  // no lease will be created; keep pin accounting exact
      throw;
    }
    MSP_CHECK_SHARD_STORE(*this, "ShardStore::pin");
  }

  /// Called from lease destructors, so eviction-write failures cannot
  /// propagate: the victim then simply stays resident (over budget) and
  /// the next enforcement retries the save — or an explicit spill_all
  /// surfaces the error.
  void unpin(std::size_t id) noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    MSP_ASSERT(id < entries_.size());
    Entry& e = entries_[id];
    MSP_ASSERT(e.pins > 0);
    --e.pins;
    try {
      enforce();
    } catch (...) {
    }
  }

  /// Unregister a shard whose ShardedMatrix (and every lease) is gone:
  /// free its resident accounting, delete its backend blob, and release
  /// the payload-owning closures. The entry stays as a tombstone so later
  /// ids remain stable. Waits out any in-flight load on the shard first.
  /// Without this, a long-lived store fed by short-lived sharded matrices
  /// (the per-expansion bc pattern) would accumulate dead payloads and
  /// blobs for its whole lifetime.
  void remove(std::size_t id) {
    std::unique_lock<std::mutex> lk(mu_);
    MSP_ASSERT(id < entries_.size());
    Entry& e = entries_[id];
    MSP_ASSERT(e.pins == 0);
    while (e.state == State::kLoading) cv_.wait(lk);
    if (e.state == State::kResident) {
      MSP_ASSERT(resident_bytes_ >= e.bytes);
      resident_bytes_ -= e.bytes;
    }
    if (e.prefetched) {  // prefetched payload dying unclaimed
      e.prefetched = false;
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    if (e.on_disk) backend_->remove(e.key);
    e.state = State::kSpilled;
    e.on_disk = false;
    e.dead = true;
    e.save = nullptr;
    e.fetch = nullptr;
    e.install = nullptr;
    e.drop = nullptr;
    MSP_CHECK_SHARD_STORE(*this, "ShardStore::remove");
  }

  /// Body of one scheduled prefetch: the entry was put into kLoading at
  /// schedule time, so pins block on it and remove() waits it out; dead
  /// cannot happen underneath us.
  void prefetch_job(std::size_t id) {
    std::unique_lock<std::mutex> lk(mu_);
    Entry& e = entries_[id];
    MSP_ASSERT(e.state == State::kLoading && !e.dead);
    auto fetch = e.fetch;
    const std::string key = e.key;
    const std::shared_ptr<StorageBackend> backend = backend_;
    lk.unlock();
    Staged staged;
    bool ok = true;
    try {
      staged = fetch(*backend, key);
    } catch (...) {
      ok = false;  // swallowed: the next pin retries and surfaces the error
    }
    lk.lock();
    if (!ok) {
      e.state = State::kSpilled;
      stats_.prefetch_failed.fetch_add(1, std::memory_order_relaxed);
      cv_.notify_all();
      return;
    }
    e.install(std::move(staged));
    e.state = State::kResident;
    e.prefetched = true;
    e.tick = ++tick_;  // MRU: evicted last among unpinned shards
    resident_bytes_ += e.bytes;
    stats_.reloads.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_all();
    enforce();
    MSP_CHECK_SHARD_STORE(*this, "ShardStore::prefetch_job");
  }

  /// Spill LRU unpinned shards until the unpinned resident set fits the
  /// budget. Pinned shards always count toward resident_bytes_ but are
  /// never candidates, so the total can exceed the budget while a multiply
  /// holds its active shards. Caller holds mu_.
  void enforce() {
    while (true) {
      std::size_t unpinned = 0;
      Entry* victim = nullptr;
      for (Entry& e : entries_) {
        if (e.dead || e.state != State::kResident || e.pins > 0) continue;
        unpinned += e.bytes;
        if (victim == nullptr || e.tick < victim->tick) victim = &e;
      }
      if (unpinned <= budget_ || victim == nullptr) return;
      evict(*victim);
    }
  }

  /// Caller holds mu_. Throws io_error if the backend write fails; the
  /// entry then stays resident and accounted, so the caller observes a
  /// consistent (if over-budget) store.
  void evict(Entry& e) {
    MSP_ASSERT(e.state == State::kResident && e.pins == 0);
    if (!e.on_disk) {
      e.save(*backend_, e.key);
      e.on_disk = true;
    }
    if (e.prefetched) {
      e.prefetched = false;
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    e.drop();
    e.state = State::kSpilled;
    MSP_ASSERT(resident_bytes_ >= e.bytes);
    resident_bytes_ -= e.bytes;
    stats_.spills.fetch_add(1, std::memory_order_relaxed);
  }

  /// Caller holds mu_. The actual invariant walk behind check_invariants
  /// and the MSP_CHECK_SHARD_STORE boundary calls.
  void check_invariants_locked(const char* site) const {
    std::size_t resident = 0;
    for (std::size_t id = 0; id < entries_.size(); ++id) {
      const Entry& e = entries_[id];
      if (e.pins < 0) {
        invariants::fail("shard_store.pin_refcount", site,
                         "shard " + std::to_string(id) + " pins=" +
                             std::to_string(e.pins));
      }
      if (e.dead) {
        if (e.pins != 0 || e.state == State::kResident) {
          invariants::fail("shard_store.dead_entry", site,
                           "tombstoned shard " + std::to_string(id) +
                               " still pinned or resident");
        }
        continue;
      }
      if (e.pins > 0 && e.state != State::kResident) {
        invariants::fail("shard_store.pinned_resident", site,
                         "shard " + std::to_string(id) + " has " +
                             std::to_string(e.pins) +
                             " pins but no resident payload");
      }
      if (e.state == State::kResident) resident += e.bytes;
    }
    if (resident != resident_bytes_) {
      invariants::fail("shard_store.resident_bytes_accounting", site,
                       "resident_bytes_=" + std::to_string(resident_bytes_) +
                           " but payload sum=" + std::to_string(resident));
    }
  }

  static std::filesystem::path unique_scratch_dir(
      const std::filesystem::path& base) {
    std::random_device rd;
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::filesystem::path dir =
          base / (std::to_string(rd()) + "-" + std::to_string(rd()));
      std::error_code ec;
      if (std::filesystem::create_directories(dir, ec) && !ec) return dir;
    }
    throw io_error("ShardStore: cannot create a scratch directory under " +
                   base.string());
  }

  std::size_t budget_;
  int prefetch_workers_;
  std::filesystem::path dir_;  // empty with a caller-provided backend
  std::shared_ptr<StorageBackend> backend_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> entries_;  // deque: entry refs survive concurrent add()
  std::size_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;
  Stats stats_;
  std::unique_ptr<AsyncOpGroup> async_;  // lazy; destroyed first in ~ShardStore
};

// slice_rows / stitch_row_blocks — the shard split and its inverse — live
// in matrix/csr.hpp (they are generic CSR row-block operations, shared
// with the serve coordinator).

template <class IT, class VT>
class ShardedMatrix;

/// RAII pin on one shard's resident payload. While any lease on a shard is
/// alive the store cannot evict it, so the reference returned by matrix()
/// stays valid even if other shards of the same store are loaded. Move-only.
template <class IT, class VT>
class ShardLease {
 public:
  ShardLease(ShardLease&& o) noexcept
      : store_(std::exchange(o.store_, nullptr)),
        slot_(std::move(o.slot_)),
        id_(o.id_),
        keepalive_(std::move(o.keepalive_)) {}
  ShardLease& operator=(ShardLease&& o) noexcept {
    if (this != &o) {
      release();
      store_ = std::exchange(o.store_, nullptr);
      slot_ = std::move(o.slot_);
      id_ = o.id_;
      keepalive_ = std::move(o.keepalive_);
    }
    return *this;
  }
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;
  ~ShardLease() { release(); }

  [[nodiscard]] const CsrMatrix<IT, VT>& matrix() const {
    MSP_ASSERT(slot_ != nullptr &&
               slot_->resident.load(std::memory_order_acquire));
    return slot_->data;
  }
  const CsrMatrix<IT, VT>& operator*() const { return matrix(); }
  const CsrMatrix<IT, VT>* operator->() const { return &matrix(); }

 private:
  friend class ShardedMatrix<IT, VT>;
  struct Slot;

  ShardLease(ShardStore* store, std::shared_ptr<Slot> slot, std::size_t id,
             std::shared_ptr<void> keepalive)
      : store_(store),
        slot_(std::move(slot)),
        id_(id),
        keepalive_(std::move(keepalive)) {}

  void release() {
    if (store_ != nullptr && slot_ != nullptr) store_->unpin(id_);
    store_ = nullptr;
    slot_ = nullptr;
    keepalive_ = nullptr;  // after unpin: registrations die with pins == 0
  }

  ShardStore* store_;  // null when the sharded matrix has no store
  std::shared_ptr<Slot> slot_;
  std::size_t id_ = 0;
  /// Keeps the owning ShardedMatrix's store registration alive: a lease
  /// outliving every copy of the sharded matrix must still unpin a live
  /// store entry before that entry is unregistered.
  std::shared_ptr<void> keepalive_;
};

/// A CSR operand split into K contiguous row-block shards, each with its
/// own pattern fingerprint (computed once, before any spill, and — like
/// BoundMatrix — raw, so the ExecutionContext's test-only fingerprint
/// transform still applies on use). A second matrix with the same row
/// count (typically the mask of a masked product) can be split with the
/// *aligned* constructor so both decompose over identical row ranges.
///
/// Shards are immutable copies of the source rows; the source matrix is
/// not referenced after construction, which is what makes spill/reload
/// safe. Access goes through `lease(s)`, which pins the shard resident for
/// the lease's lifetime; `prefetch(s)` asks the store to reload a spilled
/// shard in the background ahead of its lease.
template <class IT, class VT>
class ShardedMatrix {
 public:
  /// Split into `k` near-equal contiguous row blocks (k > nrows yields
  /// empty trailing shards — legal, they produce empty result blocks).
  ShardedMatrix(const CsrMatrix<IT, VT>& a, int k,
                ShardStore* store = nullptr)
      : ShardedMatrix(a, even_ranges(a.nrows, k), store) {}

  /// Split `m` over exactly the row ranges of `like` (the aligned-mask
  /// constructor). Row counts must match.
  template <class VT2>
  ShardedMatrix(const CsrMatrix<IT, VT>& m, const ShardedMatrix<IT, VT2>& like,
                ShardStore* store = nullptr)
      : ShardedMatrix(m, aligned_ranges(m, like), store) {}

  /// Split over explicit row boundaries: ranges[s] .. ranges[s+1].
  ShardedMatrix(const CsrMatrix<IT, VT>& a, std::vector<IT> ranges,
                ShardStore* store = nullptr)
      : nrows_(a.nrows), ncols_(a.ncols), ranges_(std::move(ranges)),
        store_(store) {
    validate_ranges();
    const int k = static_cast<int>(ranges_.size()) - 1;
    slots_.reserve(static_cast<std::size_t>(k));
    for (int s = 0; s < k; ++s) {
      auto slot = make_slot(slice_rows(a, ranges_[static_cast<std::size_t>(s)],
                                       ranges_[static_cast<std::size_t>(s) +
                                               1]));
      register_slot(slot);
      slots_.push_back(std::move(slot));
    }
  }

  /// Streaming split (the out-of-core ingest path): build the shards one
  /// row block at a time from a generator callback, never materializing a
  /// resident CSR of the whole matrix. `gen(s, row_begin, row_end)` must
  /// return shard s's rows as a self-contained CsrMatrix over the full
  /// column space (exactly what slice_rows produces — but the generator
  /// may parse them from a file, receive them from a stream, etc.).
  ///
  /// With a store, each block is registered — and the budget enforced —
  /// *before* the next block is generated, so peak unpinned residency is
  /// bounded by the store budget plus the single block being produced,
  /// independent of the matrix size.
  template <class Gen>
  static ShardedMatrix from_generator(IT nrows, IT ncols,
                                      std::vector<IT> ranges, Gen&& gen,
                                      ShardStore* store = nullptr) {
    ShardedMatrix sm(StreamTag{}, nrows, ncols, std::move(ranges), store);
    const int k = static_cast<int>(sm.ranges_.size()) - 1;
    sm.slots_.reserve(static_cast<std::size_t>(k));
    for (int s = 0; s < k; ++s) {
      const IT lo = sm.ranges_[static_cast<std::size_t>(s)];
      const IT hi = sm.ranges_[static_cast<std::size_t>(s) + 1];
      CsrMatrix<IT, VT> block = gen(s, lo, hi);
      if (block.nrows != hi - lo || block.ncols != ncols) {
        throw invalid_argument_error(
            "ShardedMatrix: generator produced a block of the wrong shape");
      }
      auto slot = make_slot(std::move(block));
      sm.register_slot(slot);  // store add() enforces the budget here
      sm.slots_.push_back(std::move(slot));
    }
    return sm;
  }

  /// Per-shard invalidation for streaming updates: re-slice from `a` (the
  /// full post-update matrix) exactly the shards whose row ranges overlap
  /// [begin, end), giving them fresh payloads, fingerprints, and store
  /// entries. Untouched shards keep their split-time fingerprints, so the
  /// tiled driver's cached per-shard plans (and flops) stay valid for
  /// them. Shape must be unchanged and no leases may be outstanding on the
  /// refreshed shards. Returns the number of shards refreshed.
  int refresh_rows(const CsrMatrix<IT, VT>& a, IT begin, IT end) {
    if (a.nrows != nrows_ || a.ncols != ncols_) {
      throw invalid_argument_error(
          "ShardedMatrix::refresh_rows: matrix shape changed");
    }
    int refreshed = 0;
    for (int s = 0; s < shards(); ++s) {
      if (row_end(s) <= begin || row_begin(s) >= end) continue;
      auto fresh = make_slot(slice_rows(a, row_begin(s), row_end(s)));
      if (store_ != nullptr) {
        const std::size_t old_id = slot(s).store_id;
        store_->remove(old_id);  // asserts no pins; deletes the stale blob
        register_slot(fresh);
        auto& ids = reg_->ids;
        ids.erase(std::find(ids.begin(), ids.end(), old_id));
      }
      slots_[static_cast<std::size_t>(s)] = std::move(fresh);
      ++refreshed;
    }
    return refreshed;
  }

  [[nodiscard]] int shards() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] IT nrows() const { return nrows_; }
  [[nodiscard]] IT ncols() const { return ncols_; }
  [[nodiscard]] const std::vector<IT>& ranges() const { return ranges_; }
  [[nodiscard]] IT row_begin(int s) const {
    return ranges_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] IT row_end(int s) const {
    return ranges_[static_cast<std::size_t>(s) + 1];
  }
  [[nodiscard]] ShardStore* store() const { return store_; }

  /// The shard's pattern fingerprint (computed at split time; survives
  /// spill/reload untouched).
  [[nodiscard]] std::uint64_t fingerprint(int s) const {
    return slot(s).fp;
  }

  /// The shard's valued-semantics fingerprint (pattern + zero/nonzero
  /// bitmap), computed on first use — this may reload a spilled shard.
  /// Lazy mutation: single-caller, unlike the store operations.
  [[nodiscard]] std::uint64_t valued_fingerprint(int s) const {
    Slot& sl = slot(s);
    if (!sl.has_valued_fp) {
      const ShardLease<IT, VT> held = lease(s);
      sl.fp_valued = pattern_fingerprint(held.matrix(), true);
      sl.has_valued_fp = true;
    }
    return sl.fp_valued;
  }

  /// Payload bytes (rowptr + colids + values) of one shard / of the split.
  [[nodiscard]] std::size_t bytes(int s) const { return slot(s).bytes; }
  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t sum = 0;
    for (const auto& sl : slots_) sum += sl->bytes;
    return sum;
  }

  /// Pin shard `s` resident (reloading it if spilled) and return a lease
  /// on its payload.
  [[nodiscard]] ShardLease<IT, VT> lease(int s) const {
    Slot& sl = slot(s);
    if (store_ != nullptr) {
      store_->pin(sl.store_id);
    }
    return ShardLease<IT, VT>(store_, slots_[static_cast<std::size_t>(s)],
                              store_ != nullptr ? sl.store_id : 0, reg_);
  }

  /// Ask the store to reload shard `s` in the background (no-op without a
  /// store, or when the shard is already resident/loading).
  void prefetch(int s) const {
    if (store_ != nullptr) store_->prefetch(slot(s).store_id);
  }

  /// True while the shard's payload is in memory (always, without a store).
  [[nodiscard]] bool resident(int s) const {
    return slot(s).resident.load(std::memory_order_acquire);
  }

  /// Row boundaries whose shard *payloads* are near-equal (nnz-weighted),
  /// for skewed matrices where even row counts produce wildly uneven
  /// shards (R-MAT hub rows). Greedy prefix cut: boundary s is the first
  /// row at which the nnz prefix reaches s/k of the total. Uniform shard
  /// bytes are what make a spill budget of "two shards" meaningful — the
  /// prefetch pipeline's documented pay-off regime — instead of being
  /// dominated by one oversized block.
  static std::vector<IT> balanced_ranges(const CsrMatrix<IT, VT>& a, int k) {
    if (k < 1) throw invalid_argument_error("ShardedMatrix: k must be >= 1");
    const std::int64_t total = static_cast<std::int64_t>(a.nnz());
    std::vector<IT> r(static_cast<std::size_t>(k) + 1);
    r[0] = 0;
    IT row = 0;
    for (int s = 1; s < k; ++s) {
      const std::int64_t target = (total * s) / k;
      while (row < a.nrows &&
             static_cast<std::int64_t>(a.rowptr[row]) < target) {
        ++row;
      }
      r[static_cast<std::size_t>(s)] = row;
    }
    r[static_cast<std::size_t>(k)] = a.nrows;
    return r;
  }

  /// Near-equal contiguous row boundaries for k shards of n rows.
  static std::vector<IT> even_ranges(IT n, int k) {
    if (k < 1) throw invalid_argument_error("ShardedMatrix: k must be >= 1");
    std::vector<IT> r(static_cast<std::size_t>(k) + 1);
    for (int s = 0; s <= k; ++s) {
      r[static_cast<std::size_t>(s)] = static_cast<IT>(
          (static_cast<std::int64_t>(n) * s) / k);
    }
    return r;
  }

 private:
  // ShardLease::Slot must be this exact type; define once and share.
  using Slot = typename ShardLease<IT, VT>::Slot;

  /// Shared ownership of the store entries: when the last ShardedMatrix
  /// copy *and* the last lease referencing them die, the entries are
  /// unregistered (resident accounting dropped, backend blobs deleted).
  /// The store must outlive every sharded matrix registered with it.
  struct Registration {
    explicit Registration(ShardStore* s) : store(s) {}
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration() {
      for (const std::size_t id : ids) store->remove(id);
    }
    ShardStore* store;
    std::vector<std::size_t> ids;
  };

  /// Shape-only construction for the streaming factory: validates the
  /// ranges, leaves slots_ empty for the caller to fill one block at a
  /// time.
  struct StreamTag {};
  ShardedMatrix(StreamTag, IT nrows, IT ncols, std::vector<IT> ranges,
                ShardStore* store)
      : nrows_(nrows), ncols_(ncols), ranges_(std::move(ranges)),
        store_(store) {
    validate_ranges();
  }

  void validate_ranges() const {
    if (ranges_.size() < 2 || ranges_.front() != 0 ||
        ranges_.back() != nrows_) {
      throw invalid_argument_error("ShardedMatrix: malformed row ranges");
    }
    for (std::size_t s = 0; s + 1 < ranges_.size(); ++s) {
      if (ranges_[s + 1] < ranges_[s]) {
        throw invalid_argument_error("ShardedMatrix: descending row ranges");
      }
    }
  }

  /// A fresh resident slot around `data`, fingerprinted at creation.
  static std::shared_ptr<Slot> make_slot(CsrMatrix<IT, VT>&& data) {
    auto slot = std::make_shared<Slot>();
    slot->data = std::move(data);
    // Every shard payload enters through here (split, refresh_rows,
    // from_generator) — the boundary where a malformed row block would
    // poison the tiled driver's stitch.
    MSP_CHECK_CSR(slot->data, "ShardedMatrix::make_slot");
    slot->resident.store(true, std::memory_order_relaxed);
    slot->fp = pattern_fingerprint(slot->data, false);
    slot->bytes = payload_bytes(slot->data);
    return slot;
  }

  /// Register a resident slot's payload with the store (no-op without
  /// one): accounts its bytes — enforcing the budget immediately — and
  /// wires the spill/reload callbacks. The callbacks capture the shared
  /// slot, not `this`, so the sharded matrix stays movable and the store
  /// outlives nothing. fetch runs off-lock (possibly on a prefetch worker)
  /// and only builds a staged payload; install/drop mutate the slot and
  /// run under the store lock.
  void register_slot(const std::shared_ptr<Slot>& slot) {
    if (store_ == nullptr) return;
    if (reg_ == nullptr) reg_ = std::make_shared<Registration>(store_);
    std::shared_ptr<Slot> sp = slot;
    slot->store_id = store_->add(
        slot->bytes,
        /*save=*/
        [sp](StorageBackend& be, const std::string& key) {
          const std::vector<std::byte> blob = detail::serialize_shard(sp->data);
          be.write(key, blob.data(), blob.size());
        },
        /*fetch=*/
        [](StorageBackend& be, const std::string& key) -> std::shared_ptr<void> {
          const ReadBuffer blob = be.read(key);
          return std::make_shared<CsrMatrix<IT, VT>>(
              detail::deserialize_shard<IT, VT>(blob.data(), blob.size(), key));
        },
        /*install=*/
        [sp](std::shared_ptr<void> staged) {
          sp->data =
              std::move(*std::static_pointer_cast<CsrMatrix<IT, VT>>(staged));
          sp->resident.store(true, std::memory_order_release);
        },
        /*drop=*/
        [sp] {
          sp->data = CsrMatrix<IT, VT>{};
          sp->resident.store(false, std::memory_order_release);
        });
    reg_->ids.push_back(slot->store_id);
  }

  [[nodiscard]] Slot& slot(int s) const {
    MSP_ASSERT(s >= 0 && s < shards());
    return *slots_[static_cast<std::size_t>(s)];
  }

  static std::size_t payload_bytes(const CsrMatrix<IT, VT>& m) {
    return m.rowptr.size() * sizeof(IT) + m.colids.size() * sizeof(IT) +
           m.values.size() * sizeof(VT);
  }

  /// Validate-and-forward for the aligned constructor: checked *before*
  /// delegation so a wrong-sized mask gets the specific message rather
  /// than the generic malformed-ranges one.
  template <class VT2>
  static std::vector<IT> aligned_ranges(const CsrMatrix<IT, VT>& m,
                                        const ShardedMatrix<IT, VT2>& like) {
    if (m.nrows != like.nrows()) {
      throw invalid_argument_error(
          "ShardedMatrix: aligned split requires matching row counts");
    }
    return like.ranges();
  }

  IT nrows_;
  IT ncols_;
  std::vector<IT> ranges_;
  ShardStore* store_;
  std::shared_ptr<Registration> reg_;
  std::vector<std::shared_ptr<Slot>> slots_;
};

/// The per-shard state shared between a ShardedMatrix and its leases.
/// `resident` is atomic: the prefetch worker flips it (under the store
/// lock) while `ShardedMatrix::resident` may poll from the caller thread.
template <class IT, class VT>
struct ShardLease<IT, VT>::Slot {
  CsrMatrix<IT, VT> data;
  std::atomic<bool> resident{false};
  std::uint64_t fp = 0;
  std::uint64_t fp_valued = 0;
  bool has_valued_fp = false;
  std::size_t bytes = 0;
  std::size_t store_id = 0;
};

}  // namespace msp
