// Wire protocol for the mspgemm-serve coordinator/worker split: length-
// prefixed binary frames over Unix-domain SOCK_STREAM sockets.
//
// Every message is one frame:
//
//   FrameHeader { u32 magic, u32 type, u64 size }  + `size` payload bytes
//
// The payload is a flat little-endian-as-stored field sequence built with
// `WireWriter` and decoded with `WireReader` (both bounds-checked: a short
// or oversized payload surfaces as a typed `io_error`, never as an
// out-of-bounds read). Matrices travel as shard blobs — the exact
// `detail::serialize_shard` format the spill layer already round-trips,
// iso-valued blobs (one stored value, `detail::kShardIsoValues`) included —
// so the socket path and the storage path share one serializer and one set
// of corruption checks. Version 2 of the protocol is the first to carry the
// header's flags word; a version-1 peer is refused at kHello.
//
// Message flow (coordinator ↔ worker k):
//
//   worker  → coord   kHello       worker_id, protocol version
//   coord   → worker  kAssign      row range + blob keys for the A block
//                                  and B in the shared shard directory
//   worker  → coord   kAssignDone  loaded shapes (sanity echo)
//   coord   → worker  kQuery       query id, config enums, N mask blocks
//   worker  → coord   kResult      query id, N result blocks
//   coord   → worker  kStats       (empty)
//   worker  → coord   kStatsReply  WorkerStats snapshot
//   coord   → worker  kShutdown    (empty)
//   worker  → coord   kBye         (empty), then the worker exits 0
//   worker  → coord   kError       message (in place of any reply)
//
// Writes use `send(MSG_NOSIGNAL)` so a dead peer surfaces as an `io_error`
// (EPIPE) instead of killing the process with SIGPIPE — the coordinator
// turns exactly that error into its worker-restart path.
//
// All I/O here is blocking and strictly request/reply per connection; the
// coordinator fans out by fully writing each worker's request before
// collecting replies, so there is no read/write cycle to deadlock on.
#pragma once

#if !defined(__unix__) && !(defined(__APPLE__) && defined(__MACH__))
#error "serve/protocol.hpp requires a POSIX platform (unix sockets)"
#endif

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "util/common.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: suppressed via SO_NOSIGPIPE instead
#endif

namespace msp::serve {

inline constexpr std::uint32_t kFrameMagic = 0x4d535056u;  // "MSPV"
inline constexpr std::uint32_t kProtocolVersion = 2;
/// Upper bound on one frame's payload — far above any real query batch,
/// low enough that a corrupt length field fails fast instead of
/// attempting a multi-terabyte allocation.
inline constexpr std::uint64_t kMaxFrameBytes = 1ull << 32;

enum class MsgType : std::uint32_t {
  kHello = 1,
  kAssign = 2,
  kAssignDone = 3,
  kQuery = 4,
  kResult = 5,
  kStats = 6,
  kStatsReply = 7,
  kShutdown = 8,
  kBye = 9,
  kError = 10,
};

inline const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kAssign: return "assign";
    case MsgType::kAssignDone: return "assign-done";
    case MsgType::kQuery: return "query";
    case MsgType::kResult: return "result";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats-reply";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kBye: return "bye";
    case MsgType::kError: return "error";
  }
  return "?";
}

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t type = 0;
  std::uint64_t size = 0;
};

// ---------------------------------------------------------------------------
// Raw socket I/O
// ---------------------------------------------------------------------------

/// Write exactly `n` bytes, riding out EINTR and partial sends. Throws
/// io_error on any hard failure (EPIPE when the peer died).
inline void write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw io_error(std::string("serve: socket write failed: ") +
                     std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Read exactly `n` bytes. EOF before `n` bytes (the peer vanished
/// mid-frame) is an io_error, like every other short read.
inline void read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw io_error(std::string("serve: socket read failed: ") +
                     std::strerror(errno));
    }
    if (r == 0) throw io_error("serve: peer closed connection mid-frame");
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

inline void send_frame(int fd, MsgType type, const void* payload,
                       std::size_t n) {
  FrameHeader h;
  h.type = static_cast<std::uint32_t>(type);
  h.size = n;
  write_all(fd, &h, sizeof(h));
  if (n > 0) write_all(fd, payload, n);
}

inline void send_frame(int fd, MsgType type,
                       const std::vector<std::byte>& payload) {
  send_frame(fd, type, payload.data(), payload.size());
}

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::byte> payload;
};

inline Frame recv_frame(int fd) {
  FrameHeader h;
  read_all(fd, &h, sizeof(h));
  if (h.magic != kFrameMagic) {
    throw io_error("serve: bad frame magic (desynchronized stream)");
  }
  if (h.size > kMaxFrameBytes) {
    throw io_error("serve: frame size exceeds protocol limit");
  }
  Frame f;
  f.type = static_cast<MsgType>(h.type);
  f.payload.resize(static_cast<std::size_t>(h.size));
  if (h.size > 0) read_all(fd, f.payload.data(), f.payload.size());
  return f;
}

// ---------------------------------------------------------------------------
// Unix-domain socket setup
// ---------------------------------------------------------------------------

inline ::sockaddr_un make_unix_addr(const std::string& path) {
  ::sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw invalid_argument_error("serve: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Create, bind, and listen on a Unix-domain stream socket.
inline int listen_unix(const std::string& path, int backlog) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw io_error(std::string("serve: socket() failed: ") +
                   std::strerror(errno));
  }
  const ::sockaddr_un addr = make_unix_addr(path);
  if (::bind(fd, reinterpret_cast<const ::sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    throw io_error("serve: cannot listen on '" + path +
                   "': " + std::strerror(err));
  }
  return fd;
}

inline int accept_unix(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    throw io_error(std::string("serve: accept() failed: ") +
                   std::strerror(errno));
  }
}

/// Connect to a Unix-domain socket, retrying while the coordinator is
/// still binding (the worker process usually wins the race to this call).
inline int connect_unix_retry(const std::string& path, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  const ::sockaddr_un addr = make_unix_addr(path);
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw io_error(std::string("serve: socket() failed: ") +
                     std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<const ::sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if ((err != ENOENT && err != ECONNREFUSED) ||
        std::chrono::steady_clock::now() >= deadline) {
      throw io_error("serve: cannot connect to '" + path +
                     "': " + std::strerror(err));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

/// Append-only payload builder. Fixed-width fields are stored in host
/// byte order — both endpoints are processes of one binary on one machine
/// (fork/exec), the same assumption the shard blob format already makes.
class WireWriter {
 public:
  void put_u32(std::uint32_t v) { put_pod(v); }
  void put_u64(std::uint64_t v) { put_pod(v); }

  void put_string(const std::string& s) {
    put_u64(s.size());
    const std::byte* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  /// A length-prefixed opaque blob (shard payloads).
  void put_blob(const std::vector<std::byte>& b) {
    put_u64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }

 private:
  template <class T>
  void put_pod(T v) {
    std::byte tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  std::vector<std::byte> buf_;
};

/// Bounds-checked payload cursor: any read past the end is a typed
/// io_error, so a truncated or mis-framed payload cannot walk off the
/// buffer.
class WireReader {
 public:
  WireReader(const std::byte* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit WireReader(const std::vector<std::byte>& payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint32_t get_u32() { return get_pod<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_pod<std::uint64_t>(); }

  std::string get_string() {
    const std::uint64_t n = get_u64();
    require(n);
    std::string s(reinterpret_cast<const char*>(p_),
                  static_cast<std::size_t>(n));
    p_ += n;
    return s;
  }

  std::vector<std::byte> get_blob() {
    const std::uint64_t n = get_u64();
    require(n);
    std::vector<std::byte> b(p_, p_ + n);
    p_ += n;
    return b;
  }

  /// Zero-copy view of a length-prefixed blob (deserialize straight out
  /// of the frame buffer instead of staging a copy).
  std::pair<const std::byte*, std::size_t> get_blob_view() {
    const std::uint64_t n = get_u64();
    require(n);
    const std::byte* p = p_;
    p_ += n;
    return {p, static_cast<std::size_t>(n)};
  }

  [[nodiscard]] bool exhausted() const { return p_ == end_; }

 private:
  // The throw sits in a separate noreturn function so the optimizer sees
  // every read that follows `require` guarded by the bounds check (inlined
  // throws otherwise trip gcc's -Warray-bounds on constant-size payloads).
  void require(std::uint64_t n) const {
    if (n > static_cast<std::uint64_t>(end_ - p_)) short_payload();
  }

  [[noreturn]] [[gnu::cold]] static void short_payload() {
    throw io_error("serve: short payload (truncated message)");
  }

  template <class T>
  T get_pod() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  const std::byte* p_;
  const std::byte* end_;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// One runtime-described query configuration on the wire (the serve-side
/// mirror of Engine's DynConfig enums).
struct QueryConfig {
  Scheme scheme = Scheme::kMsa2P;
  SemiringId semiring = SemiringId::kPlusTimes;
  MaskKind kind = MaskKind::kMask;
  MaskSemantics semantics = MaskSemantics::kStructural;
};

inline void put_query_config(WireWriter& w, const QueryConfig& cfg) {
  w.put_u32(static_cast<std::uint32_t>(cfg.scheme));
  w.put_u32(static_cast<std::uint32_t>(cfg.semiring));
  w.put_u32(static_cast<std::uint32_t>(cfg.kind));
  w.put_u32(static_cast<std::uint32_t>(cfg.semantics));
}

inline QueryConfig get_query_config(WireReader& r) {
  QueryConfig cfg;
  cfg.scheme = static_cast<Scheme>(r.get_u32());
  cfg.semiring = static_cast<SemiringId>(r.get_u32());
  cfg.kind = static_cast<MaskKind>(r.get_u32());
  cfg.semantics = static_cast<MaskSemantics>(r.get_u32());
  return cfg;
}

/// kAssign payload: the placement contract. The coordinator has written
/// the worker's contiguous A row block and the whole of B as shard blobs
/// into the shared durable shard directory; the worker fetches both
/// through its retrying storage seam.
struct AssignMsg {
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = 0;
  std::string a_key;
  std::string b_key;
};

inline std::vector<std::byte> encode_assign(const AssignMsg& m) {
  WireWriter w;
  w.put_u64(m.row_begin);
  w.put_u64(m.row_end);
  w.put_string(m.a_key);
  w.put_string(m.b_key);
  return w.bytes();
}

inline AssignMsg decode_assign(const std::vector<std::byte>& payload) {
  WireReader r(payload);
  AssignMsg m;
  m.row_begin = r.get_u64();
  m.row_end = r.get_u64();
  m.a_key = r.get_string();
  m.b_key = r.get_string();
  return m;
}

/// kStatsReply payload: `CacheStats`-shaped per-worker service counters —
/// what the worker did (queries, masks), what its storage seam cost it
/// (loads, retries, backoff), and how its plan cache amortized.
struct WorkerStats {
  std::uint64_t worker_id = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = 0;
  std::uint64_t queries = 0;        ///< kQuery messages served
  std::uint64_t masks = 0;          ///< mask blocks multiplied
  std::uint64_t shards_resident = 0;  ///< operand blobs currently loaded
  std::uint64_t bytes_loaded = 0;   ///< bytes fetched through the seam
  std::uint64_t storage_retries = 0;   ///< RetryBackend re-attempts
  std::uint64_t storage_giveups = 0;   ///< RetryBackend exhausted budgets
  std::uint64_t backoff_micros = 0;    ///< RetryBackend backoff slept
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
};

inline std::vector<std::byte> encode_worker_stats(const WorkerStats& s) {
  WireWriter w;
  w.put_u64(s.worker_id);
  w.put_u64(s.row_begin);
  w.put_u64(s.row_end);
  w.put_u64(s.queries);
  w.put_u64(s.masks);
  w.put_u64(s.shards_resident);
  w.put_u64(s.bytes_loaded);
  w.put_u64(s.storage_retries);
  w.put_u64(s.storage_giveups);
  w.put_u64(s.backoff_micros);
  w.put_u64(s.plan_hits);
  w.put_u64(s.plan_misses);
  return w.bytes();
}

inline WorkerStats decode_worker_stats(const std::vector<std::byte>& payload) {
  WireReader r(payload);
  WorkerStats s;
  s.worker_id = r.get_u64();
  s.row_begin = r.get_u64();
  s.row_end = r.get_u64();
  s.queries = r.get_u64();
  s.masks = r.get_u64();
  s.shards_resident = r.get_u64();
  s.bytes_loaded = r.get_u64();
  s.storage_retries = r.get_u64();
  s.storage_giveups = r.get_u64();
  s.backoff_micros = r.get_u64();
  s.plan_hits = r.get_u64();
  s.plan_misses = r.get_u64();
  return s;
}

/// Decode a kError payload and rethrow it as a typed io_error.
[[noreturn]] inline void rethrow_remote_error(
    const std::vector<std::byte>& payload, int worker_id) {
  WireReader r(payload);
  throw io_error("serve: worker " + std::to_string(worker_id) +
                 " reported: " + r.get_string());
}

/// Expect a frame of `want`; a kError frame is rethrown with the worker's
/// message, anything else is a protocol violation.
inline Frame expect_frame(int fd, MsgType want, int worker_id) {
  Frame f = recv_frame(fd);
  if (f.type == want) return f;
  if (f.type == MsgType::kError) rethrow_remote_error(f.payload, worker_id);
  throw io_error(std::string("serve: expected ") + msg_type_name(want) +
                 " frame, got " + msg_type_name(f.type));
}

}  // namespace msp::serve
