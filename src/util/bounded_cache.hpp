// The one bounded cache behind every reuse layer of the library: the plan
// cache of `ExecutionContext`, the Engine's result/splice cache, the tiled
// engine's per-shard flops, and a bound handle's per-partner flops.
//
// An insertion-ordered, fixed-capacity FIFO map. A `put` of a new key
// appends it and evicts the oldest entries beyond the capacity; a `put` of
// a present key replaces the value in place and keeps its position (a
// refresh is not a new arrival). Lookups are a linear scan over a vector:
// every cache in the library holds at most 64 entries, whose keys compare
// in a few words, so a scan beats hashing and cannot mis-serve on a hash
// collision. `K` needs only `operator==`.
//
// Pointers returned by `find` stay valid until the next `put`, `erase_if`
// or `clear` on the same cache.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace msp {

template <class K, class V>
class BoundedCache {
 public:
  /// `capacity` must be at least 1.
  explicit BoundedCache(std::size_t capacity) : capacity_(capacity) {}

  /// The value stored under `key`, or null.
  [[nodiscard]] V* find(const K& key) {
    for (auto& e : entries_) {
      if (e.first == key) return &e.second;
    }
    return nullptr;
  }

  /// Store `value` under `key`: in place when the key is present, else
  /// appended as the newest entry. Returns how many of the oldest entries
  /// were evicted to stay within the capacity (0 on a replace).
  std::size_t put(K key, V value) {
    if (V* cur = find(key)) {
      *cur = std::move(value);
      return 0;
    }
    entries_.emplace_back(std::move(key), std::move(value));
    const std::size_t evicted =
        entries_.size() > capacity_ ? entries_.size() - capacity_ : 0;
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(evicted));
    return evicted;
  }

  /// Drop every entry whose key satisfies `pred`; the survivors keep their
  /// order. Returns how many were dropped.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(
        entries_, [&](const std::pair<K, V>& e) { return pred(e.first); });
  }

  void clear() { entries_.clear(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::size_t capacity_;
  std::vector<std::pair<K, V>> entries_;  ///< oldest first
};

}  // namespace msp
