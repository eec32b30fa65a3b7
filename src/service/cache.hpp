// LRU result cache of the query service.
//
// Only still_mst answers are cached: each costs milliseconds of certificate
// work, so one mutex-guarded LRU (an intrusive list over an unordered_map)
// is far below the work it saves.  Point queries and top-k are answered
// straight from the labels — cheaper than any probe.  Keys are compared for
// real equality (the hash only buckets), so a hash collision costs a lookup,
// never a wrong answer.  The capacity == 0 (disabled) path returns before
// touching the mutex.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/metrics.hpp"

namespace mpcmst::service {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

template <class Key, class Value, class Hash = std::hash<Key>>
class LruCache {
 public:
  /// At most `capacity` entries; capacity == 0 disables caching (every get
  /// misses without counting, puts are dropped).
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Is any entry ever admitted?  Lock-free; callers use it to skip key
  /// construction entirely when the cache is configured off.
  bool enabled() const noexcept { return capacity_ > 0; }

  /// Mirror hit/miss/eviction accounting into registry counters (owned by
  /// the MetricsRegistry, so their lifetime always exceeds the cache's).
  /// Null pointers (the default) cost nothing.
  void set_metric_counters(Counter* hits, Counter* misses,
                           Counter* evictions) noexcept {
    hits_metric_ = hits;
    misses_metric_ = misses;
    evictions_metric_ = evictions;
  }

  std::optional<Value> get(const Key& key) {
    if (!enabled()) return std::nullopt;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      if (misses_metric_ != nullptr) misses_metric_->inc();
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // mark most-recent
    ++hits_;
    if (hits_metric_ != nullptr) hits_metric_->inc();
    return it->second->second;
  }

  void put(const Key& key, Value value) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    map_.emplace(key, lru_.begin());
    if (map_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
      if (evictions_metric_ != nullptr) evictions_metric_->inc();
    }
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_, evictions_, map_.size()};
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<std::pair<Key, Value>> lru_;  // front = most recently used
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      map_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
  Counter* hits_metric_ = nullptr;
  Counter* misses_metric_ = nullptr;
  Counter* evictions_metric_ = nullptr;
};

}  // namespace mpcmst::service
