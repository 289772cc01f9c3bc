// LazyIndex<Map>: a derived lookup map built on its first read.
//
// The dictionary's string -> id map and the graph's label -> node map are
// read only by lookups that the alignment request path never makes, yet
// building them eagerly cost a hash table per load, per rebind and per
// merge. A LazyIndex defers the build to the first Get().
//
// Thread-safety: Get() is safe to call from several threads on one shared
// const owner (a cached graph read by concurrent requests). The first
// caller builds under a mutex and publishes with a release store; every
// later call is one acquire load. Mutable() is for a non-const owner that
// keeps an already built map current as it grows; like every other
// mutation of that owner it must not race with readers.
//
// The map is derived data: a copy of an owner starts unbuilt and rebuilds
// on demand; a move carries the built map along.

#ifndef RDFALIGN_UTIL_LAZY_INDEX_H_
#define RDFALIGN_UTIL_LAZY_INDEX_H_

#include <atomic>
#include <mutex>
#include <utility>

namespace rdfalign {

template <typename Map>
class LazyIndex {
 public:
  LazyIndex() = default;
  LazyIndex(const LazyIndex&) {}
  LazyIndex& operator=(const LazyIndex& other) {
    if (this != &other) Reset();
    return *this;
  }
  LazyIndex(LazyIndex&& other) noexcept { *this = std::move(other); }
  LazyIndex& operator=(LazyIndex&& other) noexcept {
    if (this != &other) {
      map_ = std::move(other.map_);
      built_.store(other.built_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      other.Reset();
    }
    return *this;
  }

  /// The map, built by `build(Map*)` first if no caller has built it yet.
  template <typename Build>
  const Map& Get(Build&& build) const {
    if (!built_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!built_.load(std::memory_order_relaxed)) {
        build(&map_);
        built_.store(true, std::memory_order_release);
      }
    }
    return map_;
  }

  /// The map if it has been built, else nullptr. Never builds.
  Map* Mutable() {
    return built_.load(std::memory_order_acquire) ? &map_ : nullptr;
  }

  bool built() const { return built_.load(std::memory_order_acquire); }

 private:
  void Reset() {
    map_ = Map();
    built_.store(false, std::memory_order_relaxed);
  }

  mutable std::mutex mu_;  // serializes the one build
  mutable std::atomic<bool> built_{false};
  mutable Map map_;
};

}  // namespace rdfalign

#endif  // RDFALIGN_UTIL_LAZY_INDEX_H_
