#include "src/bem/congruence_cache.hpp"

#include "src/common/error.hpp"

namespace ebem::bem {

CongruenceCache::CongruenceCache(double quantum, std::size_t max_entries)
    : quantum_(quantum), max_entries_(max_entries) {
  EBEM_EXPECT(quantum > 0.0, "congruence quantum must be positive");
}

bool CongruenceCache::find(const PairSignature& signature, LocalMatrix& block) const {
  const Shard& shard = shard_of(signature);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.map.find(signature);
  if (it == shard.map.end()) return false;
  block = it->second;
  return true;
}

bool CongruenceCache::lookup(const PairSignature& signature, LocalMatrix& block) const {
  const bool hit = find(signature, block);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void CongruenceCache::record_lookups(std::size_t hits, std::size_t misses) {
  hits_.fetch_add(hits, std::memory_order_relaxed);
  misses_.fetch_add(misses, std::memory_order_relaxed);
}

void CongruenceCache::insert(const PairSignature& signature, const LocalMatrix& block) {
  if (entries_.load(std::memory_order_relaxed) >= max_entries_) return;
  Shard& shard = shard_of(signature);
  const std::scoped_lock lock(shard.mutex);
  if (shard.map.try_emplace(signature, block).second) {
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool CongruenceCache::lookup(const CanonicalPairSignature& signature, LocalMatrix& block) const {
  if (!lookup(signature.signature, block)) return false;
  if (signature.transposed) block = transposed(block);
  return true;
}

void CongruenceCache::insert(const CanonicalPairSignature& signature, const LocalMatrix& block) {
  insert(signature.signature, signature.transposed ? transposed(block) : block);
}

CongruenceCacheStats CongruenceCache::stats() const {
  CongruenceCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  return stats;
}

void CongruenceCache::clear() {
  for (Shard& shard : shards_) {
    const std::scoped_lock lock(shard.mutex);
    shard.map.clear();
  }
  entries_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace ebem::bem
