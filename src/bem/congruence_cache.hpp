// Thread-safe cache of elemental Galerkin blocks keyed by the pair's
// congruence signature — the subsystem that lets assembly integrate each
// distinct pair geometry once and replay the 2x2 block for every congruent
// copy (uniform rectangular grids repeat a handful of geometries tens of
// thousands of times; see pair_signature.hpp for the invariance argument).
//
// Concurrency model: a read-mostly sharded hash map shared by the
// concurrent runs of one physics (engine::Engine keeps one table per
// physics fingerprint and starts a fresh one when the physics changes).
// The planned assembly (assembly.hpp) touches it once per pair class and
// run, not per pair: one uncounted find() per translation class (from its
// resolve workers), one insert() per integrated miss group (from the
// calling thread), and one record_lookups() with the run's per-pair tally. Per-pair lookup() traffic comes only from far-field ACA
// sampling, whose workers call the cached Integrator entries concurrently.
// Signatures are spread over 64 independently locked shards by their high
// hash bits, so concurrent callers contend only when they touch the same
// shard at the same instant. Two callers racing on the same cold key (two
// pipelined runs, or two sampling workers) may both integrate it: the
// second insert is dropped, and each caller keeps the block it integrated.
//
// A cache is valid for one kernel + integrator configuration: reuse it
// across assemblies only when soil model, series/quadrature options and
// basis are unchanged (congruent geometry alone does not pin the physics) —
// a new physics gets a new cache rather than a cleared one, so runs still
// replaying the old blocks are never disturbed.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "src/bem/integrator.hpp"
#include "src/bem/pair_signature.hpp"

namespace ebem::bem {

/// Hit/miss/occupancy counters; cumulative over the cache's lifetime.
struct CongruenceCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;  ///< distinct blocks stored

  [[nodiscard]] double hit_rate() const {
    const std::size_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }

  /// Counters accumulated since `before` was snapshotted from the same
  /// cache — the per-run delta every session consumer (Study, Report,
  /// design ladder, warm bench) reports. Saturates at zero instead of
  /// wrapping if the counters were reset (clear()) between the snapshots;
  /// `entries` is the current occupancy, not a difference.
  [[nodiscard]] CongruenceCacheStats delta_since(const CongruenceCacheStats& before) const {
    const auto sub = [](std::size_t now, std::size_t then) {
      return now >= then ? now - then : std::size_t{0};
    };
    return {.hits = sub(hits, before.hits),
            .misses = sub(misses, before.misses),
            .entries = entries};
  }
};

class CongruenceCache {
 public:
  /// Occupancy cap: on pathological (fully graded) grids nearly every pair
  /// is a distinct class, and an uncapped map would shadow the O(M^2) pair
  /// count in memory; past the cap lookups keep hitting existing entries
  /// but misses stop inserting.
  static constexpr std::size_t kDefaultMaxEntries = 1u << 20;

  explicit CongruenceCache(double quantum = kDefaultCongruenceQuantum,
                           std::size_t max_entries = kDefaultMaxEntries);
  CongruenceCache(const CongruenceCache&) = delete;
  CongruenceCache& operator=(const CongruenceCache&) = delete;

  [[nodiscard]] double quantum() const { return quantum_; }

  /// On a hit copies the stored block into `block` and returns true (counts
  /// a hit); on a miss returns false (counts a miss).
  [[nodiscard]] bool lookup(const PairSignature& signature, LocalMatrix& block) const;

  /// lookup() without touching the counters: for a caller that resolves
  /// many pairs through one lookup and credits them with record_lookups().
  [[nodiscard]] bool find(const PairSignature& signature, LocalMatrix& block) const;

  /// Add per-pair hits and misses resolved outside lookup(), keeping the
  /// lifetime counters in units of element pairs.
  void record_lookups(std::size_t hits, std::size_t misses);

  /// Store the block for `signature`; a concurrent duplicate or a full
  /// cache is silently dropped.
  void insert(const PairSignature& signature, const LocalMatrix& block);

  /// Role-canonical variants: blocks are stored in the canonical (field,
  /// source) orientation, so a transposed signature transposes the block on
  /// the way in and back out — one entry serves both orientations of a
  /// congruence class (field/source transpose reciprocity).
  [[nodiscard]] bool lookup(const CanonicalPairSignature& signature, LocalMatrix& block) const;
  void insert(const CanonicalPairSignature& signature, const LocalMatrix& block);

  [[nodiscard]] CongruenceCacheStats stats() const;

  /// Drop all entries and reset the counters (full cold start).
  void clear();

 private:
  static constexpr std::size_t kShards = 64;
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<PairSignature, LocalMatrix, PairSignatureHash> map;
  };

  /// High hash bits pick the shard; the map's bucket index uses the low
  /// bits, so shard choice and bucket spread stay independent.
  [[nodiscard]] const Shard& shard_of(const PairSignature& signature) const {
    return shards_[signature.hash >> 58];
  }
  [[nodiscard]] Shard& shard_of(const PairSignature& signature) {
    return shards_[signature.hash >> 58];
  }

  double quantum_;
  std::size_t max_entries_;
  std::array<Shard, kShards> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> entries_{0};
};

}  // namespace ebem::bem
