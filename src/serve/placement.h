#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/sync.h"

/// \file placement.h
/// Placement policies for the sharded serving tier: given a routing key
/// (the canonical fit key from tiered_store.h), pick which replica serves it.
/// The policy is a first-class, swappable object behind a small virtual
/// interface so the router can be configured at startup (--placement) and
/// benchmarks can compare strategies head to head. Three built-ins mirror
/// the classic partitioner families:
///
///  * "hash"     — consistent hashing over a virtual-node ring. Adding or
///                 removing one replica moves only ~1/N of the key space.
///  * "range"    — static block partitioning: the 64-bit key hash space is
///                 split into `replicas` equal contiguous blocks.
///  * "affinity" — sticky-first-touch: a key is pinned to the replica that
///                 first serves it (assigned round-robin), so a hot key's
///                 fit stays cached on exactly one replica regardless of
///                 how the hash would scatter its neighbors.
///
/// Correctness note: any replica can serve any key (the canonical fit key
/// makes replies interchangeable), so placement is purely a cache-locality
/// and load-spreading decision — a "wrong" pick is never an incorrect
/// response, only a colder cache.

namespace ipso::serve {

/// FNV-1a 64-bit — deterministic across processes/platforms, which keeps
/// key→replica maps stable between router restarts (same config → same
/// routing table).
[[nodiscard]] std::uint64_t placement_hash(std::string_view bytes) noexcept;

/// Key→replica mapping strategy. Implementations must be thread-safe:
/// replica_for() is called concurrently from every event-loop shard.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Replica index in [0, replicas()) for this routing key. Non-const
  /// because stateful policies (affinity) record first-touch pins.
  [[nodiscard]] virtual std::size_t replica_for(std::string_view key) = 0;

  /// Number of replicas this policy distributes over.
  [[nodiscard]] std::size_t replicas() const noexcept { return replicas_; }

  /// Policy name as accepted by make_placement() and reported in `stats`.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

 protected:
  explicit PlacementPolicy(std::size_t replicas);
  const std::size_t replicas_;
};

/// Consistent hashing: each replica owns `vnodes` points on a 64-bit ring;
/// a key maps to the first vnode clockwise from its hash. Immutable after
/// construction (lock-free lookups).
class ConsistentHashPlacement final : public PlacementPolicy {
 public:
  explicit ConsistentHashPlacement(std::size_t replicas,
                                   std::size_t vnodes = 128);
  [[nodiscard]] std::size_t replica_for(std::string_view key) override;
  [[nodiscard]] const char* name() const noexcept override { return "hash"; }

 private:
  struct VNode {
    std::uint64_t point;
    std::uint32_t replica;
  };
  std::vector<VNode> ring_;  ///< sorted by point
};

/// Static range/block partitioning: replica = floor(hash * N / 2^64).
/// Stateless and lock-free; redistribution on resize is near-total (the
/// price of the simplest possible routing table).
class RangePlacement final : public PlacementPolicy {
 public:
  explicit RangePlacement(std::size_t replicas);
  [[nodiscard]] std::size_t replica_for(std::string_view key) override;
  [[nodiscard]] const char* name() const noexcept override { return "range"; }
};

/// Sticky-first-touch affinity: the first time a key is seen it is pinned
/// to the next replica in round-robin order; every later lookup returns the
/// pin and refreshes its recency. The pin table is bounded (LRU over pins)
/// so an adversarial key stream cannot grow it without limit — a cold key
/// evicted from the table is simply re-pinned on its next appearance, while
/// hot keys stay resident and therefore stay stuck to one replica's warm
/// cache.
class AffinityPlacement final : public PlacementPolicy {
 public:
  /// `max_pins` bounds the pin table; 0 picks a generous default.
  explicit AffinityPlacement(std::size_t replicas, std::size_t max_pins = 0);
  [[nodiscard]] std::size_t replica_for(std::string_view key) override
      IPSO_EXCLUDES(mu_);
  [[nodiscard]] const char* name() const noexcept override {
    return "affinity";
  }

  /// Current pin-table size (tests assert the bound holds).
  [[nodiscard]] std::size_t pins() const IPSO_EXCLUDES(mu_);

 private:
  /// DESIGN.md §13, capability "serve.placement" — a leaf held only over
  /// the pin-table lookup/update.
  mutable sync::Mutex mu_;
  const std::size_t max_pins_;
  /// Round-robin cursor for fresh pins.
  std::size_t next_replica_ IPSO_GUARDED_BY(mu_) = 0;
  /// Most-recently-pinned first.
  std::list<std::string> lru_ IPSO_GUARDED_BY(mu_);
  struct Pin {
    std::size_t replica;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Pin> pins_ IPSO_GUARDED_BY(mu_);
};

/// Factory for --placement: "hash", "range", or "affinity". Returns null
/// for an unknown name (callers print the accepted set).
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_placement(
    std::string_view name, std::size_t replicas);

}  // namespace ipso::serve
