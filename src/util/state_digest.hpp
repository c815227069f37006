#pragma once
// Bit-exact state digests: the engine's determinism probe (DESIGN.md §7.5).
//
// A StateDigest is an ordered list of named 64-bit values capturing the
// complete mutable state of a simulation between advance_until() steps: RNG
// stream positions, event/queue counters, fleet and billing figures,
// selector partitions, metric accumulators. Doubles are folded through
// their IEEE-754 bit pattern (std::bit_cast) — never through decimal
// formatting — so two digests compare equal iff the underlying states are
// bit-identical, which is exactly the granularity at which the engine is
// deterministic.
//
// Rules for capture code:
//  * entries are appended in a deterministic order (capture routines run on
//    the coordinating thread over deterministic state), so digests compare
//    as plain ordered sequences;
//  * unordered containers must be folded through the order-insensitive
//    accumulator below (psched-lint rule D2: never iterate an unordered
//    map into order-sensitive output);
//  * no wall-clock quantity may ever enter a digest (rule D1): measured
//    selection costs and phase timers differ across runs of identical
//    simulations and would make two identical runs look divergent.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psched::util {

/// One order-insensitive accumulator for folding an unordered container
/// into a single digest entry: hash each item with `item_hash` seeded mixes,
/// then combine with commutative addition so iteration order cannot leak.
class UnorderedFold {
 public:
  /// Finalize one item's accumulated words into the fold. Typical use:
  /// per item, hash its fields with digest_mix(), then absorb().
  void absorb(std::uint64_t item_hash) noexcept {
    sum_ += item_hash;
    xor_ ^= item_hash;
    ++count_;
  }

  /// Combined order-insensitive value (sum and xor lanes mixed with count).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t v = sum_ ^ (xor_ * 0x9e3779b97f4a7c15ULL) ^ count_;
    v ^= v >> 30;
    v *= 0xbf58476d1ce4e5b9ULL;
    v ^= v >> 27;
    return v;
  }

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t xor_ = 0;
  std::uint64_t count_ = 0;
};

/// SplitMix-style combiner for hashing one item's fields before absorbing
/// it into an UnorderedFold. Order-sensitive within the item (fields have a
/// fixed order), commutative across items (via the fold).
[[nodiscard]] constexpr std::uint64_t digest_mix(std::uint64_t h,
                                                 std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

[[nodiscard]] constexpr std::uint64_t digest_mix(std::uint64_t h, double v) noexcept {
  return digest_mix(h, std::bit_cast<std::uint64_t>(v));
}

class StateDigest {
 public:
  struct Entry {
    std::string name;
    std::uint64_t value = 0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  void add_u64(std::string_view name, std::uint64_t value) {
    entries_.push_back(Entry{std::string(name), value});
  }
  void add_double(std::string_view name, double value) {
    add_u64(name, std::bit_cast<std::uint64_t>(value));
  }
  void add_bool(std::string_view name, bool value) {
    add_u64(name, static_cast<std::uint64_t>(value));
  }
  void add_size(std::string_view name, std::size_t value) {
    add_u64(name, static_cast<std::uint64_t>(value));
  }
  void add_fold(std::string_view name, const UnorderedFold& fold) {
    add_u64(name, fold.value());
  }

  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  [[nodiscard]] friend bool operator==(const StateDigest& a,
                                       const StateDigest& b) = default;

  /// Human-readable first difference versus `other` (name of the first
  /// entry that differs in name or value, or a size note); empty when the
  /// digests are bit-identical.
  [[nodiscard]] std::string first_difference(const StateDigest& other) const {
    const std::size_t n = entries_.size() < other.entries_.size()
                              ? entries_.size()
                              : other.entries_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (entries_[i].name != other.entries_[i].name) {
        return "entry " + std::to_string(i) + ": name '" + entries_[i].name +
               "' vs '" + other.entries_[i].name + "'";
      }
      if (entries_[i].value != other.entries_[i].value) {
        return entries_[i].name;
      }
    }
    if (entries_.size() != other.entries_.size()) {
      return "entry count " + std::to_string(entries_.size()) + " vs " +
             std::to_string(other.entries_.size());
    }
    return {};
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace psched::util
