#ifndef PPP_EXEC_BLOOM_FILTER_H_
#define PPP_EXEC_BLOOM_FILTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ppp::exec {

/// Cache-friendly register-blocked Bloom filter (the "split block" design):
/// the bit array is an array of 64-byte blocks, each eight 64-bit words.
/// Every key derives exactly two hashes from its 64-bit input hash — one
/// selects the block, the other is salted per word to pick one bit in each
/// of the eight words — so an insert or probe touches a single cache line
/// and k = 8 bits. This is the filter predicate transfer passes sideways
/// across hash joins: a probe costs a handful of register ops, i.e. it has
/// rank ≈ -inf next to any expensive UDF.
class BloomFilter {
 public:
  /// Words per block; one bit is set/tested in each.
  static constexpr size_t kWordsPerBlock = 8;
  static constexpr size_t kBitsPerBlock = kWordsPerBlock * 64;

  /// Sizes the filter for `expected_keys` at ~16 bits per key, rounded up
  /// to a power-of-two block count (so block selection is a mask).
  explicit BloomFilter(size_t expected_keys);

  /// Inserts a key by its 64-bit hash (callers hash a key exactly once and
  /// share the hash with the join's hash table — see HashJoinOp).
  void InsertHash(uint64_t hash) {
    Block& block = blocks_[BlockIndex(hash)];
    const uint64_t odd = OddHash(hash);
    for (size_t w = 0; w < kWordsPerBlock; ++w) {
      block.words[w] |= WordMask(odd, w);
    }
  }

  /// Membership test; false positives possible, false negatives never.
  bool MightContainHash(uint64_t hash) const {
    const Block& block = blocks_[BlockIndex(hash)];
    const uint64_t odd = OddHash(hash);
    for (size_t w = 0; w < kWordsPerBlock; ++w) {
      if ((block.words[w] & WordMask(odd, w)) == 0) return false;
    }
    return true;
  }

  size_t num_blocks() const { return blocks_.size(); }
  size_t num_bits() const { return blocks_.size() * kBitsPerBlock; }

  /// Number of set bits (popcount over the whole array; metric use only).
  uint64_t BitsSet() const;

  /// Predicted false-positive rate from the filter's saturation: a probe
  /// passes when all 8 tested bits are set, ≈ (bits_set / bits)^8 under
  /// the usual independence assumption.
  double EstimatedFpr() const;

 private:
  struct alignas(64) Block {
    uint64_t words[kWordsPerBlock] = {};
  };
  static_assert(sizeof(Block) == 64, "one block must be one cache line");

  size_t BlockIndex(uint64_t hash) const {
    // Fibonacci mix before masking so low-entropy hashes still spread.
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32) &
           block_mask_;
  }

  /// Second derived hash; forced odd so the per-word multiplies below are
  /// full-period.
  static uint64_t OddHash(uint64_t hash) {
    uint64_t h = hash ^ (hash >> 33);
    h *= 0xC2B2AE3D27D4EB4FULL;
    return h | 1;
  }

  /// Bit mask for word `w`: a distinct salt multiply per word, top 6 bits
  /// select the bit position (0..63).
  static uint64_t WordMask(uint64_t odd, size_t w) {
    static constexpr uint64_t kSalts[kWordsPerBlock] = {
        0x47B6137B44974D91ULL, 0x8824AD5BA2B7289DULL,
        0x705495C72DF1424BULL, 0x9EFC49475C6BFB31ULL,
        0x5C6BFB31705495C7ULL, 0x2DF1424B8824AD5BULL,
        0x9EFC494744974D91ULL, 0x47B6137BA2B7289DULL};
    return uint64_t{1} << ((odd * kSalts[w]) >> 58);
  }

  std::vector<Block> blocks_;
  size_t block_mask_ = 0;
};

/// One sideways filter handoff from a hash join's build side to a scan on
/// its probe side. The join (producer) publishes the filter once the build
/// completes; the scan (consumer) probes each batch before any predicate
/// above it runs, and falls back to pass-through while the filter is not
/// ready or after the kill switch fires.
///
/// Thread-safety: publication uses an acquire/release state flag (the
/// filter itself is immutable once published); the probe/pass counters are
/// relaxed atomics so concurrent readers (metrics, EXPLAIN) never race.
class BloomTransfer {
 public:
  BloomTransfer(std::string probe_alias, std::string probe_column,
                std::string build_alias, std::string build_column)
      : probe_alias_(std::move(probe_alias)),
        probe_column_(std::move(probe_column)),
        build_alias_(std::move(build_alias)),
        build_column_(std::move(build_column)) {}

  const std::string& probe_alias() const { return probe_alias_; }
  const std::string& probe_column() const { return probe_column_; }
  const std::string& build_alias() const { return build_alias_; }
  const std::string& build_column() const { return build_column_; }

  /// "probe <- build" site label, e.g. "t3.ua <- t10.ua1".
  std::string Site() const {
    return probe_alias_ + "." + probe_column_ + " <- " + build_alias_ + "." +
           build_column_;
  }

  /// Producer side: installs the built filter (first Open only; rescans
  /// keep the original — the build input is deterministic).
  void Publish(std::unique_ptr<BloomFilter> filter);

  /// Consumer side: the filter to probe, or nullptr while unpublished or
  /// after the kill switch disabled this transfer.
  const BloomFilter* ActiveFilter() const {
    const State s = state_.load(std::memory_order_acquire);
    return s == State::kReady ? filter_.get() : nullptr;
  }

  bool published() const {
    return state_.load(std::memory_order_acquire) != State::kEmpty;
  }

  /// Records `probed` probes, `passed` of them passing. Once at least
  /// `min_probes` rows were probed, a pass rate above `kill_pass_rate`
  /// kills the filter: it is pruning almost nothing, so the per-row probe
  /// is pure overhead.
  void RecordProbes(uint64_t probed, uint64_t passed);

  /// Join-side feedback: a row that passed the filter but found no match in
  /// the join's hash table was a false positive (counted only while the
  /// filter is actively pruning).
  void RecordJoinMiss() {
    join_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t probed() const {
    return probed_.load(std::memory_order_relaxed);
  }
  uint64_t passed() const {
    return passed_.load(std::memory_order_relaxed);
  }
  uint64_t pruned() const { return probed() - passed(); }
  uint64_t join_misses() const {
    return join_misses_.load(std::memory_order_relaxed);
  }
  bool killed() const {
    return state_.load(std::memory_order_acquire) == State::kKilled;
  }
  bool claimed() const { return claimed_; }
  void set_claimed() { claimed_ = true; }

  /// Measured false-positive rate: of the rows the filter rejected or
  /// should have rejected (pruned + join misses), the fraction it let
  /// through. Negative when no negatives were observed yet.
  double MeasuredFpr() const;

  /// Kill-switch knobs, set by the executor at creation.
  uint64_t min_probes = 512;
  double kill_pass_rate = 0.95;

 private:
  enum class State { kEmpty, kReady, kKilled };

  std::string probe_alias_;
  std::string probe_column_;
  std::string build_alias_;
  std::string build_column_;
  bool claimed_ = false;  // A probe-side scan accepted this transfer.
  std::unique_ptr<BloomFilter> filter_;
  std::atomic<State> state_{State::kEmpty};
  std::atomic<uint64_t> probed_{0};
  std::atomic<uint64_t> passed_{0};
  std::atomic<uint64_t> join_misses_{0};
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_BLOOM_FILTER_H_
