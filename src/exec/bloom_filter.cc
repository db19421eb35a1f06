#include "exec/bloom_filter.h"

#include <bit>

namespace ppp::exec {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

BloomFilter::BloomFilter(size_t expected_keys) {
  // ~16 bits per key keeps the split-block FPR comfortably under 1%; the
  // block count rounds up to a power of two so selection is one mask.
  const size_t wanted_bits = expected_keys * 16;
  const size_t blocks = NextPowerOfTwo(
      wanted_bits == 0 ? 1 : (wanted_bits + kBitsPerBlock - 1) / kBitsPerBlock);
  blocks_.resize(blocks);
  block_mask_ = blocks - 1;
}

uint64_t BloomFilter::BitsSet() const {
  uint64_t total = 0;
  for (const Block& block : blocks_) {
    for (size_t w = 0; w < kWordsPerBlock; ++w) {
      total += static_cast<uint64_t>(std::popcount(block.words[w]));
    }
  }
  return total;
}

double BloomFilter::EstimatedFpr() const {
  const double load =
      static_cast<double>(BitsSet()) / static_cast<double>(num_bits());
  double fpr = 1.0;
  for (size_t i = 0; i < kWordsPerBlock; ++i) fpr *= load;
  return fpr;
}

void BloomTransfer::Publish(std::unique_ptr<BloomFilter> filter) {
  // Single producer (the owning hash join, on the coordinator thread).
  if (state_.load(std::memory_order_relaxed) != State::kEmpty) {
    return;  // Already published (rescan) or killed.
  }
  filter_ = std::move(filter);
  state_.store(State::kReady, std::memory_order_release);
}

void BloomTransfer::RecordProbes(uint64_t probed, uint64_t passed) {
  const uint64_t total_probed =
      probed_.fetch_add(probed, std::memory_order_relaxed) + probed;
  const uint64_t total_passed =
      passed_.fetch_add(passed, std::memory_order_relaxed) + passed;
  if (total_probed < min_probes) return;
  const double pass_rate = static_cast<double>(total_passed) /
                           static_cast<double>(total_probed);
  if (pass_rate > kill_pass_rate) {
    State expected = State::kReady;
    state_.compare_exchange_strong(expected, State::kKilled,
                                   std::memory_order_acq_rel);
  }
}

double BloomTransfer::MeasuredFpr() const {
  const uint64_t fp = join_misses();
  const uint64_t negatives = pruned() + fp;
  if (negatives == 0) return -1.0;
  return static_cast<double>(fp) / static_cast<double>(negatives);
}

}  // namespace ppp::exec
