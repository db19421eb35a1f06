#ifndef PPP_STORAGE_IO_STATS_H_
#define PPP_STORAGE_IO_STATS_H_

#include <cstdint>
#include <string>

namespace ppp::storage {

/// Counters for physical page traffic, maintained by the BufferPool.
///
/// Reads are classified as sequential (page id exactly one past the
/// previously read page) or random; the paper's expensive-function costs
/// are denominated in *random* I/Os, so experiment harnesses convert these
/// counters into charged time via cost::CostParams.
struct IoStats {
  uint64_t sequential_reads = 0;
  uint64_t random_reads = 0;
  uint64_t writes = 0;
  uint64_t buffer_hits = 0;

  uint64_t TotalReads() const { return sequential_reads + random_reads; }

  /// Field-wise difference against an earlier snapshot of the same
  /// counters.
  IoStats operator-(const IoStats& earlier) const {
    return {sequential_reads - earlier.sequential_reads,
            random_reads - earlier.random_reads, writes - earlier.writes,
            buffer_hits - earlier.buffer_hits};
  }
  IoStats& operator+=(const IoStats& other) {
    sequential_reads += other.sequential_reads;
    random_reads += other.random_reads;
    writes += other.writes;
    buffer_hits += other.buffer_hits;
    return *this;
  }

  void Reset() { *this = IoStats(); }

  std::string ToString() const {
    return "seq_reads=" + std::to_string(sequential_reads) +
           " rand_reads=" + std::to_string(random_reads) +
           " writes=" + std::to_string(writes) +
           " hits=" + std::to_string(buffer_hits);
  }
};

/// The page traffic the calling thread caused, across every BufferPool.
/// An execution's I/O is the delta of this across its own calls, so work
/// other threads do concurrently never leaks into it. Which of two
/// concurrent misses counts as sequential still follows the pool-wide
/// last missed page.
inline IoStats& ThreadIo() {
  thread_local IoStats io;
  return io;
}

}  // namespace ppp::storage

#endif  // PPP_STORAGE_IO_STATS_H_
