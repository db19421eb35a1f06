#include "stats/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace ppp::stats {

namespace {

/// SplitMix64 finalizer: full-avalanche mixing of a 64-bit word.
uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over raw bytes, then mixed: string hashing with avalanche.
uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return Mix64(h);
}

double AlphaFor(size_t m) {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

uint64_t StableValueHash(const types::Value& v) {
  switch (v.type()) {
    case types::TypeId::kNull:
      return Mix64(0);
    case types::TypeId::kInt64:
      return Mix64(static_cast<uint64_t>(v.AsInt64()) ^ 0x1ULL << 62);
    case types::TypeId::kBool:
      // The int 0 or 1: Value::Compare makes true == 1 == 1.0.
      return Mix64(uint64_t{v.AsBool()} ^ 0x1ULL << 62);
    case types::TypeId::kDouble: {
      // Hash numerically equal doubles and ints alike (3.0 == 3), matching
      // Value::operator==. Doubles outside int64's range (and NaN) can't
      // equal an int64 and hash by their bits.
      const double d = v.AsDouble();
      if (types::FitsInt64(d)) {
        const auto as_int = static_cast<int64_t>(d);
        if (static_cast<double>(as_int) == d) {
          return Mix64(static_cast<uint64_t>(as_int) ^ 0x1ULL << 62);
        }
      }
      // Every NaN payload hashes alike (Value::Compare makes NaNs equal).
      const double canonical =
          std::isnan(d) ? std::numeric_limits<double>::quiet_NaN() : d;
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(canonical));
      std::memcpy(&bits, &canonical, sizeof(bits));
      return Mix64(bits ^ 0x2ULL << 62);
    }
    case types::TypeId::kString: {
      const std::string& s = v.AsString();
      return HashBytes(s.data(), s.size());
    }
  }
  return 0;
}

HyperLogLog::HyperLogLog(int register_bits)
    : register_bits_(std::clamp(register_bits, 4, 18)),
      registers_(size_t{1} << register_bits_, 0) {}

void HyperLogLog::Add(uint64_t hash) {
  ++additions_;
  const size_t index = hash >> (64 - register_bits_);
  // Rank of the first set bit in the remaining 64 - b bits (1-based); a
  // zero remainder gets the maximum rank.
  const uint64_t rest = hash << register_bits_;
  const int rank =
      rest == 0 ? 65 - register_bits_ : std::countl_zero(rest) + 1;
  registers_[index] =
      std::max(registers_[index], static_cast<uint8_t>(rank));
}

double HyperLogLog::Estimate() const {
  const size_t m = registers_.size();
  double inverse_sum = 0.0;
  size_t zeros = 0;
  for (const uint8_t r : registers_) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  const double md = static_cast<double>(m);
  double estimate = AlphaFor(m) * md * md / inverse_sum;
  if (estimate <= 2.5 * md && zeros > 0) {
    // Small-range correction: linear counting on empty registers.
    estimate = md * std::log(md / static_cast<double>(zeros));
  }
  return estimate;
}

void HyperLogLog::Merge(const HyperLogLog& other) {
  PPP_CHECK(registers_.size() == other.registers_.size())
      << "cannot merge HLL sketches with different register counts";
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  additions_ += other.additions_;
}

}  // namespace ppp::stats
