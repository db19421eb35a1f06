#include "stats/value_runs.h"

#include <algorithm>
#include <numeric>

namespace ppp::stats {

std::vector<ValueRun> SortedRuns(std::vector<types::Value> values) {
  const size_t n = values.size();
  std::vector<ValueRun> runs;
  const bool int64 =
      std::all_of(values.begin(), values.end(), [](const types::Value& v) {
        return v.type() == types::TypeId::kInt64;
      });
  if (int64) {
    struct Key {
      int64_t key;
      size_t index;
    };
    std::vector<Key> keys;
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i) keys.push_back({values[i].AsInt64(), i});
    // Ties break on input position, so each run starts at its first copy.
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return a.key < b.key || (a.key == b.key && a.index < b.index);
    });
    for (size_t i = 0; i < n;) {
      size_t j = i + 1;
      while (j < n && keys[j].key == keys[i].key) ++j;
      runs.push_back({std::move(values[keys[i].index]), j - i});
      i = j;
    }
    return runs;
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&values](size_t a, size_t b) {
    return values[a].Compare(values[b]) < 0;
  });
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && values[order[j]].Compare(values[order[i]]) == 0) ++j;
    runs.push_back({std::move(values[order[i]]), j - i});
    i = j;
  }
  return runs;
}

}  // namespace ppp::stats
