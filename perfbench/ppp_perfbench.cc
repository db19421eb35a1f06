// ppp_perfbench — the repository benchmark. See README.md beside this file
// for the workloads, the metrics and how to run it.
//
// One process per run. The process builds the benchmark database, starts
// the real net::Server over serve::SessionManager on loopback, and drives
// it from this same process with closed-loop TCP clients: every client
// sends its next statement only after the reply to the previous one. The
// statement list is fixed by the seed and always sent whole — its length
// is `seconds` times the workload's nominal rate — so counts repeat.
//
// Layers are measured only from outside the engine: wire frames and the
// optimize_us / execute_us fields of OK frames, timed calls to public
// layer functions, and deltas of MetricsRegistry::SnapshotCounters().
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. Exit status is non-zero when any statement failed or
// returned rows that differ from the in-process reference.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/plan_history.h"
#include "obs/query_log.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "optimizer/optimizer.h"
#include "serve/session.h"
#include "subquery/rewrite.h"
#include "workload/database.h"
#include "workload/schema_gen.h"

namespace {

using namespace ppp;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSinceStart(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Nearest-rank percentile; `p` in [0, 100]. 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

volatile uint64_t g_host_ref_sink = 0;

/// Fixed integer loop timed before and after each run: a diagnostic of how
/// fast the host ran this process, printed beside the run's metrics. It is
/// never used to drop or rescale a run.
double HostRefMs() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t acc = 0;
  for (uint64_t i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * (i | 1);
  }
  g_host_ref_sink = acc;
  return Since(start) * 1e3;
}

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// --------------------------------------------------------------------------
// Workloads

struct Statement {
  std::string payload;  ///< Request frame: "QUERY <sql>" or "EXECUTE ...".
  std::string sql;      ///< The statement with its literal in place.
  std::string cls;      ///< Statement class, for the per-class report.
  bool analyze = false;

  /// What serve::Session::Execute takes for the same request.
  std::string SessionText() const {
    return payload.rfind("QUERY ", 0) == 0 ? payload.substr(6) : payload;
  }
};

struct Family {
  std::string name;
  std::string body;  ///< SELECT with one `$1` slot.
  int64_t domain = 0;

  Statement Execute(int64_t v, const std::string& cls) const {
    Statement s;
    s.payload = common::StringPrintf("EXECUTE %s(%lld);", name.c_str(),
                                     static_cast<long long>(v));
    s.sql = Bind(v);
    s.cls = cls;
    return s;
  }
  Statement Query(int64_t v, const std::string& cls) const {
    Statement s;
    s.sql = Bind(v);
    s.payload = "QUERY " + s.sql;
    s.cls = cls;
    return s;
  }
  std::string Bind(int64_t v) const {
    std::string out = body;
    const std::string literal = std::to_string(v);
    for (size_t at = out.find("$1"); at != std::string::npos;
         at = out.find("$1", at + literal.size())) {
      out.replace(at, 2, literal);
    }
    return out;
  }
};

struct Workload {
  std::string name;
  int64_t scale = 0;
  std::vector<int> tables;
  size_t buffer_pages = 256;
  size_t connections = 1;
  bool share_caches = true;
  /// The UDFs the statements call. They must share one declared cost
  /// (checked at start-up), so charged time follows from the engine-wide
  /// invocation counter alone.
  std::vector<std::string> udfs;
  std::vector<Family> families;
  /// PREPARE the families on every connection (EXECUTE workloads).
  bool prepare = true;
  /// Empty the engine-wide §5.1 caches after the warm-up, so each run's
  /// list refills them once: an exactly repeating number of real UDF calls.
  bool cold_pred_caches = false;
  /// Distinct texts the correctness reference recomputes, as a seeded
  /// sample; 0 checks every text.
  size_t reference_sample = 0;
  std::vector<Statement> warm;   ///< Run once per set-up, untimed.
  std::vector<Statement> list;   ///< The timed list.
};

Statement Analyze(const std::string& table) {
  Statement s;
  s.sql = "ANALYZE " + table + ";";
  s.payload = "QUERY " + s.sql;
  s.cls = "analyze";
  s.analyze = true;
  return s;
}

/// Statements per second each workload's list is sized for, on a 4-core
/// host; a run sends seconds × rate statements.
double NominalRate(const std::string& name) {
  if (name == "point_hits") return 20000;
  if (name == "udf_join") return 300;
  return 120;
}

// point_hits: index-point statements on the unique tK.a joined through an
// index to a second table, with a cheap UDF on the joined rows. Literals
// are skewed: most come from a per-family hot set the warm-up already ran
// (plan cache and §5.1 caches warm); a tenth are cold keys that pay their
// first UDF calls once. The buffer pool holds all data.
Workload PointHits(uint64_t seed, size_t n, int64_t scale) {
  Workload w;
  w.name = "point_hits";
  w.scale = scale > 0 ? scale : 200;
  w.tables = {3, 6, 10};
  w.buffer_pages = 1024;
  w.connections = 4;
  w.udfs = {"costly1"};
  const int64_t s = w.scale;
  w.families = {
      {"ph3",
       "SELECT t3.a, t3.u10, t10.a, t10.u100 FROM t3, t10 WHERE t3.a = $1 "
       "AND t3.a10 = t10.a10 AND costly1(t10.ua);",
       3 * s},
      {"ph10",
       "SELECT t10.a, t10.u10, t6.a, t6.u100 FROM t10, t6 WHERE t10.a = $1 "
       "AND t10.a20 = t6.a20 AND costly1(t6.ua);",
       10 * s},
      {"ph6",
       "SELECT t6.a, t6.u10, t3.a, t3.u100 FROM t6, t3 WHERE t6.a = $1 "
       "AND t6.a10 = t3.a10 AND costly1(t3.ua);",
       6 * s},
  };
  // The hot sets are part of the workload's definition, the same for every
  // seed, so the warm-up covers the same keys and the cold keys the list
  // adds repeat across seeds; the seed draws the list itself.
  common::Random hot_rng(0x5EED);
  constexpr int kHot = 32;
  std::vector<std::vector<int64_t>> hot(w.families.size());
  for (size_t f = 0; f < w.families.size(); ++f) {
    for (int i = 0; i < kHot; ++i) {
      hot[f].push_back(hot_rng.NextInt64(0, w.families[f].domain - 1));
      w.warm.push_back(w.families[f].Execute(hot[f].back(), "warm"));
      w.warm.push_back(w.families[f].Query(hot[f].back(), "warm"));
    }
  }
  common::Random rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t i = 0; i < n; ++i) {
    const size_t f = rng.NextUint64(w.families.size());
    const double u = rng.NextDouble();
    const int64_t hot_v = hot[f][rng.NextUint64(kHot)];
    if (u < 0.8) {
      w.list.push_back(w.families[f].Execute(hot_v, "execute_hot"));
    } else if (u < 0.9) {
      const int64_t cold = rng.NextInt64(0, w.families[f].domain - 1);
      w.list.push_back(w.families[f].Execute(cold, "execute_cold"));
    } else {
      w.list.push_back(w.families[f].Query(hot_v, "query_hot"));
    }
  }
  return w;
}

// udf_join: Q5-family EXECUTEs — an expensive match100 join predicate over
// four tables — with the t10.u10 bound drawn by the seed. The warm-up
// compiles the family's generic plan; the engine-wide §5.1 caches are then
// emptied, so the first statements of the list refill them (a fixed set of
// match100 and selective100 calls, paid once per run) and every later
// statement is pure join work and cache probing.
Workload UdfJoin(uint64_t seed, size_t n, int64_t scale) {
  Workload w;
  w.name = "udf_join";
  w.scale = scale > 0 ? scale : 30;
  w.tables = {3, 6, 7, 10};
  w.buffer_pages = 1024;
  w.connections = 4;
  w.cold_pred_caches = true;
  w.udfs = {"match100", "selective100"};
  w.families = {
      {"q5",
       "SELECT * FROM t7, t3, t6, t10 WHERE match100(t7.ua, t3.ua) AND "
       "t3.a10 = t6.a10 AND t6.ua = t10.ua1 AND t10.u10 < $1 AND "
       "selective100(t3.ua);",
       // t10.u10 is uniform over [0, scale); Q5 bounds it at scale / 10.
       std::max<int64_t>(2, w.scale / 5)},
  };
  const Family& q5 = w.families[0];
  w.warm.push_back(q5.Execute(q5.domain / 2, "warm"));
  common::Random rng(seed * 0x9E3779B97F4A7C15ull + 2);
  for (size_t i = 0; i < n; ++i) {
    w.list.push_back(q5.Execute(rng.NextInt64(1, q5.domain), "execute"));
  }
  return w;
}

// cold_placement: one connection of fresh-literal Q1/Q4/Q5-shape statements
// with point predicates, each paying parse, bind, optimize, real UDF calls
// and page reads (the tables are several times the 256-page pool and the
// §5.1 caches are not shared across statements), plus an ANALYZE t10 about
// every 25 statements, which invalidates the cached plans.
Workload ColdPlacement(uint64_t seed, size_t n, int64_t scale) {
  Workload w;
  w.name = "cold_placement";
  w.scale = scale > 0 ? scale : 1000;
  w.tables = {3, 6, 7, 10};
  w.buffer_pages = 256;
  w.connections = 1;
  w.share_caches = false;
  w.prepare = false;
  // Nearly every text is fresh and its reference runs cold: check a sample.
  w.reference_sample = 300;
  w.udfs = {"costly100", "match100", "selective100"};
  const int64_t s = w.scale;
  w.families = {
      {"c1",
       "SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND t10.a10 = $1 AND "
       "costly100(t10.ua);",
       s},
      {"c4",
       "SELECT * FROM t3, t6, t10 WHERE t3.a10 = t6.a10 AND t6.ua = t10.ua1 "
       "AND t6.a20 = $1 AND costly100(t3.ua);",
       (6 * s) / 20},
      {"c5",
       "SELECT * FROM t7, t3, t6, t10 WHERE match100(t7.ua, t3.ua) AND "
       "t3.a10 = t6.a10 AND t6.ua = t10.ua1 AND t10.a10 = $1 AND "
       "t7.a20 = $1 AND selective100(t3.ua);",
       (7 * s) / 20},
  };
  // Families are sent as QUERY with literals: the point of this workload
  // is the plan-cache miss path. Warm-up: one statement per shape.
  for (size_t f = 0; f < w.families.size(); ++f) {
    w.warm.push_back(w.families[f].Query(0, "warm"));
  }
  // A fixed schedule keeps every stretch of the list the same mix: ANALYZE
  // every 25th statement, every 10th a repeat of the text sent 7 fresh
  // statements earlier, the shapes in rotation otherwise. Each shape's
  // literals walk a seeded permutation of its domain, so they are fresh and
  // a run's total work hardly depends on the seed, which draws the order.
  common::Random rng(seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<std::vector<int64_t>> literals(w.families.size());
  for (size_t f = 0; f < w.families.size(); ++f) {
    for (int64_t v = 1; v < w.families[f].domain; ++v) {
      literals[f].push_back(v);
    }
    for (size_t i = literals[f].size(); i > 1; --i) {
      std::swap(literals[f][i - 1], literals[f][rng.NextUint64(i)]);
    }
  }
  constexpr size_t kRepeatDistance = 7;
  std::vector<Statement> sent;
  size_t next_family = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 25 == 24) {
      w.list.push_back(Analyze("t10"));
      continue;
    }
    if (i % 10 == 9 && sent.size() >= kRepeatDistance) {
      Statement again = sent[sent.size() - kRepeatDistance];
      again.cls = "repeat";
      w.list.push_back(again);
      continue;
    }
    const size_t f = next_family % w.families.size();
    const std::vector<int64_t>& domain = literals[f];
    const int64_t v = domain[(next_family++ / w.families.size()) %
                             domain.size()];
    w.list.push_back(w.families[f].Query(v, w.families[f].name));
    sent.push_back(w.list.back());
  }
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                  int64_t scale, Workload* out) {
  const size_t n = static_cast<size_t>(
      std::max(1.0, std::round(seconds * NominalRate(name))));
  if (name == "point_hits") {
    *out = PointHits(seed, n, scale);
  } else if (name == "udf_join") {
    *out = UdfJoin(seed, n, scale);
  } else if (name == "cold_placement") {
    *out = ColdPlacement(seed, n, scale);
  } else {
    return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// Benchmark-side tracing: spans around the calls into each layer, kept in
// memory and written as Chrome trace JSON when the run ends.

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }

  void Add(std::string name, std::string cat, Clock::time_point start,
           Clock::time_point end, int tid,
           std::vector<std::pair<std::string, std::string>> args = {}) {
    if (!on_) return;
    obs::SpanEvent e;
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.ts_us = MicrosSinceStart(start);
    e.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
    e.tid = tid;
    e.args = std::move(args);
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
  }

  void Merge(std::vector<obs::SpanEvent> events) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (obs::SpanEvent& e : events) events_.push_back(std::move(e));
  }

  common::Status Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    return obs::WriteChromeTrace(path, events_);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

 private:
  const bool on_;
  mutable std::mutex mu_;
  std::vector<obs::SpanEvent> events_;
};

/// Times one phase on the main thread and records it as a span.
class Phase {
 public:
  Phase(SpanLog* log, std::string name)
      : log_(log), name_(std::move(name)), start_(Clock::now()) {}
  ~Phase() { log_->Add(name_, "phase", start_, Clock::now(), 0); }
  double seconds() const { return Since(start_); }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  SpanLog* log_;
  std::string name_;
  Clock::time_point start_;
};

// --------------------------------------------------------------------------
// Loopback client

class Client {
 public:
  Client() = default;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Send(const std::string& payload, uint64_t* bytes) {
    const std::string wire = net::EncodeFrame(payload);
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    *bytes += wire.size();
    return true;
  }

  /// Payloads of the next response: ROW* then the OK/ERR terminal. Empty
  /// when the connection closed before a terminal frame arrived.
  std::vector<std::string> ReadResponse(uint64_t* bytes) {
    std::vector<std::string> response;
    char buf[64 * 1024];
    for (;;) {
      while (next_ < pending_.size()) {
        std::string payload = std::move(pending_[next_++]);
        const bool terminal = payload.rfind("OK", 0) == 0 ||
                              payload.rfind("ERR", 0) == 0;
        response.push_back(std::move(payload));
        if (terminal) {
          if (next_ == pending_.size()) {
            pending_.clear();
            next_ = 0;
          }
          return response;
        }
      }
      pending_.clear();
      next_ = 0;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return {};
      *bytes += static_cast<uint64_t>(n);
      if (!parser_.Feed(buf, static_cast<size_t>(n), &pending_).ok()) {
        return {};
      }
    }
  }

 private:
  int fd_ = -1;
  net::FrameParser parser_;
  std::vector<std::string> pending_;
  size_t next_ = 0;
};

/// One statement's outcome, compact enough to keep for every statement of
/// a long list: rows are reduced to an order-independent digest as they
/// arrive, after the latency clock has stopped.
struct Reply {
  bool answered = false;
  bool ok = false;
  uint32_t rows = 0;
  uint64_t row_digest = 0;   ///< Sum of the ROW payloads' hashes.
  uint64_t schema_hash = 0;  ///< Key into RunResult::schemas.
  double latency_s = 0.0;
  double done_s = 0.0;       ///< Completion time since the run started.
  uint64_t bytes = 0;        ///< Request + response bytes on the wire.
  double optimize_us = 0.0;
  double execute_us = 0.0;
};

struct RunResult {
  std::vector<Reply> replies;
  /// The OK frames' schema texts, by hash.
  std::map<uint64_t, std::string> schemas;
  /// ERR texts (and lost connections), by statement index.
  std::map<size_t, std::string> errors;
  double wall_s = 0.0;
};

/// Statement spans a traced run keeps at most; longer lists keep every
/// k-th statement.
constexpr size_t kMaxStatementSpans = 20000;

/// Sends `list` over the first `nconn` clients, statement i on client
/// i % nconn, each client in a closed loop. Latency is send to terminal
/// frame; rows are hashed after it and checked after the run.
RunResult RunList(const std::vector<std::unique_ptr<Client>>& clients,
                  size_t nconn, const std::vector<Statement>& list,
                  SpanLog* spans, const std::string& label) {
  RunResult out;
  out.replies.resize(list.size());
  nconn = std::max<size_t>(1, std::min(nconn, clients.size()));
  const size_t span_every =
      std::max<size_t>(1, list.size() / kMaxStatementSpans);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<std::vector<obs::SpanEvent>> thread_spans(nconn);
  std::vector<std::map<uint64_t, std::string>> thread_schemas(nconn);
  std::vector<std::map<size_t, std::string>> thread_errors(nconn);
  Clock::time_point start;  // Written before `go` is released.
  for (size_t c = 0; c < nconn; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Client& client = *clients[c];
      for (size_t i = c; i < list.size(); i += nconn) {
        Reply& r = out.replies[i];
        const Clock::time_point t0 = Clock::now();
        std::vector<std::string> frames;
        if (client.Send(list[i].payload, &r.bytes)) {
          frames = client.ReadResponse(&r.bytes);
        }
        const Clock::time_point t1 = Clock::now();
        if (frames.empty()) {  // Connection lost: the rest go unanswered.
          thread_errors[c][i] = "connection lost";
          return;
        }
        r.answered = true;
        r.latency_s = std::chrono::duration<double>(t1 - t0).count();
        r.done_s = std::chrono::duration<double>(t1 - start).count();
        const std::string& terminal = frames.back();
        r.ok = terminal.rfind("OK", 0) == 0;
        if (!r.ok) {
          thread_errors[c][i] = terminal;
          continue;
        }
        r.rows = static_cast<uint32_t>(frames.size() - 1);
        for (size_t f = 0; f + 1 < frames.size(); ++f) {
          r.row_digest += Fnv1a(frames[f]);
        }
        std::string schema = net::OkField(terminal, "schema");
        r.schema_hash = Fnv1a(schema);
        thread_schemas[c].emplace(r.schema_hash, std::move(schema));
        r.optimize_us =
            std::atof(net::OkField(terminal, "optimize_us").c_str());
        r.execute_us = std::atof(net::OkField(terminal, "execute_us").c_str());
        if (spans->on() && i % span_every == 0) {
          obs::SpanEvent e;
          e.name = list[i].cls;
          e.cat = "stmt";
          e.ts_us = MicrosSinceStart(t0);
          e.dur_us = r.latency_s * 1e6;
          e.tid = static_cast<int>(c) + 1;
          e.args = {{"stmt", std::to_string(i)},
                    {"parent", label},
                    {"optimize_us", std::to_string(r.optimize_us)},
                    {"execute_us", std::to_string(r.execute_us)},
                    {"bytes", std::to_string(r.bytes)}};
          thread_spans[c].push_back(std::move(e));
        }
      }
    });
  }
  while (ready.load() < nconn) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const Clock::time_point end = Clock::now();
  out.wall_s = std::chrono::duration<double>(end - start).count();
  spans->Add(label, "phase", start, end, 0,
             {{"statements", std::to_string(list.size())},
              {"connections", std::to_string(nconn)}});
  for (size_t c = 0; c < nconn; ++c) {
    spans->Merge(std::move(thread_spans[c]));
    out.schemas.merge(thread_schemas[c]);
    out.errors.merge(thread_errors[c]);
  }
  return out;
}

// --------------------------------------------------------------------------
// Engine set-up

struct Engine {
  std::unique_ptr<workload::Database> db;
  std::unique_ptr<serve::SessionManager> manager;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  double load_s = 0.0;
  double warm_s = 0.0;
  double total_s = 0.0;

  /// Closes the clients and drains the server; the database stays.
  void StopServer() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    manager.reset();
  }
};

serve::SessionManager::Options ManagerOptions(const Workload& w) {
  serve::SessionManager::Options options;
  options.share_predicate_caches = w.share_caches;
  return options;
}

/// Load, index and ANALYZE the tables, start the server, connect the
/// clients, PREPARE the families and run the warm-up pass.
common::Result<std::unique_ptr<Engine>> SetUp(const Workload& w,
                                              SpanLog* spans) {
  auto e = std::make_unique<Engine>();
  const Clock::time_point start = Clock::now();
  {
    Phase phase(spans, "setup.load");
    e->db = std::make_unique<workload::Database>(w.buffer_pages);
    workload::BenchmarkConfig config;
    config.scale = w.scale;
    config.table_numbers = w.tables;
    PPP_RETURN_IF_ERROR(workload::LoadBenchmarkDatabase(e->db.get(), config));
    PPP_RETURN_IF_ERROR(workload::RegisterBenchmarkFunctions(e->db.get()));
    // Loading leaves dirty pages; write them now so no run pays for them.
    e->db->pool().FlushAll();
    e->load_s = phase.seconds();
  }
  {
    Phase phase(spans, "setup.server");
    e->manager = std::make_unique<serve::SessionManager>(e->db.get(),
                                                         ManagerOptions(w));
    net::Server::Options options;
    options.workers = 4;
    e->server = std::make_unique<net::Server>(e->db.get(), e->manager.get(),
                                              options);
    PPP_RETURN_IF_ERROR(e->server->Start());
    for (size_t c = 0; c < w.connections; ++c) {
      auto client = std::make_unique<Client>();
      if (!client->Connect(e->server->port())) {
        return common::Status::Internal("connect to loopback server failed");
      }
      for (const Family& f : w.families) {
        if (!w.prepare) break;
        uint64_t bytes = 0;
        const std::string prepare = "PREPARE " + f.name + " AS " + f.body;
        if (!client->Send(prepare, &bytes)) {
          return common::Status::Internal("PREPARE send failed");
        }
        const std::vector<std::string> r = client->ReadResponse(&bytes);
        if (r.empty() || r.back().rfind("OK", 0) != 0) {
          return common::Status::Internal(
              "PREPARE failed: " + (r.empty() ? "no reply" : r.back()));
        }
      }
      e->clients.push_back(std::move(client));
    }
  }
  {
    Phase phase(spans, "setup.warm");
    const RunResult warm =
        RunList(e->clients, w.connections, w.warm, spans, "warm");
    if (!warm.errors.empty()) {
      const auto& [i, error] = *warm.errors.begin();
      return common::Status::Internal("warm-up statement failed: " +
                                       w.warm[i].payload + " -> " + error);
    }
    if (w.cold_pred_caches) e->manager->shared_caches().Clear();
    e->warm_s = phase.seconds();
  }
  e->total_s = Since(start);
  return e;
}

// --------------------------------------------------------------------------
// Correctness: digests of the rows off the wire against a plain in-process
// Session (plan cache off, §5.1 caches not shared), computed after the
// timed phase.

struct Verdict {
  size_t failed = 0;   ///< ERR, shed, timed out or unanswered.
  size_t wrong = 0;    ///< Answered OK with rows unlike the reference.
  size_t checked = 0;  ///< Statements compared against the reference.
  std::string first_problem;
};

/// The reference rows re-encoded in the wire response's column order and
/// digested the way RunList digests ROW frames.
common::Result<std::pair<uint32_t, uint64_t>> ReferenceDigest(
    const serve::QueryResult& ref, const std::string& wire_schema) {
  PPP_ASSIGN_OR_RETURN(types::RowSchema schema,
                       net::DecodeSchema(wire_schema));
  std::vector<size_t> order;
  for (const types::ColumnInfo& col : schema.columns()) {
    size_t k = 0;
    while (k < ref.schema.NumColumns() &&
           ref.schema.Column(k).QualifiedName() != col.QualifiedName()) {
      ++k;
    }
    if (k == ref.schema.NumColumns()) {
      return common::Status::InvalidArgument("column " + col.QualifiedName() +
                                             " missing from the reference");
    }
    order.push_back(k);
  }
  uint64_t digest = 0;
  for (const types::Tuple& row : ref.rows) {
    std::vector<types::Value> values;
    for (const size_t k : order) values.push_back(row.Get(k));
    digest += Fnv1a(net::EncodeRowPayload(types::Tuple(std::move(values))));
  }
  return std::make_pair(static_cast<uint32_t>(ref.rows.size()), digest);
}

Verdict Verify(workload::Database* db, const Workload& w,
               const RunResult& run, uint64_t seed) {
  Verdict v;
  auto problem = [&v](const std::string& what) {
    if (v.first_problem.empty()) v.first_problem = what;
  };
  std::set<std::string> texts;
  for (const Statement& s : w.list) {
    if (!s.analyze) texts.insert(s.sql);
  }
  std::vector<std::string> chosen(texts.begin(), texts.end());
  if (w.reference_sample > 0 && chosen.size() > w.reference_sample) {
    common::Random rng(seed ^ 0xC0FFEEull);
    for (size_t i = 0; i < w.reference_sample; ++i) {
      std::swap(chosen[i], chosen[i + rng.NextUint64(chosen.size() - i)]);
    }
    chosen.resize(w.reference_sample);
  }
  serve::SessionManager::Options options;
  options.plan_cache_enabled = false;
  options.share_predicate_caches = false;
  serve::SessionManager manager(db, options);
  std::unique_ptr<serve::Session> session = manager.CreateSession();
  // The wire schemas each checked text was answered with; the reference
  // rows are digested once per schema and then dropped.
  std::map<std::string, std::set<uint64_t>> schemas_of;
  for (const std::string& sql : chosen) schemas_of[sql];
  for (size_t i = 0; i < w.list.size(); ++i) {
    auto it = schemas_of.find(w.list[i].sql);
    if (run.replies[i].ok && it != schemas_of.end()) {
      it->second.insert(run.replies[i].schema_hash);
    }
  }
  std::map<std::pair<std::string, uint64_t>, std::pair<uint32_t, uint64_t>>
      expected;
  for (const auto& [sql, schemas] : schemas_of) {
    if (schemas.empty()) continue;
    auto r = session->Execute(sql);
    if (!r.ok()) {
      ++v.wrong;
      problem("reference failed: " + sql + " -> " + r.status().ToString());
      continue;
    }
    for (const uint64_t schema : schemas) {
      auto digest = ReferenceDigest(*r, run.schemas.at(schema));
      if (!digest.ok()) {
        ++v.wrong;
        problem(sql + ": " + digest.status().ToString());
        continue;
      }
      expected.emplace(std::make_pair(sql, schema), *digest);
    }
  }
  for (size_t i = 0; i < w.list.size(); ++i) {
    const Reply& r = run.replies[i];
    const Statement& s = w.list[i];
    if (!r.ok) {
      ++v.failed;
      auto e = run.errors.find(i);
      problem(s.payload + " -> " +
              (e == run.errors.end() ? "no answer" : e->second));
      continue;
    }
    if (s.analyze || !schemas_of.count(s.sql)) continue;
    ++v.checked;
    auto it = expected.find(std::make_pair(s.sql, r.schema_hash));
    if (it == expected.end() ||
        it->second != std::make_pair(r.rows, r.row_digest)) {
      ++v.wrong;
      problem("wrong rows for " + s.payload);
    }
  }
  return v;
}

// --------------------------------------------------------------------------
// Counters

using Counters = std::map<std::string, uint64_t>;

Counters Snapshot() {
  return obs::MetricsRegistry::Global().SnapshotCounters();
}

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto get = [&](const Counters& c) -> uint64_t {
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
  };
  return static_cast<double>(get(after) - get(before));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The paper's currency over a counter interval (§2): page reads and
/// writes plus invocations × declared cost, in random-I/O units — the
/// same formula as workload::ChargedTime, fed from engine-wide deltas.
struct Charged {
  double page_reads = 0;
  double writes = 0;
  double udf_calls = 0;
  double plan_cache_misses = 0;
  double total = 0;
};

Charged ChargedBetween(const Counters& before, const Counters& after,
                       double udf_cost) {
  const cost::CostParams params;
  Charged c;
  const double seq =
      Delta(before, after, "storage.buffer_pool.sequential_reads");
  const double rnd = Delta(before, after, "storage.buffer_pool.random_reads");
  c.page_reads = seq + rnd;
  c.writes = Delta(before, after, "storage.buffer_pool.writes");
  c.udf_calls = Delta(before, after, "expr.udf.invocations");
  c.plan_cache_misses = Delta(before, after, "serve.plan_cache.misses");
  c.total = seq * params.seq_page_io + rnd * params.rand_page_io +
            c.writes * params.seq_page_io +
            c.udf_calls * udf_cost * params.rand_page_io;
  return c;
}

common::Result<double> DeclaredUdfCost(const workload::Database& db,
                                       const Workload& w) {
  double cost = -1;
  for (const std::string& name : w.udfs) {
    PPP_ASSIGN_OR_RETURN(const catalog::FunctionDef* def,
                         db.catalog().functions().Lookup(name));
    if (!def->charge_invocations) {
      return common::Status::InvalidArgument(name + " is not charged");
    }
    if (cost >= 0 && def->cost_per_call != cost) {
      return common::Status::InvalidArgument(
          "workload UDFs must share one declared cost");
    }
    cost = def->cost_per_call;
  }
  return cost;
}

// --------------------------------------------------------------------------
// Per-layer replays (traced run only)

struct PlanReplay {
  double parse_bind_us = 0;
  double optimize_us = 0;
  double subplans = 0;
};

/// Times subquery::ParseBindRewrite and Optimizer::Optimize in-process on
/// the workload's distinct SELECT texts.
common::Result<PlanReplay> ReplayPlanning(workload::Database* db,
                                          const Workload& w, SpanLog* spans) {
  Phase phase(spans, "replay.plan");
  std::vector<std::string> texts;
  std::set<std::string> seen;
  for (const Statement& s : w.list) {
    if (!s.analyze && seen.insert(s.sql).second) texts.push_back(s.sql);
    if (texts.size() == 200) break;
  }
  const serve::SessionOptions defaults;
  const optimizer::Optimizer opt(&db->catalog(), defaults.cost_params);
  std::vector<double> parse_us, optimize_us;
  double subplans = 0;
  for (const std::string& sql : texts) {
    const Clock::time_point t0 = Clock::now();
    auto spec = subquery::ParseBindRewrite(sql, &db->catalog());
    const Clock::time_point t1 = Clock::now();
    if (!spec.ok()) return spec.status();
    auto result = opt.Optimize(*spec, defaults.algorithm);
    const Clock::time_point t2 = Clock::now();
    if (!result.ok()) return result.status();
    spans->Add("parse_bind", "parser", t0, t1, 0);
    spans->Add("optimize", "optimizer", t1, t2, 0);
    parse_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    optimize_us.push_back(
        std::chrono::duration<double, std::micro>(t2 - t1).count());
    subplans += static_cast<double>(result->dp_stats.subplans_generated);
  }
  PlanReplay out;
  out.parse_bind_us = Median(parse_us);
  out.optimize_us = Median(optimize_us);
  out.subplans = Ratio(subplans, static_cast<double>(texts.size()));
  return out;
}

/// Thread CPU time over wall time across Session::Execute calls, with four
/// threads each driving its own session over a fresh manager (warmed with
/// the workload's warm-up statements first).
common::Result<double> ReplayCpuShare(workload::Database* db,
                                      const Workload& w, SpanLog* spans) {
  Phase phase(spans, "replay.execute");
  constexpr size_t kThreads = 4;
  serve::SessionManager manager(db, ManagerOptions(w));
  std::vector<std::unique_ptr<serve::Session>> sessions;
  for (size_t t = 0; t < kThreads; ++t) {
    sessions.push_back(manager.CreateSession());
    for (const Family& f : w.families) {
      if (!w.prepare) break;
      PPP_RETURN_IF_ERROR(sessions.back()->Prepare(f.name, f.body).status());
    }
  }
  for (const Statement& s : w.warm) {
    PPP_RETURN_IF_ERROR(sessions[0]->Execute(s.SessionText()).status());
  }
  const size_t n = std::min(
      w.list.size(), static_cast<size_t>(2 * NominalRate(w.name)));
  std::vector<double> cpu(kThreads, 0.0), wall(kThreads, 0.0);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kThreads) {
        const Clock::time_point w0 = Clock::now();
        const double c0 = ThreadCpuSeconds();
        auto r = sessions[t]->Execute(w.list[i].SessionText());
        cpu[t] += ThreadCpuSeconds() - c0;
        wall[t] += Since(w0);
        if (!r.ok()) {
          errors[t] = r.status().ToString();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) return common::Status::Internal("replay: " + e);
  }
  double c = 0, wsum = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    c += cpu[t];
    wsum += wall[t];
  }
  return Ratio(c, wsum);
}

void SetTelemetryStores(bool on) {
  obs::QueryLog::Global().set_enabled(on);
  obs::PlanAudit::Global().set_enabled(on);
  obs::PlanHistory::Global().set_enabled(on);
}

/// Median latency with the query log, plan audit and plan history on
/// (the defaults) minus the median with all three off — what
/// PPP_QUERY_LOG=0 PPP_PLAN_AUDIT=0 PPP_PLAN_HISTORY=0 would save —
/// over alternating blocks of the workload's list, in microseconds.
double TelemetryCostUs(const Engine& e, const Workload& w, SpanLog* spans) {
  const size_t block = std::min<size_t>(w.list.size(), 20000);
  const std::vector<Statement> slice(w.list.begin(), w.list.begin() + block);
  std::vector<double> on, off;
  for (int b = 0; b < 6; ++b) {
    const bool enabled = b % 2 == 0;
    SetTelemetryStores(enabled);
    const RunResult r = RunList(e.clients, w.connections, slice, spans,
                                enabled ? "telemetry.on" : "telemetry.off");
    for (const Reply& reply : r.replies) {
      (enabled ? on : off).push_back(reply.latency_s * 1e6);
    }
  }
  SetTelemetryStores(true);
  return Median(on) - Median(off);
}

// --------------------------------------------------------------------------
// Output

/// The answered statements cut into equal-count chunks in completion order,
/// at most kMaxChunks. qps and p50 use chunks of at least
/// kRateChunkStatements, p99 chunks of at least kTailChunkStatements (so a
/// chunk's p99 has ten samples beyond it). Each figure is the median over
/// its chunks, so a burst of host noise that covers less than half the run
/// does not move it; a list shorter than two chunks is one chunk.
constexpr size_t kRateChunkStatements = 100;
constexpr size_t kTailChunkStatements = 1000;
constexpr size_t kMaxChunks = 20;

struct Chunked {
  struct Chunk {
    double qps = 0, p50_ms = 0, p99_ms = 0;
  };
  std::vector<Chunk> chunks;
  double qps = 0, p50_ms = 0, p99_ms = 0;
};

Chunked ChunkRun(const RunResult& run, size_t min_statements) {
  std::vector<const Reply*> done;
  for (const Reply& r : run.replies) {
    if (r.ok) done.push_back(&r);
  }
  std::sort(done.begin(), done.end(), [](const Reply* a, const Reply* b) {
    return a->done_s < b->done_s;
  });
  Chunked out;
  if (done.empty()) return out;
  const size_t k =
      std::clamp<size_t>(done.size() / min_statements, 1, kMaxChunks);
  double prev_end = 0;
  std::vector<double> qps, p50, p99;
  for (size_t c = 0; c < k; ++c) {
    const size_t lo = c * done.size() / k;
    const size_t hi = (c + 1) * done.size() / k;
    std::vector<double> lat;
    for (size_t i = lo; i < hi; ++i) lat.push_back(done[i]->latency_s * 1e3);
    Chunked::Chunk chunk;
    const double end = done[hi - 1]->done_s;
    chunk.qps = static_cast<double>(hi - lo) / std::max(end - prev_end, 1e-9);
    chunk.p50_ms = Percentile(lat, 50);
    chunk.p99_ms = Percentile(lat, 99);
    prev_end = end;
    out.chunks.push_back(chunk);
    qps.push_back(chunk.qps);
    p50.push_back(chunk.p50_ms);
    p99.push_back(chunk.p99_ms);
  }
  out.qps = Median(qps);
  out.p50_ms = Median(p50);
  out.p99_ms = Median(p99);
  return out;
}

void AddMetric(std::string* json, const std::string& name, double value,
               const std::string& unit) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) end = buf + std::snprintf(buf, sizeof(buf), "0");
  if (json->back() != '{') *json += ", ";
  *json += "\"" + name + "\": {\"value\": " + std::string(buf, end) +
           ", \"unit\": \"" + unit + "\"}";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  int64_t scale = 0;
  std::string trace_dir = ".bench_build/perfbench/traces";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--scale") {
      a->scale = std::atoll(v.c_str());
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

int Run(const Args& args) {
  const double ref_before = HostRefMs();
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.seconds, args.scale, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  SpanLog spans(traced);

  // Set up kSetups times; keep the last engine for the run.
  std::vector<double> setup_s, load_s, warm_s;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < kSetups; ++i) {
    if (engine) engine->StopServer();
    engine.reset();
    auto e = SetUp(w, &spans);
    if (!e.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   e.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*e);
    setup_s.push_back(engine->total_s);
    load_s.push_back(engine->load_s);
    warm_s.push_back(engine->warm_s);
  }
  auto udf_cost = DeclaredUdfCost(*engine->db, w);
  if (!udf_cost.ok()) {
    std::fprintf(stderr, "%s\n", udf_cost.status().ToString().c_str());
    return 1;
  }

  // The timed list.
  const Counters before = Snapshot();
  const RunResult run =
      RunList(engine->clients, w.connections, w.list, &spans, "run");
  const Counters after = Snapshot();
  const double n = static_cast<double>(w.list.size());
  const Charged charged = ChargedBetween(before, after, *udf_cost);

  std::vector<double> lat_ms, plan_us, exec_us, outside_us, analyze_ms;
  double bytes = 0;
  for (size_t i = 0; i < run.replies.size(); ++i) {
    const Reply& r = run.replies[i];
    if (!r.ok) continue;
    lat_ms.push_back(r.latency_s * 1e3);
    bytes += static_cast<double>(r.bytes);
    if (w.list[i].analyze) {
      analyze_ms.push_back(r.latency_s * 1e3);
      continue;
    }
    plan_us.push_back(r.optimize_us);
    exec_us.push_back(r.execute_us);
    outside_us.push_back(r.latency_s * 1e6 - r.optimize_us - r.execute_us);
  }

  // Traced extras that need the server: telemetry cost and 1-connection
  // scaling baseline.
  double telemetry_us = 0, qps_1conn = 0;
  if (traced && w.name == "point_hits") {
    telemetry_us = TelemetryCostUs(*engine, w, &spans);
  }
  if (traced && w.name == "udf_join") {
    const RunResult one =
        RunList(engine->clients, 1, w.list, &spans, "run.1conn");
    qps_1conn = ChunkRun(one, kRateChunkStatements).qps;
  }
  engine->StopServer();

  const Verdict verdict = Verify(engine->db.get(), w, run, args.seed);
  const size_t failed = verdict.failed + verdict.wrong;
  const bool correct = verdict.wrong == 0;

  PlanReplay plan;
  double cpu_share = 0;
  if (traced) {
    auto p = ReplayPlanning(engine->db.get(), w, &spans);
    auto c = ReplayCpuShare(engine->db.get(), w, &spans);
    if (!p.ok() || !c.ok()) {
      std::fprintf(stderr, "replay failed: %s %s\n",
                   p.status().ToString().c_str(),
                   c.status().ToString().c_str());
      return 1;
    }
    plan = *p;
    cpu_share = *c;
  }
  engine.reset();
  const double ref_after = HostRefMs();

  // Diagnostics, then the result line.
  const Chunked rate = ChunkRun(run, kRateChunkStatements);
  const Chunked tail = ChunkRun(run, kTailChunkStatements);
  std::printf("perfbench: workload=%s seed=%llu statements=%zu "
              "connections=%zu scale=%lld latency_samples=%zu p99_chunks=%zu "
              "p99_samples_beyond_each=%zu wall_s=%.3f\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.list.size(), w.connections, static_cast<long long>(w.scale),
              lat_ms.size(), tail.chunks.size(),
              lat_ms.size() / std::max<size_t>(1, tail.chunks.size()) / 100,
              run.wall_s);
  std::printf("perfbench: latency_ms q1=%.4f q2=%.4f q3=%.4f p99=%.4f "
              "max=%.4f host.ref_ms before=%.2f after=%.2f\n",
              Percentile(lat_ms, 25), Percentile(lat_ms, 50),
              Percentile(lat_ms, 75), Percentile(lat_ms, 99),
              Percentile(lat_ms, 100), ref_before, ref_after);
  {
    std::string qps_s, p50_s, p99_s;
    for (const Chunked::Chunk& c : rate.chunks) {
      qps_s += common::StringPrintf(" %.1f", c.qps);
      p50_s += common::StringPrintf(" %.4f", c.p50_ms);
    }
    for (const Chunked::Chunk& c : tail.chunks) {
      p99_s += common::StringPrintf(" %.4f", c.p99_ms);
    }
    std::printf("perfbench: chunks qps=[%s ] p50_ms=[%s ] p99_ms=[%s ]\n",
                qps_s.c_str(), p50_s.c_str(), p99_s.c_str());
  }
  std::map<std::string, std::vector<double>> by_class;
  for (size_t i = 0; i < run.replies.size(); ++i) {
    if (run.replies[i].ok) {
      by_class[w.list[i].cls].push_back(run.replies[i].latency_s * 1e3);
    }
  }
  for (const auto& [cls, v] : by_class) {
    std::printf("perfbench: class %-13s share=%.4f p50_ms=%.4f "
                "p99_ms=%.4f\n",
                cls.c_str(), static_cast<double>(v.size()) / n,
                Percentile(v, 50), Percentile(v, 99));
  }
  std::printf("perfbench: counts statements=%zu udf_calls=%.0f "
              "page_reads=%.0f writes=%.0f plan_cache_misses=%.0f "
              "charged=%.0f\n",
              w.list.size(), charged.udf_calls, charged.page_reads,
              charged.writes, charged.plan_cache_misses, charged.total);
  std::printf("perfbench: failed=%zu wrong=%zu checked=%zu "
              "failed_share=%.6f%s%s\n",
              verdict.failed, verdict.wrong, verdict.checked,
              static_cast<double>(failed) / n,
              verdict.first_problem.empty() ? "" : " first_problem=",
              verdict.first_problem.c_str());

  std::string metrics = "{";
  if (!traced) {
    AddMetric(&metrics, "qps", rate.qps, "1/s");
    AddMetric(&metrics, "lat_p50_ms", rate.p50_ms, "ms");
    AddMetric(&metrics, "lat_p99_ms", tail.p99_ms, "ms");
    AddMetric(&metrics, "ok_share", 1.0 - static_cast<double>(failed) / n,
              "share");
    AddMetric(&metrics, "setup_s", Median(setup_s), "s");
    AddMetric(&metrics, "rss_mb", PeakRssMb(), "MB");
    AddMetric(&metrics, "charged_per_stmt", charged.total / n, "io");
  } else {
    const double plan_med = Median(plan_us);
    const double exec_med = Median(exec_us);
    const double outside_med = Median(outside_us);
    const double pc_hits = Delta(before, after, "serve.plan_cache.hits");
    const double probes =
        Delta(before, after, "exec.predicate_cache.hits") +
        Delta(before, after, "exec.predicate_cache.misses");
    const double pool_hits =
        Delta(before, after, "storage.buffer_pool.hits");
    AddMetric(&metrics, "net.outside_us", outside_med, "us");
    AddMetric(&metrics, "net.bytes_per_stmt", bytes / n, "B");
    AddMetric(&metrics, "net.admission_queued",
              Delta(before, after, "serve.admission.queued"), "count");
    AddMetric(&metrics, "net.admission_shed",
              Delta(before, after, "serve.admission.shed"), "count");
    AddMetric(&metrics, "serve.plan_us", plan_med, "us");
    AddMetric(&metrics, "serve.plan_cache_hit_ratio",
              Ratio(pc_hits, pc_hits + charged.plan_cache_misses), "ratio");
    AddMetric(&metrics, "serve.plan_cache_misses", charged.plan_cache_misses,
              "count");
    AddMetric(&metrics, "serve.plan_cache_invalidations",
              Delta(before, after, "serve.plan_cache.invalidations"),
              "count");
    AddMetric(&metrics, "parser.parse_bind_us", plan.parse_bind_us, "us");
    AddMetric(&metrics, "optimizer.optimize_us", plan.optimize_us, "us");
    AddMetric(&metrics, "optimizer.subplans_per_stmt", plan.subplans,
              "count");
    AddMetric(&metrics, "exec.execute_us", exec_med, "us");
    AddMetric(&metrics, "exec.cpu_share", cpu_share, "ratio");
    AddMetric(&metrics, "exec.pred_cache_hit_ratio",
              Ratio(Delta(before, after, "exec.predicate_cache.hits"), probes),
              "ratio");
    AddMetric(&metrics, "exec.pred_cache_contended_share",
              Ratio(Delta(before, after,
                          "exec.predicate_cache.shard_contention"),
                    probes),
              "ratio");
    AddMetric(&metrics, "expr.udf_calls_per_stmt", charged.udf_calls / n,
              "count");
    AddMetric(&metrics, "storage.page_reads_per_stmt",
              charged.page_reads / n, "count");
    AddMetric(&metrics, "storage.pool_hit_ratio",
              Ratio(pool_hits, pool_hits + charged.page_reads), "ratio");
    AddMetric(&metrics, "stats.analyze_ms", Median(analyze_ms), "ms");
    AddMetric(&metrics, "obs.telemetry_us", telemetry_us, "us");
    AddMetric(&metrics, "setup.load_s", Median(load_s), "s");
    AddMetric(&metrics, "setup.warm_s", Median(warm_s), "s");
    AddMetric(&metrics, "udf_join.qps_1conn", qps_1conn, "1/s");
    AddMetric(&metrics, "trace.qps", rate.qps, "1/s");
    AddMetric(&metrics, "trace.unattributed_us",
              rate.p50_ms * 1e3 - (outside_med + plan_med + exec_med),
              "us");
    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    const common::Status written = spans.Write(path);
    std::printf("perfbench: spans=%zu written to %s (%s)\n", spans.size(),
                path.c_str(), written.ToString().c_str());
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", w.list.size(), failed,
              metrics.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ppp_perfbench --workload point_hits|udf_join|"
                 "cold_placement --seed N --seconds S --trace 0|1 "
                 "[--scale K] [--trace-dir DIR]\n");
    return 2;
  }
  return Run(args);
}
