// The network serving subsystem: wire framing, the admission queue's
// fairness/shed/timeout semantics (deterministically, no sockets), and the
// TCP server end to end — QUERY and PREPARE/EXECUTE over a socket, the
// ppp_connections system table, load shedding under a slow-UDF pile-up,
// and the graceful drain.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/function_registry.h"
#include "net/admission.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/query_log.h"
#include "serve/session.h"
#include "types/tuple.h"
#include "types/value.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

// ---------------------------------------------------------------------------
// Wire framing

TEST(WireTest, FrameRoundtripIncludingEmbeddedNuls) {
  net::FrameParser parser;
  const std::string payload = std::string("QUERY a\0b\0c", 11);
  const std::string wire = net::EncodeFrame(payload);
  std::vector<std::string> out;
  ASSERT_TRUE(parser.Feed(wire.data(), wire.size(), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], payload);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(WireTest, ByteAtATimeFeedReassembles) {
  net::FrameParser parser;
  const std::string wire =
      net::EncodeFrame("PING") + net::EncodeFrame("QUERY SELECT 1");
  std::vector<std::string> out;
  for (char c : wire) {
    ASSERT_TRUE(parser.Feed(&c, 1, &out).ok());
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "PING");
  EXPECT_EQ(out[1], "QUERY SELECT 1");
}

TEST(WireTest, OversizedDeclaredLengthPoisonsUntilReset) {
  net::FrameParser parser(/*max_frame_bytes=*/16);
  // 4-byte big-endian length 0x01000000 = 16 MiB, over the 16-byte limit.
  const char giant[4] = {0x01, 0x00, 0x00, 0x00};
  std::vector<std::string> out;
  EXPECT_FALSE(parser.Feed(giant, 4, &out).ok());
  EXPECT_TRUE(parser.poisoned());
  // Poisoned parsers reject everything, even well-formed frames.
  const std::string fine = net::EncodeFrame("PING");
  EXPECT_FALSE(parser.Feed(fine.data(), fine.size(), &out).ok());
  EXPECT_TRUE(out.empty());
  // Reset models a fresh connection: parsing works again.
  parser.Reset();
  ASSERT_TRUE(parser.Feed(fine.data(), fine.size(), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "PING");
}

TEST(WireTest, TruncatedFrameStaysBuffered) {
  net::FrameParser parser;
  const std::string wire = net::EncodeFrame("QUERY SELECT 1");
  std::vector<std::string> out;
  ASSERT_TRUE(parser.Feed(wire.data(), wire.size() - 3, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_GT(parser.buffered(), 0u);
  ASSERT_TRUE(
      parser.Feed(wire.data() + wire.size() - 3, 3, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "QUERY SELECT 1");
}

TEST(WireTest, SchemaCodecRoundtrips) {
  std::vector<types::ColumnInfo> cols;
  cols.push_back({"t3", "a", types::TypeId::kInt64});
  cols.push_back({"t3", "ua", types::TypeId::kDouble});
  cols.push_back({"", "count()", types::TypeId::kInt64});
  const types::RowSchema schema(std::move(cols));
  const std::string text = net::EncodeSchema(schema);
  auto decoded = net::DecodeSchema(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->NumColumns(), 3u);
  EXPECT_EQ(decoded->Column(0).table, "t3");
  EXPECT_EQ(decoded->Column(0).name, "a");
  EXPECT_EQ(decoded->Column(1).type, types::TypeId::kDouble);
  EXPECT_EQ(decoded->Column(2).name, "count()");
  EXPECT_FALSE(net::DecodeSchema("no-colon-here").ok());
}

TEST(WireTest, RowPayloadRoundtrips) {
  types::Tuple tuple(std::vector<types::Value>{
      types::Value(int64_t{42}), types::Value(3.5),
      types::Value(std::string("x\0y", 3)), types::Value()});
  auto decoded = net::DecodeRowPayload(net::EncodeRowPayload(tuple));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->NumValues(), 4u);
  EXPECT_EQ(decoded->Get(0).AsInt64(), 42);
  EXPECT_EQ(decoded->Get(2).AsString(), std::string("x\0y", 3));
  EXPECT_FALSE(net::DecodeRowPayload("OK rows=0").ok());
}

TEST(WireTest, SplitVerbAndOkField) {
  std::string rest;
  EXPECT_EQ(net::SplitVerb("  query   SELECT 1", &rest), "QUERY");
  EXPECT_EQ(rest, "SELECT 1");
  EXPECT_EQ(net::SplitVerb("PING", &rest), "PING");
  EXPECT_EQ(rest, "");
  const std::string ok = "OK rows=3 cols=2 hit=1 schema=t3.a:INT64";
  EXPECT_EQ(net::OkField(ok, "rows"), "3");
  EXPECT_EQ(net::OkField(ok, "hit"), "1");
  EXPECT_EQ(net::OkField(ok, "schema"), "t3.a:INT64");
  EXPECT_EQ(net::OkField(ok, "absent"), "");
}

// ---------------------------------------------------------------------------
// Admission queue (no sockets, fully deterministic)

net::AdmissionQueue::Task Recorder(std::vector<int>* order, int tag) {
  return [order, tag](bool) { order->push_back(tag); };
}

TEST(AdmissionTest, RoundRobinAlternatesAcrossSessions) {
  net::AdmissionQueue::Options options;
  options.max_inflight = 1;
  options.queue_depth = 16;
  options.queue_timeout_seconds = 0;
  net::AdmissionQueue queue(options);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Enqueue(1, Recorder(&order, 1)));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Enqueue(2, Recorder(&order, 2)));
  }
  // One worker, immediate Finish: the dequeue order is the fairness order.
  for (int i = 0; i < 6; ++i) {
    auto ticket = queue.Dequeue();
    ASSERT_TRUE(ticket.has_value());
    EXPECT_FALSE(ticket->timed_out);
    ticket->task(false);
    queue.Finish(ticket->session_key);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(AdmissionTest, OneStatementInFlightPerSession) {
  net::AdmissionQueue::Options options;
  options.max_inflight = 4;
  options.queue_depth = 16;
  options.queue_timeout_seconds = 0;
  net::AdmissionQueue queue(options);
  std::vector<int> order;
  ASSERT_TRUE(queue.Enqueue(1, Recorder(&order, 11)));
  ASSERT_TRUE(queue.Enqueue(1, Recorder(&order, 12)));
  ASSERT_TRUE(queue.Enqueue(2, Recorder(&order, 21)));
  auto first = queue.Dequeue();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->session_key, 1u);
  // Session 1 is in flight, so its second statement must wait: the next
  // dequeue serves session 2 even though session 1 was queued first.
  auto second = queue.Dequeue();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->session_key, 2u);
  queue.Finish(1);
  auto third = queue.Dequeue();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->session_key, 1u);
  third->task(false);
  EXPECT_EQ(order, (std::vector<int>{12}));
}

TEST(AdmissionTest, ShedsWhenFullAndAfterShutdown) {
  net::AdmissionQueue::Options options;
  options.max_inflight = 1;
  options.queue_depth = 2;
  options.queue_timeout_seconds = 0;
  net::AdmissionQueue queue(options);
  EXPECT_TRUE(queue.Enqueue(1, [](bool) {}));
  EXPECT_TRUE(queue.Enqueue(1, [](bool) {}));
  EXPECT_FALSE(queue.Enqueue(1, [](bool) {}));  // Depth 2: shed.
  EXPECT_EQ(queue.total_shed(), 1u);
  queue.Shutdown();
  EXPECT_FALSE(queue.Enqueue(2, [](bool) {}));  // Draining: shed.
  // The two admitted tasks still drain.
  EXPECT_TRUE(queue.Dequeue().has_value());
  queue.Finish(1);
  EXPECT_TRUE(queue.Dequeue().has_value());
  queue.Finish(1);
  EXPECT_FALSE(queue.Dequeue().has_value());  // Drained: workers exit.
  EXPECT_EQ(queue.total_queued(), 2u);
  EXPECT_EQ(queue.total_shed(), 2u);
}

TEST(AdmissionTest, ExpiredStatementsComeBackTimedOut) {
  net::AdmissionQueue::Options options;
  options.max_inflight = 1;
  options.queue_depth = 4;
  options.queue_timeout_seconds = 0.05;
  net::AdmissionQueue queue(options);
  ASSERT_TRUE(queue.Enqueue(1, [](bool) {}));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  auto ticket = queue.Dequeue();
  ASSERT_TRUE(ticket.has_value());
  EXPECT_TRUE(ticket->timed_out);
  EXPECT_GE(ticket->queue_wait_seconds, 0.05);
  EXPECT_EQ(queue.total_timeouts(), 1u);
  // A timed-out ticket never held an in-flight slot, so a fresh statement
  // runs without any Finish for the expired one.
  ASSERT_TRUE(queue.Enqueue(1, [](bool) {}));
  auto next = queue.Dequeue();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->timed_out);
}

// ---------------------------------------------------------------------------
// Server end to end

/// Blocking test client over the real wire protocol. Send() writes one
/// frame; ReadResponse() returns the payloads of the next response (zero
/// or more ROW frames plus the OK/ERR/METRICS terminal).
class TestClient {
 public:
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Send(const std::string& payload) {
    const std::string wire = net::EncodeFrame(payload);
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  std::vector<std::string> ReadResponse() {
    std::vector<std::string> response;
    char buf[64 * 1024];
    for (;;) {
      while (!pending_.empty()) {
        std::string payload = std::move(pending_.front());
        pending_.erase(pending_.begin());
        const bool terminal = payload.rfind("OK", 0) == 0 ||
                              payload.rfind("ERR", 0) == 0 ||
                              payload.rfind("METRICS", 0) == 0;
        response.push_back(std::move(payload));
        if (terminal) return response;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return response;  // Connection closed mid-response.
      if (!parser_.Feed(buf, static_cast<size_t>(n), &pending_).ok()) {
        return response;
      }
    }
  }

  /// Raw bytes, bypassing framing (for protocol-violation tests).
  bool SendRaw(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

 private:
  int fd_ = -1;
  net::FrameParser parser_;
  std::vector<std::string> pending_;
};

std::string Terminal(const std::vector<std::string>& response) {
  return response.empty() ? std::string() : response.back();
}

std::vector<types::Tuple> DecodedRows(
    const std::vector<std::string>& response) {
  std::vector<types::Tuple> rows;
  for (const std::string& payload : response) {
    if (payload.rfind("ROW ", 0) != 0) continue;
    auto tuple = net::DecodeRowPayload(payload);
    EXPECT_TRUE(tuple.ok());
    if (tuple.ok()) rows.push_back(std::move(*tuple));
  }
  return rows;
}

class NetServerTest : public ::testing::Test {
 protected:
  static workload::Database* db() {
    static workload::Database* db = [] {
      auto* instance = new workload::Database();
      workload::BenchmarkConfig config;
      config.scale = 30;
      config.table_numbers = {1, 3};
      EXPECT_TRUE(workload::LoadBenchmarkDatabase(instance, config).ok());
      EXPECT_TRUE(workload::RegisterBenchmarkFunctions(instance).ok());
      // A slow, non-cacheable UDF: every evaluation really runs (no
      // predicate-cache skips), so invocation totals are exact, and the
      // ~1 ms sleep lets a pipelined burst out-pace the executor.
      catalog::FunctionDef def;
      def.name = "slowpass";
      def.cost_per_call = 100.0;
      def.selectivity = 1.0;
      def.return_type = types::TypeId::kBool;
      def.cacheable = false;
      def.impl = [](const std::vector<types::Value>&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        return types::Value(true);
      };
      EXPECT_TRUE(
          instance->catalog().functions().Register(std::move(def)).ok());
      return instance;
    }();
    return db;
  }
};

TEST_F(NetServerTest, QueryOverSocketMatchesInProcessExecution) {
  serve::SessionManager manager(db());
  net::Server::Options options;
  options.workers = 2;
  net::Server server(db(), &manager, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string sql = "SELECT t3.a, t3.ua FROM t3 WHERE t3.a < 20;";
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("QUERY " + sql));
  const auto response = client.ReadResponse();
  const std::string ok = Terminal(response);
  ASSERT_EQ(ok.rfind("OK", 0), 0u) << ok;
  EXPECT_EQ(net::OkField(ok, "rows"), "20");

  auto schema = net::DecodeSchema(net::OkField(ok, "schema"));
  ASSERT_TRUE(schema.ok());
  const std::vector<types::Tuple> rows = DecodedRows(response);
  ASSERT_EQ(rows.size(), 20u);

  auto session = manager.CreateSession();
  auto direct = session->Execute(sql);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(workload::CanonicalResults(rows, *schema),
            workload::CanonicalResults(direct->rows, direct->schema));

  ASSERT_TRUE(client.Send("PING"));
  EXPECT_EQ(Terminal(client.ReadResponse()), "OK pong");
  ASSERT_TRUE(client.Send("CLOSE"));
  EXPECT_EQ(Terminal(client.ReadResponse()), "OK bye");
  server.Stop();
}

TEST_F(NetServerTest, ExplainOverSocketReturnsThePlanColumn) {
  serve::SessionManager manager(db());
  net::Server::Options options;
  options.workers = 2;
  net::Server server(db(), &manager, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string sql = "SELECT t3.a, t3.ua FROM t3 WHERE t3.a < 20;";
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (const std::string prefix : {"EXPLAIN ", "EXPLAIN ANALYZE "}) {
    ASSERT_TRUE(client.Send("QUERY " + prefix + sql));
    const auto response = client.ReadResponse();
    const std::string ok = Terminal(response);
    ASSERT_EQ(ok.rfind("OK", 0), 0u) << ok;
    auto schema = net::DecodeSchema(net::OkField(ok, "schema"));
    ASSERT_TRUE(schema.ok()) << prefix;
    ASSERT_EQ(schema->NumColumns(), 1u) << prefix;
    EXPECT_EQ(schema->Column(0).name, "plan") << prefix;
    const std::vector<types::Tuple> rows = DecodedRows(response);
    ASSERT_FALSE(rows.empty()) << prefix;
    EXPECT_EQ(net::OkField(ok, "rows"), std::to_string(rows.size()));
    const std::string root = rows[0].Get(0).AsString();
    EXPECT_NE(root.find("{rows="), std::string::npos) << root;
    EXPECT_EQ(root.find("actual rows=") != std::string::npos,
              prefix == "EXPLAIN ANALYZE ")
        << root;
  }
  ASSERT_TRUE(client.Send("CLOSE"));
  EXPECT_EQ(Terminal(client.ReadResponse()), "OK bye");
  server.Stop();
}

TEST_F(NetServerTest, AnalyzeReportsItsOwnExecuteTime) {
  // Its own database: the collected statistics would otherwise reach the
  // plans of the other tests sharing db().
  workload::Database db;
  workload::BenchmarkConfig config;
  config.scale = 30;
  config.table_numbers = {3};
  ASSERT_TRUE(workload::LoadBenchmarkDatabase(&db, config).ok());
  serve::SessionManager manager(&db);
  net::Server::Options options;
  options.workers = 1;
  net::Server server(&db, &manager, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("QUERY ANALYZE t3;"));
  const std::string ok = Terminal(client.ReadResponse());
  ASSERT_EQ(ok.rfind("OK", 0), 0u) << ok;
  EXPECT_EQ(net::OkField(ok, "analyzed"), "1");
  EXPECT_GT(std::atoll(net::OkField(ok, "execute_us").c_str()), 0) << ok;
  ASSERT_TRUE(client.Send("CLOSE"));
  EXPECT_EQ(Terminal(client.ReadResponse()), "OK bye");
  server.Stop();
}

TEST_F(NetServerTest, PreparedStatementsHitTheFamilyCacheAcrossLiterals) {
  serve::SessionManager manager(db());
  net::Server::Options options;
  options.workers = 2;
  net::Server server(db(), &manager, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(
      "PREPARE bya AS SELECT t3.a FROM t3 WHERE t3.a < $1;"));
  std::string ok = Terminal(client.ReadResponse());
  ASSERT_EQ(ok.rfind("OK", 0), 0u) << ok;
  EXPECT_EQ(net::OkField(ok, "prepared"), "bya");

  // First EXECUTE compiles (and plants the generic plan); every later
  // EXECUTE with a *different* literal must reuse it: hit=1 generic=1.
  ASSERT_TRUE(client.Send("EXECUTE bya(5);"));
  ok = Terminal(client.ReadResponse());
  ASSERT_EQ(ok.rfind("OK", 0), 0u) << ok;
  EXPECT_EQ(net::OkField(ok, "rows"), "5");
  EXPECT_EQ(net::OkField(ok, "hit"), "0");
  for (int bound = 6; bound <= 10; ++bound) {
    ASSERT_TRUE(client.Send("EXECUTE bya(" + std::to_string(bound) + ");"));
    ok = Terminal(client.ReadResponse());
    ASSERT_EQ(ok.rfind("OK", 0), 0u) << ok;
    EXPECT_EQ(net::OkField(ok, "rows"), std::to_string(bound));
    EXPECT_EQ(net::OkField(ok, "hit"), "1") << ok;
    EXPECT_EQ(net::OkField(ok, "generic"), "1") << ok;
  }
  EXPECT_GE(manager.plan_cache().family_hits(), 5u);
  ASSERT_TRUE(client.Send("CLOSE"));
  client.ReadResponse();
  server.Stop();
}

TEST_F(NetServerTest, ConnectionsTableAndMetricsFrame) {
  serve::SessionManager manager(db());
  net::Server server(db(), &manager, net::Server::Options{});
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("QUERY SELECT count(*) FROM ppp_connections;"));
  const auto response = client.ReadResponse();
  ASSERT_EQ(Terminal(response).rfind("OK", 0), 0u) << Terminal(response);
  const std::vector<types::Tuple> rows = DecodedRows(response);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GE(rows[0].Get(0).AsInt64(), 1);  // At least this connection.

  ASSERT_TRUE(client.Send("METRICS"));
  const std::string metrics = Terminal(client.ReadResponse());
  ASSERT_EQ(metrics.rfind("METRICS ", 0), 0u);
  EXPECT_NE(metrics.find("serve.net.connections"), std::string::npos);
  ASSERT_TRUE(client.Send("CLOSE"));
  client.ReadResponse();
  server.Stop();
}

TEST_F(NetServerTest, MalformedFrameDropsOnlyThatConnection) {
  serve::SessionManager manager(db());
  net::Server server(db(), &manager, net::Server::Options{});
  ASSERT_TRUE(server.Start().ok());

  TestClient bad;
  ASSERT_TRUE(bad.Connect(server.port()));
  // Declared length 0x40000001 exceeds the 4 MiB cap: the server answers
  // ERR and drops this connection.
  ASSERT_TRUE(bad.SendRaw(std::string("\x40\x00\x00\x01", 4)));
  const std::string err = Terminal(bad.ReadResponse());
  EXPECT_EQ(err.rfind("ERR", 0), 0u) << err;

  // The server survives: a fresh connection still serves queries.
  TestClient good;
  ASSERT_TRUE(good.Connect(server.port()));
  ASSERT_TRUE(good.Send("QUERY SELECT count(*) FROM t1;"));
  EXPECT_EQ(Terminal(good.ReadResponse()).rfind("OK", 0), 0u);
  ASSERT_TRUE(good.Send("CLOSE"));
  good.ReadResponse();
  server.Stop();
}

// The admission satellite: a slow-UDF pile-up against workers=1 and a
// depth-2 queue. Two interleaved connections pipeline 2x-queue-depth
// statements; the server must shed (never hang), serve both sessions, and
// after the drain the executed/shed split must account for every
// statement — with exact UDF invocation totals for the executed ones.
TEST_F(NetServerTest, SlowUdfPileUpShedsFairlyWithExactTotals) {
  obs::QueryLog::Global().Clear();
  serve::SessionManager manager(db());

  // Per-query UDF invocations, measured in-process: t1 has 30 rows and
  // slowpass is non-cacheable, so every statement costs exactly this many.
  uint64_t per_query = 0;
  {
    auto session = manager.CreateSession();
    auto r = session->Execute("SELECT count(*) FROM t1 WHERE slowpass(t1.a);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const obs::QueryLogRecord& rec : obs::QueryLog::Global().Snapshot()) {
      per_query += rec.udf_invocations;
    }
    ASSERT_GT(per_query, 0u);
  }
  obs::QueryLog::Global().Clear();

  net::Server::Options options;
  options.workers = 1;
  options.queue_depth = 2;
  options.queue_timeout_seconds = 0;  // Shed, never time out, in this test.
  net::Server server(db(), &manager, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient a;
  TestClient b;
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(b.Connect(server.port()));
  const std::string sql = "QUERY SELECT count(*) FROM t1 WHERE slowpass(t1.a);";
  // Deterministic timeline against the ~90 ms statement (30 rows x 3 ms of
  // non-cacheable UDF sleep). The pauses order the enqueues; they are tiny
  // next to the statement runtime, so the worker is still inside the first
  // statement when the queue-filling and shed sends land.
  const auto pause = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  ASSERT_TRUE(a.Send(sql));  // Admitted and immediately running.
  pause();
  ASSERT_TRUE(b.Send(sql));  // Queued (the worker is busy): depth 1 of 2.
  pause();
  ASSERT_TRUE(a.Send(sql));  // Queued: depth 2 of 2, the queue is full.
  pause();
  ASSERT_TRUE(a.Send(sql));  // Shed.
  ASSERT_TRUE(b.Send(sql));  // Shed.
  ASSERT_TRUE(a.Send(sql));  // Shed.
  ASSERT_TRUE(b.Send(sql));  // Shed.
  int ok_count = 0;
  int shed_count = 0;
  const auto classify = [&](const std::string& terminal) {
    if (terminal.rfind("OK", 0) == 0) {
      ++ok_count;
    } else {
      ASSERT_NE(terminal.find("load shed"), std::string::npos) << terminal;
      ++shed_count;
    }
  };
  for (int i = 0; i < 4; ++i) classify(Terminal(a.ReadResponse()));
  for (int i = 0; i < 3; ++i) classify(Terminal(b.ReadResponse()));
  // Every statement was answered (no hangs): 3 executed, 4 shed — exactly.
  EXPECT_EQ(ok_count, 3);
  EXPECT_EQ(shed_count, 4);
  EXPECT_EQ(server.admission().total_shed(),
            static_cast<uint64_t>(shed_count));

  // Fair dequeue: both piled-up sessions got their statements through.
  std::set<uint64_t> sessions_served;
  uint64_t udf_total = 0;
  for (const obs::QueryLogRecord& rec : obs::QueryLog::Global().Snapshot()) {
    sessions_served.insert(rec.session_id);
    udf_total += rec.udf_invocations;
  }
  EXPECT_EQ(sessions_served.size(), 2u);
  // Exact accounting after the drain: executed statements did all their
  // UDF work, shed statements did none.
  EXPECT_EQ(udf_total, static_cast<uint64_t>(ok_count) * per_query);

  ASSERT_TRUE(a.Send("CLOSE"));
  a.ReadResponse();
  ASSERT_TRUE(b.Send("CLOSE"));
  b.ReadResponse();
  server.Stop();
}

TEST_F(NetServerTest, ShutdownFrameDrainsInFlightStatements) {
  serve::SessionManager manager(db());
  net::Server::Options options;
  options.workers = 1;
  options.queue_depth = 8;
  net::Server server(db(), &manager, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Pipeline two slow statements, then SHUTDOWN: both were admitted before
  // the drain began, so both must still be answered with full results.
  const std::string sql = "QUERY SELECT count(*) FROM t1 WHERE slowpass(t1.a);";
  ASSERT_TRUE(client.Send(sql));
  ASSERT_TRUE(client.Send(sql));
  ASSERT_TRUE(client.Send("SHUTDOWN"));
  int oks = 0;
  for (int i = 0; i < 3; ++i) {
    const std::string terminal = Terminal(client.ReadResponse());
    if (terminal.rfind("OK", 0) == 0) ++oks;
  }
  EXPECT_EQ(oks, 3);  // Two statement OKs + "OK draining".
  server.Wait();
  // After the drain, new connections are refused (the listener is gone).
  TestClient late;
  EXPECT_FALSE(late.Connect(server.port()));
}

}  // namespace
}  // namespace ppp
