#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/system_tables.h"
#include "catalog/table.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace ppp::net {

namespace {

constexpr int kPollMillis = 100;

obs::Counter* ConnectionsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "serve.net.connections");
  return c;
}

obs::Counter* FramesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "serve.net.frames");
  return c;
}

obs::Counter* ProtocolErrorsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "serve.net.protocol_errors");
  return c;
}

/// Writes all of `data`, tolerating short writes; MSG_NOSIGNAL so a peer
/// that vanished yields EPIPE instead of killing the process.
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const long long v = std::atoll(raw);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

}  // namespace

/// Connection state machine, exported as the `state` column of
/// ppp_connections. A connection is "queued"/"running" while its latest
/// statement is; with one session per connection and per-session FIFO
/// admission, at most one statement is past admission at a time.
enum class ConnState : int { kIdle = 0, kQueued, kRunning, kClosed };

struct Server::Connection {
  uint64_t conn_id = 0;
  int fd = -1;
  std::string remote;
  std::unique_ptr<serve::Session> session;
  std::mutex write_mu;  // One statement response = one atomic write.
  std::atomic<int> state{static_cast<int>(ConnState::kIdle)};
  std::atomic<bool> closed{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> queued{0};
  std::atomic<uint64_t> shed{0};
  std::thread reader;
};

/// The server half visible to the ppp_connections provider; held by
/// shared_ptr so the provider (registered on the catalog, which outlives
/// the server) degrades to zero rows after the server is destroyed.
struct Server::Shared {
  std::mutex mu;
  std::map<uint64_t, std::shared_ptr<Connection>> conns;
  uint64_t next_conn_id = 1;
  uint64_t accepted = 0;
};

namespace {

const char* ConnStateName(int state) {
  switch (static_cast<ConnState>(state)) {
    case ConnState::kIdle:
      return "idle";
    case ConnState::kQueued:
      return "queued";
    case ConnState::kRunning:
      return "running";
    case ConnState::kClosed:
      return "closed";
  }
  return "unknown";
}

/// The live servers behind ppp_connections: the table is registered once
/// per catalog, so a server restarted over the same database re-binds it
/// to the new server's connections.
catalog::SystemTableOwners<Server::Shared>& Servers() {
  static auto* servers = new catalog::SystemTableOwners<Server::Shared>();
  return *servers;
}

void RegisterConnectionsTable(catalog::Catalog* catalog) {
  using types::TypeId;
  const catalog::Catalog* key = catalog;
  auto rows_fn = [key]() -> common::Result<std::vector<types::Tuple>> {
    std::vector<types::Tuple> rows;
    const std::shared_ptr<Server::Shared> shared = Servers().Find(key);
    if (shared == nullptr) return rows;
    std::lock_guard<std::mutex> lock(shared->mu);
    for (const auto& [id, conn] : shared->conns) {
      rows.emplace_back(std::vector<types::Value>{
          types::Value(static_cast<int64_t>(conn->conn_id)),
          types::Value(static_cast<int64_t>(
              conn->session != nullptr ? conn->session->id() : 0)),
          types::Value(conn->remote),
          types::Value(std::string(ConnStateName(conn->state.load()))),
          types::Value(static_cast<int64_t>(conn->queries.load())),
          types::Value(static_cast<int64_t>(conn->queued.load())),
          types::Value(static_cast<int64_t>(conn->shed.load()))});
    }
    return rows;
  };
  auto r = catalog->RegisterSystemTable(std::make_unique<catalog::Table>(
      "ppp_connections",
      std::vector<catalog::ColumnDef>{{"conn_id", TypeId::kInt64},
                                      {"session_id", TypeId::kInt64},
                                      {"remote", TypeId::kString},
                                      {"state", TypeId::kString},
                                      {"queries", TypeId::kInt64},
                                      {"queued", TypeId::kInt64},
                                      {"shed", TypeId::kInt64}},
      rows_fn, [key] {
        const std::shared_ptr<Server::Shared> shared = Servers().Find(key);
        if (shared == nullptr) return int64_t{0};
        std::lock_guard<std::mutex> lock(shared->mu);
        return static_cast<int64_t>(shared->conns.size());
      }));
  (void)r;  // AlreadyExists when a second server binds the same database.
}

}  // namespace

Server::Options Server::OptionsFromEnv() {
  Options options;
  options.port = static_cast<int>(EnvSize("PPP_PORT", 0));
  options.workers = EnvSize("PPP_MAX_INFLIGHT", options.workers);
  options.queue_depth = EnvSize("PPP_QUEUE_DEPTH", options.queue_depth);
  const char* timeout = std::getenv("PPP_QUEUE_TIMEOUT");
  if (timeout != nullptr && *timeout != '\0') {
    options.queue_timeout_seconds = std::atof(timeout);
  }
  return options;
}

Server::Server(workload::Database* db, serve::SessionManager* manager,
               const Options& options)
    : db_(db), manager_(manager), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  AdmissionQueue::Options queue_options;
  queue_options.max_inflight = options_.workers;
  queue_options.queue_depth = options_.queue_depth;
  queue_options.queue_timeout_seconds = options_.queue_timeout_seconds;
  queue_ = std::make_unique<AdmissionQueue>(queue_options);
  shared_ = std::make_shared<Shared>();
  Servers().Add(&db_->catalog(), shared_);
  RegisterConnectionsTable(&db_->catalog());
}

Server::~Server() {
  Stop();
  Servers().Remove(&db_->catalog(), shared_.get());
}

common::Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    return common::Status::InvalidArgument("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return common::Status::Internal(
        common::StringPrintf("socket(): %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const common::Status status = common::Status::Internal(
        common::StringPrintf("bind(port %d): %s", options_.port,
                             std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const common::Status status = common::Status::Internal(
        common::StringPrintf("listen(): %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  // The worker pool drains the admission queue until Shutdown; Run blocks
  // (the dispatcher participates as one worker), so it gets its own thread.
  pool_ = std::make_unique<common::ThreadPool>(options_.workers - 1);
  dispatch_thread_ = std::thread([this] {
    pool_->Run(options_.workers, [this](size_t) {
      for (;;) {
        std::optional<AdmissionQueue::Ticket> ticket = queue_->Dequeue();
        if (!ticket.has_value()) return;
        ticket->task(ticket->timed_out);
        if (!ticket->timed_out) queue_->Finish(ticket->session_key);
      }
    });
  });
  started_ = true;
  return common::Status::OK();
}

void Server::AcceptLoop() {
  for (;;) {
    if (draining_.load()) break;
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;  // Timeout (re-check drain flag) or EINTR.
    sockaddr_in peer;
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    conn->remote =
        common::StringPrintf("%s:%u", ip, ntohs(peer.sin_port));
    conn->session = manager_->CreateSession();
    {
      std::lock_guard<std::mutex> lock(shared_->mu);
      conn->conn_id = shared_->next_conn_id++;
      shared_->conns[conn->conn_id] = conn;
      ++shared_->accepted;
    }
    ConnectionsCounter()->Increment();
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  FrameParser parser(options_.max_frame_bytes);
  std::vector<std::string> payloads;
  char buf[64 * 1024];
  bool alive = true;
  while (alive && !conn->closed.load()) {
    if (stopping_.load()) break;
    pollfd pfd;
    pfd.fd = conn->fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // Peer closed.
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    payloads.clear();
    const common::Status status =
        parser.Feed(buf, static_cast<size_t>(n), &payloads);
    // Frames decoded before the violation still run; then the connection
    // (and only this connection) is dropped — the protocol offers no way
    // to resynchronize inside a poisoned stream.
    for (const std::string& payload : payloads) {
      FramesCounter()->Increment();
      if (!HandleFrame(conn, payload)) {
        alive = false;
        break;
      }
    }
    if (!status.ok()) {
      ProtocolErrorsCounter()->Increment();
      std::lock_guard<std::mutex> lock(conn->write_mu);
      SendAll(conn->fd, EncodeFrame("ERR " + status.message()));
      break;
    }
  }
  conn->closed.store(true);
  conn->state.store(static_cast<int>(ConnState::kClosed));
}

bool Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const std::string& payload) {
  std::string rest;
  const std::string verb = SplitVerb(payload, &rest);
  if (verb == "PING") {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    return SendAll(conn->fd, EncodeFrame("OK pong"));
  }
  if (verb == "METRICS") {
    const std::string json =
        obs::MetricsRegistry::Global().Snapshot().ToJson();
    std::lock_guard<std::mutex> lock(conn->write_mu);
    return SendAll(conn->fd, EncodeFrame("METRICS " + json));
  }
  if (verb == "CLOSE") {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    SendAll(conn->fd, EncodeFrame("OK bye"));
    return false;
  }
  if (verb == "SHUTDOWN") {
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      SendAll(conn->fd, EncodeFrame("OK draining"));
    }
    RequestShutdown();
    return true;
  }
  std::string statement;
  if (verb == "QUERY") {
    statement = rest;  // The payload after the verb is the SQL.
  } else if (verb == "PREPARE" || verb == "EXECUTE") {
    statement = payload;  // Session::Execute parses these verbs itself.
  } else {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    return SendAll(conn->fd,
                   EncodeFrame("ERR unknown request verb '" + verb + "'"));
  }
  if (statement.empty()) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    return SendAll(conn->fd, EncodeFrame("ERR empty statement"));
  }
  conn->state.store(static_cast<int>(ConnState::kQueued));
  conn->queued.fetch_add(1);
  const bool admitted = queue_->Enqueue(
      conn->session->id(),
      [this, conn, statement](bool timed_out) {
        RunStatement(conn, statement, timed_out);
      });
  if (!admitted) {
    conn->shed.fetch_add(1);
    conn->state.store(static_cast<int>(ConnState::kIdle));
    const char* why = queue_->shutdown() ? "server is draining"
                                         : "admission queue full";
    std::lock_guard<std::mutex> lock(conn->write_mu);
    return SendAll(conn->fd, EncodeFrame(common::StringPrintf(
                                 "ERR load shed: %s (queue depth %zu)", why,
                                 options_.queue_depth)));
  }
  return true;
}

void Server::RunStatement(const std::shared_ptr<Connection>& conn,
                          const std::string& statement, bool timed_out) {
  if (timed_out) {
    conn->state.store(static_cast<int>(ConnState::kIdle));
    std::lock_guard<std::mutex> lock(conn->write_mu);
    SendAll(conn->fd,
            EncodeFrame(common::StringPrintf(
                "ERR admission timeout: queued longer than %.1fs",
                options_.queue_timeout_seconds)));
    return;
  }
  conn->state.store(static_cast<int>(ConnState::kRunning));
  conn->queries.fetch_add(1);
  common::Result<serve::QueryResult> result =
      conn->session->Execute(statement);
  std::string response;
  if (!result.ok()) {
    response = EncodeFrame("ERR " + result.status().message());
  } else {
    const serve::QueryResult& r = *result;
    for (const types::Tuple& row : r.rows) {
      response += EncodeFrame(EncodeRowPayload(row));
    }
    std::string ok = common::StringPrintf(
        "OK rows=%zu cols=%zu hit=%d generic=%d optimize_us=%lld "
        "execute_us=%lld session=%llu",
        r.rows.size(), r.schema.NumColumns(), r.plan_cache_hit ? 1 : 0,
        r.generic_plan ? 1 : 0,
        static_cast<long long>(r.optimize_seconds * 1e6),
        static_cast<long long>(r.execute_seconds * 1e6),
        static_cast<unsigned long long>(conn->session->id()));
    if (r.analyzed_tables > 0) {
      ok += common::StringPrintf(" analyzed=%zu", r.analyzed_tables);
    }
    if (!r.prepared_name.empty()) ok += " prepared=" + r.prepared_name;
    ok += " schema=" + EncodeSchema(r.schema);
    response += EncodeFrame(ok);
  }
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    SendAll(conn->fd, response);
  }
  conn->state.store(static_cast<int>(ConnState::kIdle));
}

void Server::RequestShutdown() {
  draining_.store(true);
  queue_->Shutdown();
}

void Server::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || joined_) return;
  accept_thread_.join();
  // Workers exit once the queue is drained — every admitted statement has
  // run and its response has been flushed to the socket.
  dispatch_thread_.join();
  pool_.reset();
  stopping_.store(true);
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> shared_lock(shared_->mu);
    for (auto& [id, conn] : shared_->conns) conns.push_back(conn);
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
    conn->session.reset();  // Retires the ppp_sessions row to inactive.
    conn->state.store(static_cast<int>(ConnState::kClosed));
  }
  joined_ = true;
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || joined_) return;
  }
  RequestShutdown();
  Wait();
}

uint64_t Server::connections_accepted() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->accepted;
}

}  // namespace ppp::net
