// Minimal wire-protocol client: sends each argument as one request frame
// and prints the response frames — ROW payloads decoded to tab-separated
// values, everything else verbatim.
//
//   ./ppp_client <port> "QUERY SELECT count(*) FROM t3;"
//                "PREPARE q AS SELECT a FROM t3 WHERE a < $1;"
//                "EXECUTE q(100);" PING CLOSE     (one command line)
//
// Statement responses end at the OK/ERR frame; a trailing CLOSE is sent
// automatically when the arguments don't include one.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/wire.h"
#include "types/tuple.h"
#include "types/value.h"

namespace {

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads frames until the statement terminator (OK/ERR/METRICS); returns
/// false on connection loss.
bool ReadResponse(int fd, ppp::net::FrameParser* parser) {
  std::vector<std::string> payloads;
  char buf[64 * 1024];
  for (;;) {
    for (const std::string& payload : payloads) {
      if (payload.rfind("ROW ", 0) == 0) {
        auto tuple = ppp::net::DecodeRowPayload(payload);
        if (!tuple.ok()) {
          std::printf("bad ROW frame: %s\n",
                      tuple.status().message().c_str());
          continue;
        }
        std::string line;
        for (size_t i = 0; i < tuple->values().size(); ++i) {
          if (i > 0) line += "\t";
          line += tuple->values()[i].ToString();
        }
        std::printf("%s\n", line.c_str());
      } else {
        std::printf("%s\n", payload.c_str());
        if (payload.rfind("OK", 0) == 0 || payload.rfind("ERR", 0) == 0 ||
            payload.rfind("METRICS", 0) == 0) {
          return true;
        }
      }
    }
    payloads.clear();
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    if (!parser->Feed(buf, static_cast<size_t>(n), &payloads).ok()) {
      std::printf("protocol error from server\n");
      return false;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <port> <frame>...\n", argv[0]);
    return 2;
  }
  const int port = std::atoi(argv[1]);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::perror("connect");
    return 1;
  }
  ppp::net::FrameParser parser;
  bool sent_close = false;
  int rc = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string payload = argv[i];
    if (!SendAll(fd, ppp::net::EncodeFrame(payload))) {
      std::fprintf(stderr, "send failed\n");
      rc = 1;
      break;
    }
    if (payload == "CLOSE" || payload.rfind("CLOSE ", 0) == 0) {
      sent_close = true;
    }
    if (payload == "SHUTDOWN") sent_close = true;  // Server closes later.
    if (!ReadResponse(fd, &parser)) {
      if (!sent_close) {
        std::fprintf(stderr, "connection lost\n");
        rc = 1;
      }
      break;
    }
    if (sent_close) break;
  }
  if (!sent_close && rc == 0) {
    SendAll(fd, ppp::net::EncodeFrame("CLOSE"));
    ReadResponse(fd, &parser);
  }
  ::close(fd);
  return rc;
}
