// Shared test helper: a blocking one-shot HTTP request against a loopback
// listener, for the tests that talk to an obs::HttpExporter over a real
// socket (http_exporter_test.cc, serve_test.cc).

#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

namespace optinter {
namespace testing {

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the raw
/// response (headers + body), or "" on connect failure.
inline std::string HttpGet(int port, const std::string& path,
                           const std::string& method = "GET") {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string request =
      method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[2048];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

}  // namespace testing
}  // namespace optinter
