// TcpServerTransport end to end: a real localhost socket client drives a
// session on a server thread, and the transcript must be byte-identical to
// the same requests served over a stream transport.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"

namespace minim::serve {
namespace {

class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool connected() const { return fd_ >= 0; }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t wrote =
          ::send(fd_, text.data() + sent, text.size() - sent, 0);
      ASSERT_GT(wrote, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until `count` response lines have arrived (or the peer closes).
  std::string read_lines(std::size_t count) {
    std::string all;
    char ch;
    while (count > 0 && ::recv(fd_, &ch, 1, 0) == 1) {
      all.push_back(ch);
      if (ch == '\n') --count;
    }
    return all;
  }

  std::string read_to_eof() {
    std::string all;
    char chunk[4096];
    while (true) {
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) break;
      all.append(chunk, static_cast<std::size_t>(got));
    }
    return all;
  }

 private:
  int fd_ = -1;
};

const char kRequests[] =
    "join 10 10 20\n"
    "join 15 10 20\n"
    "join 40 40 10\n"
    "code 1\n"
    "conflicts 0\n"
    "move 2 12 12\n"
    "power 1 25\n"
    "bogus\n"
    "leave 0\n"
    "stats\n";

std::string serve_over_stream(const std::string& requests) {
  std::istringstream in(requests);
  std::ostringstream out;
  StreamTransport transport(in, out, "test");
  AssignmentEngine engine{std::string("minim")};
  serve_session(engine, transport);
  return out.str();
}

TEST(TcpServerTransport, SessionMatchesStreamTransportByteForByte) {
  TcpServerTransport transport(0);
  ASSERT_GT(transport.port(), 0);
  EXPECT_EQ(transport.describe(),
            "tcp:127.0.0.1:" + std::to_string(transport.port()));

  AssignmentEngine engine{std::string("minim")};
  SessionStats stats;
  std::thread server([&] {
    stats = serve_session(engine, transport);
    transport.disconnect();  // hand the client its EOF
  });

  std::string tcp_responses;
  {
    Client client(transport.port());
    if (!client.connected()) {
      server.detach();  // cannot happen on loopback; avoid a hang if it does
      FAIL() << "connect: " << std::strerror(errno);
    }
    client.send_all(kRequests);
    client.shutdown_write();
    tcp_responses = client.read_to_eof();
  }
  server.join();

  EXPECT_EQ(tcp_responses, serve_over_stream(kRequests));
  EXPECT_EQ(stats.lines, 10u);
  EXPECT_EQ(stats.events, 6u);
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.errors, 1u);
  // The engine state survived the disconnect: the session's view is intact.
  EXPECT_EQ(engine.events_served(), 6u);
  EXPECT_FALSE(engine.is_live(0));
  EXPECT_TRUE(engine.is_live(1));
}

TEST(TcpServerTransport, StripsCarriageReturnsFromClients) {
  TcpServerTransport transport(0);
  AssignmentEngine engine{std::string("minim")};
  std::thread server([&] {
    serve_session(engine, transport);
    transport.disconnect();
  });

  std::string responses;
  {
    Client client(transport.port());
    if (!client.connected()) {
      server.detach();
      FAIL() << "connect: " << std::strerror(errno);
    }
    // A telnet-style client terminates lines with \r\n, and the final line
    // may arrive without any terminator at all.
    client.send_all("join 10 10 20\r\nstats\r\nquit");
    client.shutdown_write();
    responses = client.read_to_eof();
  }
  server.join();

  EXPECT_EQ(responses,
            "ok 1 join node=0 recoded=1 maxc=1 live=1 fallback=0\n"
            "stats live=1 joined=1 maxc=1 colors=1 events=1 recodings=1\n"
            "bye\n");
}

TEST(TcpServerTransport, OverlongLineIsAnsweredAndDrained) {
  TcpServerTransport transport(0);
  AssignmentEngine engine{std::string("minim")};
  SessionStats stats;
  std::thread server([&] {
    stats = serve_session(engine, transport);
    transport.disconnect();
  });

  std::string answers;
  std::string after_quit;
  {
    Client client(transport.port());
    if (!client.connected()) {
      server.detach();
      FAIL() << "connect: " << std::strerror(errno);
    }
    // 1 MiB with no newline, then a valid line: the first is refused, the
    // second served, and the session stays up for the next request.
    client.send_all(std::string(std::size_t{1} << 20, 'x'));
    client.send_all("\njoin 10 10 20\n");
    answers = client.read_lines(2);
    client.send_all("stats\n");
    answers += client.read_lines(1);
    client.shutdown_write();
    after_quit = client.read_to_eof();
  }
  server.join();

  EXPECT_EQ(answers,
            "err line=1 line too long\n"
            "ok 1 join node=0 recoded=1 maxc=1 live=1 fallback=0\n"
            "stats live=1 joined=1 maxc=1 colors=1 events=1 recodings=1\n");
  EXPECT_EQ(after_quit, "");
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.events, 1u);
  // The overlong line was never buffered whole.
  EXPECT_LE(transport.receive_capacity(), 4 * kMaxLineBytes);
}

TEST(TcpServerTransport, LinesUpToTheLimitAreServed) {
  // A line of exactly kMaxLineBytes (a comment, so it needs no answer) is a
  // request; one byte more is refused — whether it ends in "\r\n" or not.
  TcpServerTransport transport(0);
  AssignmentEngine engine{std::string("minim")};
  std::thread server([&] {
    serve_session(engine, transport);
    transport.disconnect();
  });

  std::string responses;
  {
    Client client(transport.port());
    if (!client.connected()) {
      server.detach();
      FAIL() << "connect: " << std::strerror(errno);
    }
    const std::string longest = "#" + std::string(kMaxLineBytes - 1, 'c');
    client.send_all(longest + "\r\n" + longest + "c\r\n" + longest + "c\n" +
                    "stats");
    client.shutdown_write();
    responses = client.read_to_eof();
  }
  server.join();

  EXPECT_EQ(responses,
            "err line=2 line too long\n"
            "err line=3 line too long\n"
            "stats live=0 joined=0 maxc=0 colors=0 events=0 recodings=0\n");
}

}  // namespace
}  // namespace minim::serve
