#include "serve/transport.hpp"

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/fd_io.hpp"
#include "util/require.hpp"

namespace minim::serve {

// ----------------------------------------------------------- StreamTransport

StreamTransport::StreamTransport(std::istream& in, std::ostream& out,
                                 std::string name)
    : in_(&in), out_(&out), name_(std::move(name)) {}

bool StreamTransport::take_pending_line(std::string& line) {
  const std::size_t newline = pending_.find('\n');
  if (newline == std::string::npos) return false;
  line.assign(pending_, 0, newline);
  pending_.erase(0, newline + 1);
  return true;
}

bool StreamTransport::read_line(std::string& line) {
  if (take_pending_line(line)) return true;
  if (!pending_.empty()) {
    // A partial tail slurped by read_available: complete it with a blocking
    // read; at true EOF the tail itself is the final (unterminated) line.
    std::string rest;
    if (std::getline(*in_, rest)) {
      line = pending_ + rest;
      pending_.clear();
      return true;
    }
    line = std::exchange(pending_, {});
    return true;
  }
  return static_cast<bool>(std::getline(*in_, line));
}

std::size_t StreamTransport::read_available(std::vector<std::string>& lines,
                                            std::size_t max) {
  // Slurp only characters the stream already buffered (`in_avail`): a pipe
  // with nothing pending returns 0 rather than blocking, which keeps an
  // interactive stdin session line-at-a-time while a piped burst still
  // coalesces.  A trailing partial line stays in `pending_` for the next
  // blocking read_line — returning it now would split a request in two.
  std::streambuf& buf = *in_->rdbuf();
  while (buf.in_avail() > 0) {
    const int ch = buf.sbumpc();
    if (ch == std::char_traits<char>::eof()) break;
    pending_.push_back(static_cast<char>(ch));
  }
  std::size_t count = 0;
  std::string line;
  while (count < max && take_pending_line(line)) {
    lines.push_back(line);
    ++count;
  }
  return count;
}

void StreamTransport::write_line(std::string_view line) {
  *out_ << line << "\n";  // buffered; the session flushes once per burst
}

void StreamTransport::flush() { out_->flush(); }

// -------------------------------------------------------- TraceFileTransport

TraceFileTransport::TraceFileTransport(const std::string& path,
                                       std::ostream& out)
    : path_(path), file_(path), out_(&out) {
  MINIM_REQUIRE(file_.good(), "cannot open trace file '" + path + "'");
}

bool TraceFileTransport::read_line(std::string& line) {
  return static_cast<bool>(std::getline(file_, line));
}

std::size_t TraceFileTransport::read_available(std::vector<std::string>& lines,
                                               std::size_t max) {
  std::size_t count = 0;
  std::string line;
  while (count < max && std::getline(file_, line)) {
    lines.push_back(line);
    ++count;
  }
  return count;
}

void TraceFileTransport::write_line(std::string_view line) {
  *out_ << line << "\n";
}

void TraceFileTransport::flush() { out_->flush(); }

// -------------------------------------------------------- TcpServerTransport

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

TcpServerTransport::TcpServerTransport(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("bind 127.0.0.1");
  }
  if (::listen(listen_fd_, 1) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("listen");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

TcpServerTransport::~TcpServerTransport() {
  if (client_fd_ >= 0) ::close(client_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpServerTransport::disconnect() {
  flush();
  if (client_fd_ >= 0) {
    ::close(client_fd_);
    client_fd_ = -1;
  }
  eof_ = true;  // no replacement client: the session is over
}

bool TcpServerTransport::accept_client() {
  while (true) {
    client_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd_ >= 0) return true;
    if (errno != EINTR) return false;
  }
}

bool TcpServerTransport::pop_buffered_line(std::string& line) {
  const auto strip_cr = [&line] {
    if (!line.empty() && line.back() == '\r') line.pop_back();
  };
  while (true) {
    const std::size_t newline = buffer_.find('\n', cursor_);
    if (discarding_) {
      // The tail of an overlong line, dropped up to its terminator.
      if (newline == std::string::npos) {
        cursor_ = buffer_.size();
        break;
      }
      cursor_ = newline + 1;
      discarding_ = false;
      continue;
    }
    const std::size_t end =
        newline == std::string::npos ? buffer_.size() : newline;
    if (end - cursor_ > kMaxLineBytes + 1) {
      // Too long for a request even with a '\r': the session gets the first
      // kMaxLineBytes + 1 bytes, enough to answer "line too long".
      line.assign(buffer_, cursor_, kMaxLineBytes + 1);
      discarding_ = newline == std::string::npos;
      cursor_ = discarding_ ? buffer_.size() : newline + 1;
      return true;
    }
    if (newline != std::string::npos) {
      line.assign(buffer_, cursor_, newline - cursor_);
      cursor_ = newline + 1;
      strip_cr();
      return true;
    }
    if (eof_ && cursor_ < buffer_.size()) {
      // Final unterminated line (a client that closed without a newline).
      line.assign(buffer_, cursor_);
      cursor_ = buffer_.size();
      strip_cr();
      return true;
    }
    break;
  }
  compact();
  return false;
}

void TcpServerTransport::compact() {
  buffer_.erase(0, cursor_);
  cursor_ = 0;
}

bool TcpServerTransport::read_line(std::string& line) {
  if (client_fd_ < 0 && (eof_ || !accept_client())) return false;
  flush();  // never block for input while responses sit in the buffer
  while (true) {
    if (pop_buffered_line(line)) return true;
    if (eof_) return false;
    char chunk[4096];
    const ssize_t got = ::recv(client_fd_, chunk, sizeof chunk, 0);
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
    } else if (got == 0) {
      eof_ = true;
    } else if (errno != EINTR) {
      eof_ = true;  // connection error: treat as disconnect
    }
  }
}

std::size_t TcpServerTransport::read_available(std::vector<std::string>& lines,
                                               std::size_t max) {
  if (client_fd_ < 0) return 0;
  // Top the buffer up with whatever the kernel already received, without
  // blocking: a client that pipelined a burst lands in one batch.  Stop
  // once a maximal line is buffered; the rest waits in the kernel.
  compact();
  while (!eof_ && buffer_.size() <= kMaxLineBytes) {
    char chunk[4096];
    const ssize_t got = ::recv(client_fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
      if (static_cast<std::size_t>(got) < sizeof chunk) break;
    } else if (got == 0) {
      eof_ = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      eof_ = true;
    }
  }
  std::size_t count = 0;
  std::string line;
  while (count < max && pop_buffered_line(line)) {
    lines.push_back(line);
    ++count;
  }
  return count;
}

void TcpServerTransport::send_all(const char* data, std::size_t size) {
  // Short-write/EINTR handling lives in util::write_all; a false return
  // means the client went away mid-response — the next read sees EOF.
  util::write_all(client_fd_, data, size);
}

void TcpServerTransport::write_line(std::string_view line) {
  if (client_fd_ < 0) return;  // nothing connected; response has no reader
  out_buffer_.append(line);
  out_buffer_.push_back('\n');
}

void TcpServerTransport::flush() {
  if (client_fd_ < 0 || out_buffer_.empty()) {
    out_buffer_.clear();
    return;
  }
  send_all(out_buffer_.data(), out_buffer_.size());
  out_buffer_.clear();
}

std::string TcpServerTransport::describe() const {
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

}  // namespace minim::serve
