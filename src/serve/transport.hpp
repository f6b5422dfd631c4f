#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

/// \file transport.hpp
/// \brief Line transports for the serving session.
///
/// A serving session is transport-agnostic: it reads request lines and
/// writes one response line per event/query (see session.hpp).  Three
/// transports cover the deployment shapes:
///
///   * `StreamTransport` — any istream/ostream pair: stdin/stdout for
///     `cdma_drive --serve --transport=stdin`, stringstreams in tests;
///   * `TraceFileTransport` — requests from a recorded trace file,
///     responses to a stream (batch ingestion through the online path);
///   * `TcpServerTransport` — a localhost TCP socket speaking the same
///     line protocol; binds eagerly (so the port is known before a client
///     exists) and accepts its single client lazily on the first read.
///
/// Transports are deliberately single-client: the engine is a sequenced
/// event log (the paper's one-at-a-time reconfiguration model), so there is
/// nothing for a second concurrent client to safely do.

namespace minim::serve {

/// Longest request line, in bytes before the terminator, that the session
/// serves.  A longer line is answered `err line=<n> line too long`.  The
/// TCP transport also buffers no more of such a line than it takes to tell
/// (see TcpServerTransport).
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks for the next request line (without the terminator); false on
  /// end of input / client disconnect.
  virtual bool read_line(std::string& line) = 0;

  /// Appends up to `max` request lines that are available WITHOUT blocking
  /// (bytes the client already sent).  Pipelined sessions call it after a
  /// blocking `read_line` to drain the rest of a request burst into one
  /// batch.  The default — no lookahead — keeps a transport strictly
  /// line-at-a-time.
  virtual std::size_t read_available(std::vector<std::string>& lines,
                                     std::size_t max) {
    (void)lines;
    (void)max;
    return 0;
  }

  /// Writes one response line (terminator appended).  A transport may
  /// buffer; `flush()` delivers.
  virtual void write_line(std::string_view line) = 0;

  /// Delivers buffered response bytes to the peer.  Sessions flush once per
  /// drained input burst — the amortization pipelining exists for.
  virtual void flush() {}

  /// Human-readable endpoint ("stdin", "trace:<path>", "tcp:127.0.0.1:<p>").
  virtual std::string describe() const = 0;
};

/// Requests from `in`, responses to `out`.  Borrows both streams.
/// `read_available` serves lines out of the istream's already-buffered
/// characters (`in_avail`), so a piped burst batches without ever blocking
/// past it.  Responses buffer until `flush()`.
class StreamTransport final : public Transport {
 public:
  StreamTransport(std::istream& in, std::ostream& out,
                  std::string name = "stream");

  bool read_line(std::string& line) override;
  std::size_t read_available(std::vector<std::string>& lines,
                             std::size_t max) override;
  void write_line(std::string_view line) override;
  void flush() override;
  std::string describe() const override { return name_; }

 private:
  /// Extracts one complete line from `pending_`; false when none.
  bool take_pending_line(std::string& line);

  std::istream* in_;
  std::ostream* out_;
  std::string name_;
  /// Characters slurped ahead of the session by read_available; read_line
  /// serves from here before touching the stream again.
  std::string pending_;
};

/// Requests from a trace file, responses to `out` (borrowed).  Throws
/// std::invalid_argument when the file cannot be opened.  A file never
/// blocks, so `read_available` drains up to `max` lines of it — trace
/// replay through a pipelined session ingests in engine-sized batches.
class TraceFileTransport final : public Transport {
 public:
  TraceFileTransport(const std::string& path, std::ostream& out);

  bool read_line(std::string& line) override;
  std::size_t read_available(std::vector<std::string>& lines,
                             std::size_t max) override;
  void write_line(std::string_view line) override;
  void flush() override;
  std::string describe() const override { return "trace:" + path_; }

 private:
  std::string path_;
  std::ifstream file_;
  std::ostream* out_;
};

/// One-shot localhost TCP server.  The constructor binds and listens on
/// 127.0.0.1 (`port` 0 = kernel-assigned, read back via `port()`); the
/// first `read_line` blocks in accept() for the single client.  Lines are
/// newline-terminated; a trailing carriage return is stripped so `telnet`
/// and `nc -C` sessions work unmodified.  Throws std::runtime_error on
/// socket errors at setup.
///
/// Input is bounded: a line longer than `kMaxLineBytes` (plus a '\r')
/// reaches the session cut to its first `kMaxLineBytes + 1` bytes, which the
/// session answers as too long, and the rest of it is dropped unread up to
/// the next '\n'.  The receive buffer thus never holds much more than one
/// maximal line.
class TcpServerTransport final : public Transport {
 public:
  explicit TcpServerTransport(std::uint16_t port = 0);
  ~TcpServerTransport() override;

  TcpServerTransport(const TcpServerTransport&) = delete;
  TcpServerTransport& operator=(const TcpServerTransport&) = delete;

  /// The bound port (the kernel's pick when constructed with 0).
  std::uint16_t port() const { return port_; }

  /// Closes the client connection (the client sees EOF).  The server keeps
  /// listening state but accepts no replacement — one session, one client.
  void disconnect();

  bool read_line(std::string& line) override;
  /// Serves lines from the receive buffer, topped up with whatever the
  /// kernel already holds (non-blocking recv) — a client that pipelined a
  /// burst of requests gets them coalesced into one batch.
  std::size_t read_available(std::vector<std::string>& lines,
                             std::size_t max) override;
  void write_line(std::string_view line) override;
  void flush() override;
  std::string describe() const override;

  /// Bytes allocated for received input (the bound above, observable).
  std::size_t receive_capacity() const { return buffer_.capacity(); }

 private:
  bool accept_client();
  /// Extracts one buffered line; false when `buffer_` holds no complete
  /// line (and, at EOF, no unterminated tail).
  bool pop_buffered_line(std::string& line);
  /// Drops the consumed prefix of `buffer_`: once per refill, never once
  /// per line (that was quadratic in a pipelined burst).
  void compact();
  void send_all(const char* data, std::size_t size);

  int listen_fd_ = -1;
  int client_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string buffer_;      ///< received bytes; [cursor_, end) not yet lines
  std::size_t cursor_ = 0;  ///< read position in buffer_
  bool discarding_ = false;  ///< dropping the tail of an overlong line
  std::string out_buffer_;  ///< response bytes not yet flushed
  bool eof_ = false;
};

}  // namespace minim::serve
