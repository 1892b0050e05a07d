#pragma once

/// \file
/// Minimal HTTP/1.1 message layer for erq_server: parse one request off
/// a socket, serialize one response back. Covers exactly the subset the
/// service speaks — request line + headers + Content-Length bodies,
/// keep-alive, percent-encoded query strings. No chunked encoding, no
/// TLS, no external dependency.
///
/// The same types drive both sides of the wire: the server parses
/// HttpRequest and writes HttpResponse, while tests and the end-to-end
/// benchmark's client build HttpRequest::Serialize() and read responses
/// with ReadHttpResponse — so the protocol implementation is exercised
/// from both ends by construction.

#include <cstddef>
#include <map>
#include <string>

#include "common/status.h"
#include "server/socket.h"

namespace erq {

/// One parsed HTTP request.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as received)
  std::string path;    ///< decoded path without the query string
  /// Decoded query parameters (last value wins on duplicates).
  std::map<std::string, std::string> query;
  /// Header fields, keys lowercased.
  std::map<std::string, std::string> headers;
  std::string body;  ///< Content-Length bytes (may be empty)
  /// False when the client asked for `Connection: close` (HTTP/1.1
  /// default is keep-alive).
  bool keep_alive = true;

  /// Renders the request as wire bytes (client side: tests, bench).
  std::string Serialize(const std::string& host) const;
};

/// One HTTP response under construction.
struct HttpResponse {
  int status_code = 200;  ///< HTTP status (see HttpReasonPhrase)
  std::string content_type = "application/json";  ///< Content-Type header
  std::string body;  ///< response payload (JSON for every erq route)
  /// When true the response carries `Connection: close` and the server
  /// drops the connection after writing it.
  bool close = false;

  /// Renders status line + headers (Content-Length, Content-Type,
  /// Connection) + body as wire bytes.
  std::string Serialize() const;
};

/// The canonical reason phrase for a status code (fallback: "Unknown").
const char* HttpReasonPhrase(int code);

/// Maps a Status to the HTTP status code erq_server answers with:
/// OK→200, ParseError/BindError/InvalidArgument/OutOfRange/NotSupported→400,
/// NotFound→404, AlreadyExists→409, ResourceExhausted→429, else→500.
int HttpStatusFromStatus(const Status& status);

/// Percent-decodes `in` (+ becomes space). Malformed %XX sequences are
/// kept verbatim rather than rejected — query parsing must not fail a
/// whole request over one stray '%'.
std::string UrlDecode(const std::string& in);

/// Buffered reader/writer for one connection; owns the socket. Reads
/// successive requests (keep-alive) and enforces `max_request_bytes`
/// across start line + headers + body.
class HttpConnection {
 public:
  /// Takes ownership of a connected socket.
  HttpConnection(Socket socket, size_t max_request_bytes)
      : socket_(std::move(socket)), max_request_bytes_(max_request_bytes) {}

  /// Blocks for the next request. Orderly EOF between requests returns
  /// IoError("connection closed"); oversized or malformed input returns
  /// InvalidArgument/ParseError (the caller answers 400 and closes).
  ERQ_NODISCARD StatusOr<HttpRequest> ReadRequest();

  /// Serializes and writes `response`.
  ERQ_NODISCARD Status WriteResponse(const HttpResponse& response);

  /// The underlying socket (ErqServer::Stop shuts it down to wake a
  /// blocked ReadRequest).
  Socket& socket() { return socket_; }

 private:
  /// Grows `buffer_` from the socket until it holds >= `want` bytes or
  /// the wire ends.
  Status FillBuffer(size_t want);

  Socket socket_;
  size_t max_request_bytes_;
  std::string buffer_;  ///< bytes received but not yet consumed
};

/// Client-side response parsing (tests, bench, check.sh smoke): reads
/// one full response off `socket` into (status_code, body). Handles
/// Content-Length framing only — which is all our server emits.
ERQ_NODISCARD Status ReadHttpResponse(Socket* socket, int* status_code,
                                      std::string* body);

}  // namespace erq
