#include "server/http.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>

#include "common/string_util.h"

namespace erq {

namespace {

constexpr size_t kReadChunk = 4096;

}  // namespace

std::string UrlDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out += ' ';
    } else if (in[i] == '%' && i + 2 < in.size() &&
               std::isxdigit(static_cast<unsigned char>(in[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(in[i + 2]))) {
      const char hex[3] = {in[i + 1], in[i + 2], '\0'};
      out += static_cast<char>(std::strtol(hex, nullptr, 16));
      i += 2;
    } else {
      out += in[i];
    }
  }
  return out;
}

const char* HttpReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

int HttpStatusFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kParseError:
    case StatusCode::kBindError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotSupported:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
    default:
      return 500;
  }
}

std::string HttpRequest::Serialize(const std::string& host) const {
  std::string target = path.empty() ? "/" : path;
  bool first = true;
  for (const auto& [key, value] : query) {
    target += first ? '?' : '&';
    first = false;
    target += key;  // callers pass already-safe keys
    target += '=';
    for (char c : value) {
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == '.') {
        target += c;
      } else {
        char buf[4];
        std::snprintf(buf, sizeof(buf), "%%%02X",
                      static_cast<unsigned char>(c));
        target += buf;
      }
    }
  }
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: " + host + "\r\n";
  for (const auto& [key, value] : headers) {
    out += key + ": " + value + "\r\n";
  }
  if (!body.empty() || method == "POST") {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  if (!keep_alive) out += "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

std::string HttpResponse::Serialize() const {
  std::string out = "HTTP/1.1 " + std::to_string(status_code) + " " +
                    HttpReasonPhrase(status_code) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "\r\n";
  out += body;
  return out;
}

Status HttpConnection::FillBuffer(size_t want) {
  while (buffer_.size() < want) {
    char chunk[kReadChunk];
    ERQ_ASSIGN_OR_RETURN(const size_t n,
                         socket_.RecvSome(chunk, sizeof(chunk)));
    if (n == 0) return Status::IoError("connection closed");
    buffer_.append(chunk, n);
    if (buffer_.size() > max_request_bytes_) {
      return Status::InvalidArgument("request exceeds max_request_bytes");
    }
  }
  return Status::OK();
}

StatusOr<HttpRequest> HttpConnection::ReadRequest() {
  // Pull bytes until the header terminator is in the buffer.
  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    ERQ_RETURN_IF_ERROR(FillBuffer(buffer_.size() + 1));
  }
  const std::string head = buffer_.substr(0, header_end);

  HttpRequest request;
  size_t line_start = 0;
  size_t line_end = head.find("\r\n");
  const std::string start_line =
      head.substr(0, line_end == std::string::npos ? head.size() : line_end);

  // "METHOD SP target SP HTTP/1.1"
  const size_t sp1 = start_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : start_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return Status::ParseError("malformed HTTP request line: " + start_line);
  }
  request.method = start_line.substr(0, sp1);
  std::string target = start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = start_line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) {
    return Status::ParseError("unsupported HTTP version: " + version);
  }

  // Split target into path + query, decoding both.
  const size_t qmark = target.find('?');
  request.path = UrlDecode(target.substr(0, qmark));
  if (qmark != std::string::npos) {
    std::string qs = target.substr(qmark + 1);
    size_t pos = 0;
    while (pos <= qs.size()) {
      size_t amp = qs.find('&', pos);
      if (amp == std::string::npos) amp = qs.size();
      const std::string pair = qs.substr(pos, amp - pos);
      if (!pair.empty()) {
        const size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          request.query[UrlDecode(pair)] = "";
        } else {
          request.query[UrlDecode(pair.substr(0, eq))] =
              UrlDecode(pair.substr(eq + 1));
        }
      }
      pos = amp + 1;
    }
  }

  // Header fields.
  while (line_end != std::string::npos) {
    line_start = line_end + 2;
    line_end = head.find("\r\n", line_start);
    const std::string line = head.substr(
        line_start,
        (line_end == std::string::npos ? head.size() : line_end) - line_start);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("malformed HTTP header: " + line);
    }
    std::string key = ToLower(line.substr(0, colon));
    size_t value_start = colon + 1;
    while (value_start < line.size() && line[value_start] == ' ') {
      ++value_start;
    }
    request.headers[std::move(key)] = line.substr(value_start);
  }

  // Body (Content-Length framing only).
  size_t body_len = 0;
  if (auto it = request.headers.find("content-length");
      it != request.headers.end()) {
    ERQ_ASSIGN_OR_RETURN(body_len,
                         ParseDecimal(it->second, SIZE_MAX - (header_end + 4)));
  }
  const size_t total = header_end + 4 + body_len;
  if (total > max_request_bytes_) {
    return Status::InvalidArgument("request exceeds max_request_bytes");
  }
  ERQ_RETURN_IF_ERROR(FillBuffer(total));
  request.body = buffer_.substr(header_end + 4, body_len);
  buffer_.erase(0, total);

  if (auto it = request.headers.find("connection");
      it != request.headers.end()) {
    request.keep_alive = ToLower(it->second) != "close";
  }
  return request;
}

Status HttpConnection::WriteResponse(const HttpResponse& response) {
  return socket_.SendAll(response.Serialize());
}

Status ReadHttpResponse(Socket* socket, int* status_code, std::string* body) {
  std::string buffer;
  size_t header_end;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    char chunk[kReadChunk];
    ERQ_ASSIGN_OR_RETURN(const size_t n,
                         socket->RecvSome(chunk, sizeof(chunk)));
    if (n == 0) return Status::IoError("connection closed mid-response");
    buffer.append(chunk, n);
  }
  const std::string head = buffer.substr(0, header_end);
  // "HTTP/1.1 NNN Reason"
  const std::string_view head_view(head);
  const size_t sp = head.find(' ');
  if (sp == std::string::npos) {
    return Status::ParseError("malformed HTTP status line");
  }
  const size_t code_end = head.find_first_of(" \r", sp + 1);
  ERQ_ASSIGN_OR_RETURN(
      const uint64_t code,
      ParseDecimal(head_view.substr(sp + 1, code_end - (sp + 1)), 999));
  *status_code = static_cast<int>(code);

  size_t body_len = 0;
  const std::string lower = ToLower(head);
  const size_t cl = lower.find("content-length:");
  if (cl != std::string::npos) {
    const size_t start = cl + sizeof("content-length:") - 1;
    const size_t eol = head.find("\r\n", start);
    ERQ_ASSIGN_OR_RETURN(
        body_len,
        ParseDecimal(StripWhitespace(head_view.substr(start, eol - start)),
                     SIZE_MAX - (header_end + 4)));
  }
  const size_t total = header_end + 4 + body_len;
  while (buffer.size() < total) {
    char chunk[kReadChunk];
    ERQ_ASSIGN_OR_RETURN(const size_t n,
                         socket->RecvSome(chunk, sizeof(chunk)));
    if (n == 0) return Status::IoError("connection closed mid-body");
    buffer.append(chunk, n);
  }
  *body = buffer.substr(header_end + 4, body_len);
  return Status::OK();
}

}  // namespace erq
