// Test-only heap codecs: the owning request form and the string-building
// response serializer that the server's zero-copy wire path (borrowed
// RequestView, ResponseWriter) is differenced against. Nothing in the
// server uses these; they exist so the differential suites have an
// independent, obviously-correct rendering of the same HTTP/1.1 bytes.
#pragma once

#include <map>
#include <string>

#include "common/strings.h"
#include "server/http.h"
#include "server/http_parser.h"

namespace lce::server::testing {

/// Owning copy of one parsed request.
struct HttpRequest {
  std::string method;
  std::string path;
  std::map<std::string, std::string> headers;  // lower-cased keys
  std::string body;
  int version_minor = 1;
};

/// HttpParser::next_view materialized into an owning HttpRequest: same
/// acceptance and statuses; duplicate headers keep the last occurrence.
inline ParseStatus next_request(HttpParser& parser, HttpRequest& out) {
  RequestView view;
  ParseStatus st = parser.next_view(view);
  if (st != ParseStatus::kRequest) return st;
  out.method.assign(view.method);
  out.path.assign(view.path);
  out.version_minor = view.version_minor;
  out.headers.clear();
  for (const auto& [k, v] : view.headers) out.headers[std::string(k)] = std::string(v);
  out.body.assign(view.body);
  return ParseStatus::kRequest;
}

/// Keep-alive negotiation over the owning form, lower-casing a copy of the
/// header value.
inline bool wants_keep_alive(const HttpRequest& req) {
  if (auto it = req.headers.find("connection"); it != req.headers.end()) {
    std::string v = to_lower(it->second);
    if (contains(v, "close")) return false;
    if (contains(v, "keep-alive")) return true;
  }
  return req.version_minor >= 1;
}

/// Serialize a response with Content-Length and a Connection header
/// matching `keep_alive`; headers render in map (sorted) order.
inline std::string serialize_http_response(const HttpResponse& resp, bool keep_alive) {
  std::string out = strf("HTTP/1.1 ", resp.status, " ", status_text(resp.status), "\r\n");
  for (const auto& [k, v] : resp.headers) out += strf(k, ": ", v, "\r\n");
  out += strf("content-length: ", resp.body.size(), "\r\n");
  out += keep_alive ? "connection: keep-alive\r\n\r\n" : "connection: close\r\n\r\n";
  out += resp.body;
  return out;
}

}  // namespace lce::server::testing
