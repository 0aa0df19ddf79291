// Socket-free requests against serve_emulator_request: hand-build the
// RequestView the parser would give the event loop, render into a
// std::string the way a connection's output buffer fills, and split the
// status and body back out.
#pragma once

#include <cstdlib>
#include <string>
#include <string_view>

#include "server/http.h"
#include "server/service.h"

namespace lce::server::testing {

inline HttpResponse serve_direct(CloudBackend& backend, std::string_view method,
                                 std::string_view path, std::string_view body = {},
                                 persist::PersistManager* persist = nullptr,
                                 bool virtual_time = false) {
  RequestView req;
  req.method = method;
  req.path = path;
  req.body = body;
  std::string out;
  int cl_hint = 3;
  ResponseWriter writer(out, cl_hint);
  serve_emulator_request(backend, req, /*keep_alive=*/true, writer, persist,
                         /*server=*/nullptr, virtual_time);
  HttpResponse resp;
  resp.status = std::atoi(out.c_str() + 9);  // "HTTP/1.1 NNN Reason"
  resp.body = out.substr(out.find("\r\n\r\n") + 4);
  return resp;
}

}  // namespace lce::server::testing
