// One pipelined loopback connection to a net::CloakServer, split so a
// sender thread and a receiver thread can use it at once.
//
// net::CloakClient parks out-of-order responses until they are awaited,
// which would stamp a response with the time it was awaited rather than the
// time it arrived. This connection hands frames to the receiver in arrival
// order instead, so latency is taken when the answer arrives. Framing and
// payload coding are the library's own (net/protocol.h).

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "service/api.h"
#include "util/status.h"

namespace perfbench {

/// One received frame, decoded.
struct WireFrame {
  uint64_t request_id = 0;
  /// False for a bare kError frame (the request never reached the service).
  bool is_response = false;
  cloakdb::QueryResponse response;
  cloakdb::ErrorCode error = cloakdb::ErrorCode::kOk;
};

class WireConn {
 public:
  static cloakdb::Result<std::unique_ptr<WireConn>> Connect(uint16_t port);
  ~WireConn();

  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Sender side: encodes and writes one query frame (blocking).
  cloakdb::Status Send(uint64_t request_id,
                       const cloakdb::QueryRequest& request);

  /// Receiver side: blocks for the next frame in arrival order. A frame
  /// that does not arrive within 10 s is a transport error.
  cloakdb::Status Receive(WireFrame* out);

  /// Unblocks a receiver waiting on a connection the sender gave up on.
  void Shutdown();

 private:
  explicit WireConn(int fd) : fd_(fd) {}

  int fd_;
  std::string send_buf_;  ///< Sender thread only.
  std::string read_buf_;  ///< Receiver thread only.
  size_t read_pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
