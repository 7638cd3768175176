#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/time.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "net/protocol.h"

namespace perfbench {

using cloakdb::Result;
using cloakdb::Status;

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<WireConn>> WireConn::Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return std::unique_ptr<WireConn>(new WireConn(fd));
}

WireConn::~WireConn() { ::close(fd_); }

void WireConn::Shutdown() { ::shutdown(fd_, SHUT_RDWR); }

Status WireConn::Send(uint64_t request_id,
                      const cloakdb::QueryRequest& request) {
  send_buf_.clear();
  cloakdb::net::AppendQueryFrame(request_id, request, &send_buf_);
  size_t off = 0;
  while (off < send_buf_.size()) {
    const ssize_t n = ::send(fd_, send_buf_.data() + off,
                             send_buf_.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return Errno("send");
    }
  }
  return Status::OK();
}

Status WireConn::Receive(WireFrame* out) {
  char chunk[64 * 1024];
  for (;;) {
    const size_t avail = read_buf_.size() - read_pos_;
    if (avail >= cloakdb::net::kFrameHeaderSize) {
      const auto* base =
          reinterpret_cast<const uint8_t*>(read_buf_.data()) + read_pos_;
      cloakdb::net::FrameHeader header;
      CLOAKDB_RETURN_IF_ERROR(
          cloakdb::net::DecodeFrameHeader(base, avail, &header));
      const size_t total =
          cloakdb::net::kFrameHeaderSize + header.payload_len;
      if (avail >= total) {
        const uint8_t* payload = base + cloakdb::net::kFrameHeaderSize;
        out->request_id = header.request_id;
        if (header.type == cloakdb::net::FrameType::kResponse) {
          out->is_response = true;
          CLOAKDB_RETURN_IF_ERROR(cloakdb::net::DecodeResponsePayload(
              payload, header.payload_len, &out->response));
          out->error = out->response.error;
        } else if (header.type == cloakdb::net::FrameType::kError) {
          out->is_response = false;
          std::string message;
          CLOAKDB_RETURN_IF_ERROR(cloakdb::net::DecodeErrorPayload(
              payload, header.payload_len, &out->error, &message));
        } else {
          return Status::Internal("unexpected frame type on query stream");
        }
        read_pos_ += total;
        return Status::OK();
      }
    }
    if (read_pos_ > 0) {
      read_buf_.erase(0, read_pos_);
      read_pos_ = 0;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      read_buf_.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      return Status::Internal("connection closed by server");
    } else if (errno != EINTR) {
      return Errno("recv");
    }
  }
}

}  // namespace perfbench
