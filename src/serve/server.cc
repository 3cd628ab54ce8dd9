#include "src/serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>

#include "src/obs/registry.h"
#include "src/serve/frame.h"

namespace neuroc {

namespace {

bool WriteAll(int fd, const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a peer that hung up fails the send with EPIPE instead of raising
    // SIGPIPE, which would end the process.
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

FrameServer::Connection::~Connection() { ::close(fd); }

FrameServer::FrameServer(InferenceService* service) : service_(service) {}

FrameServer::~FrameServer() { Stop(); }

void FrameServer::AddConnection(int fd) {
  auto conn = std::make_shared<Connection>(fd);
  std::list<Reader> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load()) {
      return;
    }
    for (auto it = readers_.begin(); it != readers_.end();) {
      const auto next = std::next(it);
      if (it->finished.load()) {
        finished.splice(finished.end(), readers_, it);
      }
      it = next;
    }
    Reader& reader = readers_.emplace_back();
    reader.conn = conn;
    reader.thread = std::thread([this, conn = std::move(conn), &reader]() mutable {
      ReaderLoop(std::move(conn));
      reader.finished.store(true);
    });
  }
  for (Reader& reader : finished) {
    reader.thread.join();
  }
}

Status FrameServer::ListenAndServe(uint16_t port, const std::function<void()>& on_bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(ErrorCode::kIoError,
                  std::string("serve: socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const Status err(ErrorCode::kIoError,
                     std::string("serve: bind/listen: ") + std::strerror(errno));
    ::close(fd);
    return err;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    bound_port_.store(ntohs(addr.sin_port));
  }
  listen_fd_.store(fd);
  if (on_bound) {
    on_bound();
  }
  for (;;) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listener closed by Stop (or a fatal accept error)
    }
    MetricsRegistry::Global().GetCounter("serve.connections").Add(1);
    AddConnection(client);
  }
  return Status::Ok();
}

void FrameServer::ReaderLoop(std::shared_ptr<Connection> conn_ref) {
  // Completions capture a shared_ptr copy so the connection outlives both Stop() and any
  // response still queued inside the service when the socket goes away.
  Connection* conn = conn_ref.get();
  FrameReader reader;
  uint8_t buf[4096];
  while (!conn->closing.load() && !stopping_.load()) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // peer closed or error
    }
    reader.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
    for (;;) {
      std::vector<uint8_t> payload;
      StatusOr<bool> got = reader.Next(&payload);
      if (!got.ok()) {
        // Stream framing is unrecoverable (oversized declared length): answer with a
        // structured error (request_id 0 — sync is lost) and hang up.
        MetricsRegistry::Global().GetCounter("serve.frame_errors").Add(1);
        ServeResponse err;
        err.request_id = 0;
        err.code = got.status().code();
        err.message = got.status().message();
        SendResponse(conn, err);
        conn->closing.store(true);
        break;
      }
      if (!*got) {
        break;  // need more bytes
      }
      StatusOr<ServeRequest> req = DecodeRequestPayload(payload);
      if (!req.ok()) {
        // Payload-level malformation is recoverable: framing stayed in sync, so report
        // it and keep reading the stream.
        MetricsRegistry::Global().GetCounter("serve.frame_errors").Add(1);
        ServeResponse err;
        err.request_id = 0;
        err.code = req.status().code();
        err.message = req.status().message();
        SendResponse(conn, err);
        continue;
      }
      service_->Submit(std::move(*req), [conn_ref](const ServeResponse& resp) {
        SendResponse(conn_ref.get(), resp);
      });
    }
  }
}

void FrameServer::SendResponse(Connection* conn, const ServeResponse& response) {
  const std::vector<uint8_t> frame = EncodeResponseFrame(response);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->closing.load() && response.request_id != 0) {
    return;
  }
  if (!WriteAll(conn->fd, frame.data(), frame.size())) {
    conn->closing.store(true);
  }
}

void FrameServer::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  const int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  std::list<Reader> readers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    readers.swap(readers_);
  }
  for (Reader& reader : readers) {
    if (const std::shared_ptr<Connection> conn = reader.conn.lock()) {
      conn->closing.store(true);
      ::shutdown(conn->fd, SHUT_RDWR);  // unblocks the reader's ::read
    }
  }
  for (Reader& reader : readers) {
    reader.thread.join();
  }
}

}  // namespace neuroc
