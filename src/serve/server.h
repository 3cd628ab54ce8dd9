// Socket front-end for InferenceService: length-prefixed request frames in, response
// frames out. The protocol is deliberately dumb (see frame.h) — the scheduling lives in
// InferenceService; this layer only pumps bytes.
//
// Each connection gets one reader thread that feeds a FrameReader and Submits decoded
// requests; completions (which fire on the service's workers) serialize response frames
// back through a per-connection write mutex. Responses are matched to requests by
// request_id, not by stream order — pipelined requests may complete out of order. A
// connection's descriptor closes once its reader has exited (the peer hung up, or sent
// an unrecoverable frame) and no completion still holds it; finished readers are joined
// at the next AddConnection and at Stop.
//
// Connections can be real TCP accepts (ListenAndServe) or pre-connected fds such as one
// end of a socketpair (AddConnection) — the deterministic in-process test harness uses
// the latter so no port or network nondeterminism enters the tests.

#ifndef NEUROC_SRC_SERVE_SERVER_H_
#define NEUROC_SRC_SERVE_SERVER_H_

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/status.h"
#include "src/serve/service.h"

namespace neuroc {

class FrameServer {
 public:
  explicit FrameServer(InferenceService* service);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Adopts a connected stream socket (takes ownership) and spawns its reader thread.
  // Used directly by tests with socketpair fds.
  void AddConnection(int fd);

  // Binds 127.0.0.1:port (port 0 picks a free one; see bound_port()), runs `on_bound`
  // (when given) once the listener is bound, then accepts connections until Stop.
  // Blocks; call from a dedicated thread.
  Status ListenAndServe(uint16_t port, const std::function<void()>& on_bound = nullptr);

  // After ListenAndServe has bound: the actual port (for port 0).
  uint16_t bound_port() const { return bound_port_.load(); }

  // Shuts the listener (if any) and every connection down and joins all threads. A
  // malformed-frame error already closes just its own connection. Idempotent.
  void Stop();

 private:
  // Held by its reader thread and by the completions of its requests; the last of them
  // closes the descriptor.
  struct Connection {
    explicit Connection(int socket) : fd(socket) {}
    ~Connection();
    const int fd;
    std::mutex write_mutex;     // completions serialize response frames
    std::atomic<bool> closing{false};
  };
  struct Reader {
    std::weak_ptr<Connection> conn;  // for Stop to shut down
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void ReaderLoop(std::shared_ptr<Connection> conn);
  // Encodes and writes one response under the connection's write mutex. Write failures
  // mark the connection closing (the reader notices on its next read).
  static void SendResponse(Connection* conn, const ServeResponse& response);

  InferenceService* service_;
  std::mutex mutex_;
  std::list<Reader> readers_;  // guarded by mutex_; a list, so each Reader stays put
  std::atomic<bool> stopping_{false};
  std::atomic<int> listen_fd_{-1};
  std::atomic<uint16_t> bound_port_{0};
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SERVE_SERVER_H_
