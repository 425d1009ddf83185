#pragma once

// The system under test as a child process: `glint fleet-serve --port 0`
// exactly as shipped. Start() waits for the "listening on" line and parses
// the ephemeral port; Stop() sends SIGTERM and requires the "drained" line
// and exit code 0. A server that hangs or crashes is killed, so it never
// outlives the run that started it.

#include <sys/types.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `argv` (argv[0] = program path) and waits up to `timeout_ms`
  /// for its listening line. False (with *error) on exec failure, early
  /// exit, or timeout; the process is then killed.
  bool Start(const std::vector<std::string>& argv, int timeout_ms,
             std::string* error);

  /// SIGTERM, then waits up to `timeout_ms` for exit. True only for a
  /// printed "drained" line and exit status 0; otherwise the process is
  /// killed and *error says why.
  bool Stop(int timeout_ms, std::string* error);

  int pid() const { return pid_; }
  int port() const { return port_; }
  /// Every stdout line seen so far.
  std::vector<std::string> lines();

 private:
  void ReadLoop();
  /// SIGKILL + reap; safe to call repeatedly.
  void Kill();

  pid_t pid_ = -1;
  int port_ = 0;
  int stdin_fd_ = -1;   ///< held open: fleet-serve runs until stdin closes
  int stdout_fd_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  bool eof_ = false;
  std::thread reader_;
};

}  // namespace perfbench
