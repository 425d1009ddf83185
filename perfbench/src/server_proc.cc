#include "server_proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>

namespace perfbench {

ServerProcess::~ServerProcess() {
  Kill();
  if (reader_.joinable()) reader_.join();
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

bool ServerProcess::Start(const std::vector<std::string>& argv, int timeout_ms,
                          std::string* error) {
  int in_pipe[2], out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid_ == 0) {
    // Child: die with the benchmark, whatever happens to it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
  reader_ = std::thread([this] { ReadLoop(); });

  std::unique_lock<std::mutex> lock(mu_);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  size_t seen = 0;
  for (;;) {
    for (; seen < lines_.size(); ++seen) {
      const std::string& l = lines_[seen];
      const size_t at = l.find("listening on 127.0.0.1:");
      if (at != std::string::npos) {
        port_ = std::atoi(l.c_str() + at + std::strlen("listening on 127.0.0.1:"));
        if (port_ > 0) return true;
      }
    }
    if (eof_) {
      *error = "server exited before listening";
      break;
    }
    if (cv_.wait_until(lock, until) == std::cv_status::timeout &&
        seen == lines_.size()) {
      *error = "server did not listen within " + std::to_string(timeout_ms) +
               " ms";
      break;
    }
  }
  lock.unlock();
  Kill();
  return false;
}

void ServerProcess::ReadLoop() {
  std::string partial;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(stdout_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    partial.append(buf, static_cast<size_t>(n));
    size_t nl;
    while ((nl = partial.find('\n')) != std::string::npos) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(partial.substr(0, nl));
      partial.erase(0, nl + 1);
      cv_.notify_all();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!partial.empty()) lines_.push_back(partial);
  eof_ = true;
  cv_.notify_all();
}

std::vector<std::string> ServerProcess::lines() {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

bool ServerProcess::Stop(int timeout_ms, std::string* error) {
  if (pid_ <= 0) {
    *error = "server not running";
    return false;
  }
  kill(pid_, SIGTERM);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  int status = 0;
  bool exited = false;
  while (std::chrono::steady_clock::now() < until) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!exited) {
    *error = "server did not exit within " + std::to_string(timeout_ms) +
             " ms of SIGTERM";
    Kill();
    return false;
  }
  pid_ = -1;
  if (stdin_fd_ >= 0) close(stdin_fd_);
  stdin_fd_ = -1;
  if (reader_.joinable()) reader_.join();
  bool drained = false;
  for (const auto& l : lines()) drained |= l.rfind("drained:", 0) == 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "server exit status " + std::to_string(status);
    return false;
  }
  if (!drained) {
    *error = "server exited without a drained line";
    return false;
  }
  return true;
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdin_fd_ >= 0) close(stdin_fd_);
  stdin_fd_ = -1;
}

}  // namespace perfbench
