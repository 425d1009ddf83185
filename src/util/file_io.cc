#include "util/file_io.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace glint::util {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

Result<std::vector<char>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("cannot open for read", path);
  }
  // Only a regular file's size is its length (a directory's is not).
  struct stat info;
  if (::fstat(fileno(f), &info) != 0 || !S_ISREG(info.st_mode)) {
    std::fclose(f);
    return Status::IOError("not a regular file: " + path);
  }
  std::vector<char> bytes(static_cast<size_t>(info.st_size));
  // fread's buffer may not be null, which an empty vector's can be.
  const bool ok = bytes.empty() ||
                  std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const Status st = ok ? Status::OK() : ErrnoStatus("cannot read", path);
  std::fclose(f);
  if (!st.ok()) return st;
  return bytes;
}

Status WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("cannot open for write", path);
  const bool ok =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !ok) return ErrnoStatus("cannot write", path);
  return Status::OK();
}

}  // namespace glint::util
