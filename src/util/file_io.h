#pragma once

// Whole-file I/O for Glint's file formats. Each format is read whole before
// it is decoded, so the file's size bounds every length and count in it: a
// declared length larger than the file is refused before anything is
// allocated for it.

#include <string>
#include <vector>

#include "util/status.h"

namespace glint::util {

/// IOError "`what` `path`: strerror(errno)".
Status ErrnoStatus(const std::string& what, const std::string& path);

/// The bytes of `path`: NotFound when it does not exist, IOError when it
/// is not a regular file or cannot be opened or read.
Result<std::vector<char>> ReadFile(const std::string& path);

/// Writes `bytes` to `path`, replacing it. Not atomic: a format that must
/// survive a crash mid-write stages and renames on its own.
Status WriteFile(const std::string& path, const std::vector<char>& bytes);

}  // namespace glint::util
