#include "common/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace vod {

Status WriteFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open " + path + ": " +
                                   std::strerror(errno));
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    return Status::Internal("cannot write " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status WriteStream(std::FILE* out, std::string_view text) {
  if (std::fwrite(text.data(), 1, text.size(), out) != text.size()) {
    return Status::Internal(std::string("cannot write output: ") +
                            std::strerror(errno));
  }
  return FlushStream(out);
}

Status FlushStream(std::FILE* out) {
  if (std::fflush(out) != 0 || std::ferror(out) != 0) {
    return Status::Internal(std::string("cannot write output: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace vod
