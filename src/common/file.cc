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

}  // namespace vod
