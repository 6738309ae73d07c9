#include "util/atomic_file.h"

#include <filesystem>
#include <fstream>

namespace minoan {

Result<uint64_t> WriteFileAtomic(
    const std::string& path,
    const std::function<Status(std::ostream&)>& write) {
  // Renaming over a device or FIFO (say /dev/null) would replace the
  // special file itself.
  std::error_code type_ec;
  if (std::filesystem::is_other(std::filesystem::status(path, type_ec))) {
    return Status::InvalidArgument(path + " is not a regular file");
  }
  const std::string tmp = path + ".tmp";
  const auto written = [&]() -> Result<uint64_t> {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    MINOAN_RETURN_IF_ERROR(write(out));
    out.flush();
    if (!out) return Status::IoError("short write to " + tmp);
    const auto bytes = static_cast<uint64_t>(out.tellp());
    out.close();
    if (!out) return Status::IoError("cannot close " + tmp);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      return Status::IoError("rename " + tmp + " -> " + path + ": " +
                             ec.message());
    }
    return bytes;
  }();
  if (!written.ok()) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  }
  return written;
}

}  // namespace minoan
