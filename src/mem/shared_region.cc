#include "mem/shared_region.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "mem/page.h"

namespace faasm {

namespace {
int MemfdCreate(const char* name) {
  return static_cast<int>(syscall(SYS_memfd_create, name, 0));
}
}  // namespace

Result<std::unique_ptr<SharedRegion>> SharedRegion::Create(const std::string& name, size_t size,
                                                           size_t dirty_line_bytes) {
  if (size == 0) {
    return InvalidArgument("SharedRegion: size must be non-zero");
  }
  const size_t mapped_size = RoundUpTo(size, kHostPageBytes);

  int fd = MemfdCreate(name.c_str());
  if (fd < 0) {
    return Unavailable(std::string("memfd_create failed: ") + std::strerror(errno));
  }
  if (ftruncate(fd, static_cast<off_t>(mapped_size)) != 0) {
    close(fd);
    return ResourceExhausted(std::string("ftruncate failed: ") + std::strerror(errno));
  }

  void* view = mmap(nullptr, mapped_size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (view == MAP_FAILED) {
    close(fd);
    return ResourceExhausted(std::string("mmap host view failed: ") + std::strerror(errno));
  }

  return std::unique_ptr<SharedRegion>(
      new SharedRegion(fd, size, mapped_size, static_cast<uint8_t*>(view), dirty_line_bytes));
}

SharedRegion::~SharedRegion() {
  if (host_view_ != nullptr) {
    munmap(host_view_, mapped_size_);
  }
  if (fd_ >= 0) {
    close(fd_);
  }
}

}  // namespace faasm
