// SharedRegion: a memfd-backed block of physical memory that can be mapped
// simultaneously into many Faaslet linear memories (MAP_SHARED | MAP_FIXED)
// and into a host-side view. This is the mechanism behind Fig. 2 of the
// paper: Faaslets A and B both see region S at different guest offsets while
// the bytes exist exactly once.
#ifndef FAASM_MEM_SHARED_REGION_H_
#define FAASM_MEM_SHARED_REGION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "mem/dirty_tracker.h"

namespace faasm {

class SharedRegion {
 public:
  // Creates a region of `size` bytes (rounded up to whole host pages) backed
  // by an anonymous memfd, plus a host-side MAP_SHARED view for direct access
  // by the local state tier. Writes are tracked at `dirty_line_bytes`
  // granularity (a power of two; state replicas pass their push line size).
  static Result<std::unique_ptr<SharedRegion>> Create(const std::string& name, size_t size,
                                                      size_t dirty_line_bytes);

  ~SharedRegion();

  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  int fd() const { return fd_; }
  size_t size() const { return size_; }
  // Mapped length (size rounded up to host pages).
  size_t mapped_size() const { return mapped_size_; }

  uint8_t* host_view() { return host_view_; }
  const uint8_t* host_view() const { return host_view_; }

  // Write bitmap shared by every writer of the region — host-side state API
  // writes and guest stores through MAP_SHARED mappings both mark here, so a
  // delta push sees the union of all Faaslets' writes on this host.
  DirtyTracker& dirty() { return dirty_; }
  const DirtyTracker& dirty() const { return dirty_; }

 private:
  SharedRegion(int fd, size_t size, size_t mapped_size, uint8_t* host_view,
               size_t dirty_line_bytes)
      : fd_(fd),
        size_(size),
        mapped_size_(mapped_size),
        host_view_(host_view),
        dirty_(mapped_size, dirty_line_bytes) {}

  int fd_;
  size_t size_;
  size_t mapped_size_;
  uint8_t* host_view_;
  DirtyTracker dirty_;
};

}  // namespace faasm

#endif  // FAASM_MEM_SHARED_REGION_H_
