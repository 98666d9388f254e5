// Multi-file (directory) transfers.
//
// Real bulk-transfer sessions move directory trees, not single files. A
// FileSet presents a list of files as one contiguous logical byte range so
// the RFTP block pipeline needs no special casing; per-file costs (open,
// metadata, non-block-aligned tails) surface naturally as the small-file
// overhead every transfer tool fights.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blk/filesystem.hpp"
#include "rftp/source_sink.hpp"

namespace e2e::rftp {

/// An ordered list of files on one filesystem, addressable as a single
/// logical byte range (file boundaries are packed back to back).
class FileSet {
 public:
  explicit FileSet(blk::FileSystem& fs) : fs_(fs) {}

  /// Appends a file covering `bytes` of the logical range (defaults to
  /// the file's current size — the usual source-side case).
  void add(blk::File& f, std::uint64_t bytes = 0) {
    if (bytes == 0) bytes = f.size;
    entries_.push_back({&f, total_, bytes});
    total_ += bytes;
  }

  /// Creates `count` files of `bytes` each, pre-filled (source side).
  void create_filled(const std::string& prefix, int count,
                     std::uint64_t bytes) {
    for (int i = 0; i < count; ++i) {
      blk::File& f = fs_.create(prefix + std::to_string(i), bytes);
      f.size = f.allocated = bytes;
      add(f, bytes);
    }
  }

  /// Creates `count` empty files of capacity `bytes` (sink side). The sink
  /// set must mirror the source set's lengths so logical offsets line up.
  void create_empty(const std::string& prefix, int count,
                    std::uint64_t bytes) {
    for (int i = 0; i < count; ++i)
      add(fs_.create(prefix + std::to_string(i), bytes), bytes);
  }

  struct Piece {
    blk::File* file = nullptr;
    std::uint64_t file_offset = 0;
    std::uint64_t len = 0;
  };

  /// Maps a logical range onto the file pieces it covers.
  [[nodiscard]] std::vector<Piece> map(std::uint64_t offset,
                                       std::uint64_t len) const;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_; }
  [[nodiscard]] std::size_t file_count() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] blk::FileSystem& fs() noexcept { return fs_; }

 private:
  struct Entry {
    blk::File* file;
    std::uint64_t base;  // logical offset of the file's first byte
    std::uint64_t len;   // bytes of the logical range this file covers
  };
  std::vector<Entry> entries_;
  std::uint64_t total_ = 0;
  blk::FileSystem& fs_;
};

/// Reads a FileSet as one logical stream (direct I/O).
class FileSetSource final : public DataSource {
 public:
  FileSetSource(FileSet& set, FileSource::LocalityFn locality = nullptr)
      : set_(set), locality_(std::move(locality)) {}

  sim::Task<std::uint64_t> fill(numa::Thread& th, mem::Buffer& buf,
                                std::uint64_t offset,
                                std::uint64_t len) override;

  Home home(std::uint64_t offset, std::uint64_t len) const override {
    if (!locality_) return Home{};
    return Home{locality_(offset, len), offset + len};
  }

 private:
  FileSet& set_;
  FileSource::LocalityFn locality_;
};

/// Writes a FileSet as one logical stream (direct I/O).
class FileSetSink final : public DataSink {
 public:
  explicit FileSetSink(FileSet& set) : set_(set) {}

  sim::Task<> drain(numa::Thread& th, mem::Buffer& buf, std::uint64_t offset,
                    std::uint64_t len) override;

 private:
  FileSet& set_;
};

}  // namespace e2e::rftp
