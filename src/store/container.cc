#include "store/container.h"

#include <filesystem>
#include <fstream>
#include <new>
#include <ostream>
#include <utility>

#include "store/mapped_file.h"
#include "util/thread_pool.h"

namespace rdfalign::store {

namespace {

/// The fields every header starts with.
struct HeaderPrefix {
  std::array<char, 8> magic;
  uint32_t version;
  uint32_t endian_tag;
};

/// The fields every header ends with.
struct HeaderTrailer {
  uint64_t num_sections;
  uint64_t file_size;
  uint64_t header_checksum;
};

static_assert(sizeof(HeaderPrefix) == 16 && sizeof(HeaderTrailer) == 24);

size_t TrailerOffset(const ContainerFormat& format) {
  return format.header_size - sizeof(HeaderTrailer);
}

/// Checksum64 of header + table with the header_checksum field zeroed.
uint64_t HeaderChecksum(const ContainerFormat& format,
                        const unsigned char* header,
                        std::span<const SectionEntry> table) {
  std::vector<unsigned char> zeroed(header, header + format.header_size);
  std::memset(zeroed.data() + format.header_size - sizeof(uint64_t), 0,
              sizeof(uint64_t));
  Checksummer c;
  c.Update(zeroed.data(), zeroed.size());
  c.Update(table.data(), table.size() * sizeof(SectionEntry));
  return c.Finish();
}

/// Opens `path` for reading and returns its size. Only regular files are
/// accepted — a directory "opens" as an ifstream on Linux and tellg() then
/// reports a nonsense size (observed: -1 or LLONG_MAX).
Result<uint64_t> OpenRegularFile(const std::string& path, std::ifstream& in) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) {
    return Status::IOError("not a regular file: " + path);
  }
  in.open(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IOError("cannot open file: " + path);
  }
  const std::streamoff pos = in.tellg();
  if (!in || pos < 0) {
    return Status::IOError("cannot determine file size: " + path);
  }
  return static_cast<uint64_t>(pos);
}

Status ReadAt(std::ifstream& in, uint64_t offset, void* dst, uint64_t n,
              const std::string& path) {
  if (n == 0) return Status::OK();
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!in) {
    return Status::IOError("error reading file: " + path);
  }
  return Status::OK();
}

/// Reads `n` bytes at `offset` into a fresh buffer. A size the allocator
/// refuses comes back as a Status, not a bad_alloc.
Result<std::shared_ptr<std::string>> ReadBuffer(std::ifstream& in,
                                                uint64_t offset, uint64_t n,
                                                const std::string& what,
                                                const std::string& path) {
  auto buffer = std::make_shared<std::string>();
  try {
    buffer->resize(n);
  } catch (const std::bad_alloc&) {
    return Status::IOError(what + " too large to buffer (" +
                           std::to_string(n) + " bytes): " + path);
  }
  RDFALIGN_RETURN_IF_ERROR(ReadAt(in, offset, buffer->data(), n, path));
  return buffer;
}

}  // namespace

Status Container::Validate(
    uint64_t actual_size,
    const std::function<Status(uint64_t, void*, uint64_t)>& read) {
  const ContainerFormat& f = *format_;
  const std::string kind = f.kind;
  const auto corrupt = [this](const std::string& what) {
    return Status::Corruption(what + ": " + name_);
  };

  if (actual_size < f.header_size) {
    return corrupt("truncated " + kind + " (no header)");
  }
  header_.resize(f.header_size);
  RDFALIGN_RETURN_IF_ERROR(read(0, header_.data(), f.header_size));
  const auto prefix = LoadHeader<HeaderPrefix>(header_.data());
  if (prefix.magic != f.magic) {
    return Status::InvalidArgument("not an rdfalign " + kind + ": " + name_);
  }
  if (prefix.version < f.min_version || prefix.version > f.max_version) {
    const std::string accepted =
        f.min_version == f.max_version
            ? "version " + std::to_string(f.min_version)
            : "versions " + std::to_string(f.min_version) + "-" +
                  std::to_string(f.max_version);
    return Status::NotSupported(
        "unsupported " + kind + " format version " +
        std::to_string(prefix.version) + " (this build reads " + accepted +
        "): " + name_);
  }
  if (prefix.endian_tag != kEndianTag) {
    return Status::NotSupported(
        kind + " written with a different byte order: " + name_);
  }
  const auto trailer =
      LoadHeader<HeaderTrailer>(header_.data() + TrailerOffset(f));
  if (trailer.num_sections != f.section_count(header_.data())) {
    return corrupt("unexpected " + kind + " section count");
  }
  if (trailer.file_size != actual_size) {
    return corrupt(kind + " size mismatch (header says " +
                   std::to_string(trailer.file_size) + " bytes, file has " +
                   std::to_string(actual_size) + ")");
  }
  // The table is read only once the file proves to hold it, so a crafted
  // section count cannot drive the allocation.
  if (trailer.num_sections >
      (actual_size - f.header_size) / sizeof(SectionEntry)) {
    return corrupt("truncated " + kind + " (no section table)");
  }
  const size_t n = static_cast<size_t>(trailer.num_sections);
  table_.resize(n);
  RDFALIGN_RETURN_IF_ERROR(
      read(f.header_size, table_.data(), n * sizeof(SectionEntry)));
  if (HeaderChecksum(f, header_.data(), table_) != trailer.header_checksum) {
    return corrupt(kind + " header checksum mismatch");
  }

  std::vector<SectionSpec> specs(n);
  if (!f.expect(header_.data(), specs)) {
    return corrupt("implausible " + kind + " counts");
  }
  // Packed geometry: each section starts exactly at the aligned end of the
  // previous one (the table, for the first), and the file ends with the
  // last section.
  uint64_t end = f.header_size + n * sizeof(SectionEntry);
  for (size_t s = 0; s < n; ++s) {
    const SectionEntry& sec = table_[s];
    if (sec.id != specs[s].id || sec.reserved != 0) {
      return corrupt("malformed " + kind + " section table");
    }
    if (specs[s].size == kDataDependentSize
            ? sec.size % specs[s].unit != 0
            : sec.size != specs[s].size) {
      return corrupt(SectionLabel(s) + " has unexpected size");
    }
    if (sec.offset != AlignUp(end) || sec.offset > trailer.file_size ||
        sec.size > trailer.file_size - sec.offset) {
      return corrupt(SectionLabel(s) + " out of bounds");
    }
    end = sec.offset + sec.size;
  }
  if (end != trailer.file_size) {
    return corrupt(kind + " has bytes past its last section");
  }
  return Status::OK();
}

std::string Container::SectionLabel(size_t index) const {
  return std::string(format_->kind) + " section " + std::to_string(index) +
         " (" + std::string(format_->section_name(table_[index].id)) + ")";
}

Result<Container> Container::Open(const ContainerFormat& format,
                                  const std::string& path, Acquire how) {
  if (how == Acquire::kMmap) {
    RDFALIGN_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                              MappedFile::Open(path));
    const unsigned char* data = file->data();
    const uint64_t size = file->size();
    return FromMemory(format, std::move(file), data, size, path);
  }
  Container c(format, path);
  auto in = std::make_shared<std::ifstream>();
  RDFALIGN_ASSIGN_OR_RETURN(const uint64_t size, OpenRegularFile(path, *in));
  RDFALIGN_RETURN_IF_ERROR(
      c.Validate(size, [&](uint64_t offset, void* dst, uint64_t n) {
        return ReadAt(*in, offset, dst, n, path);
      }));
  if (how == Acquire::kPrefix) {
    c.file_ = std::move(in);
    return c;
  }
  // The header vouched for the size; a genuinely huge file can still
  // exceed memory.
  RDFALIGN_ASSIGN_OR_RETURN(std::shared_ptr<std::string> buffer,
                            ReadBuffer(*in, 0, size, format.kind, path));
  c.data_ = reinterpret_cast<const unsigned char*>(buffer->data());
  c.size_ = size;
  c.pin_ = std::move(buffer);
  return c;
}

Result<Container> Container::FromMemory(const ContainerFormat& format,
                                        std::shared_ptr<const void> pin,
                                        const unsigned char* data,
                                        uint64_t size,
                                        const std::string& name) {
  Container c(format, name);
  c.pin_ = std::move(pin);
  c.data_ = data;
  c.size_ = size;
  RDFALIGN_RETURN_IF_ERROR(
      c.Validate(size, [data](uint64_t offset, void* dst, uint64_t n) {
        if (n > 0) std::memcpy(dst, data + offset, n);
        return Status::OK();
      }));
  return c;
}

Status Container::VerifyChecksums(size_t threads) const {
  std::vector<uint8_t> bad(table_.size(), 0);
  ParallelChunks(table_.size(), threads, /*grain=*/1,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t s = begin; s < end; ++s) {
                     bad[s] = Checksum64(data_ + table_[s].offset,
                                         table_[s].size) != table_[s].checksum;
                   }
                 });
  for (size_t s = 0; s < table_.size(); ++s) {
    if (bad[s]) {
      return Status::Corruption(SectionLabel(s) + " checksum mismatch: " +
                                name_);
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<std::string>> Container::ReadSection(size_t index) {
  const SectionEntry& sec = table_[index];
  RDFALIGN_ASSIGN_OR_RETURN(
      std::shared_ptr<std::string> bytes,
      ReadBuffer(*file_, sec.offset, sec.size, SectionLabel(index), name_));
  if (Checksum64(bytes->data(), bytes->size()) != sec.checksum) {
    return Status::Corruption(SectionLabel(index) + " checksum mismatch: " +
                              name_);
  }
  return bytes;
}

Status WriteContainer(const ContainerFormat& format, void* header,
                      std::span<const SectionSource> sections,
                      std::ostream& out, const std::string& name) {
  auto* head = static_cast<unsigned char*>(header);
  const auto for_each_piece = [](const SectionSource& s,
                                 const PieceSink& sink) {
    if (s.pieces) {
      s.pieces(sink);
    } else {
      sink(std::string_view(static_cast<const char*>(s.data), s.size));
    }
  };

  std::vector<SectionEntry> table(sections.size());
  uint64_t end = format.header_size + table.size() * sizeof(SectionEntry);
  for (size_t s = 0; s < sections.size(); ++s) {
    Checksummer c;
    for_each_piece(sections[s], [&c](std::string_view piece) {
      c.Update(piece.data(), piece.size());
    });
    table[s] = SectionEntry{sections[s].id, 0, AlignUp(end), sections[s].size,
                            c.Finish()};
    end = table[s].offset + table[s].size;
  }

  std::memcpy(head, format.magic.data(), format.magic.size());
  std::memcpy(head + offsetof(HeaderPrefix, endian_tag), &kEndianTag,
              sizeof(kEndianTag));
  HeaderTrailer trailer{table.size(), end, 0};
  std::memcpy(head + TrailerOffset(format), &trailer, sizeof(trailer));
  trailer.header_checksum = HeaderChecksum(format, head, table);
  std::memcpy(head + TrailerOffset(format), &trailer, sizeof(trailer));

  const auto write = [&out](const void* data, size_t n) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  };
  write(head, format.header_size);
  write(table.data(), table.size() * sizeof(SectionEntry));
  uint64_t written = format.header_size + table.size() * sizeof(SectionEntry);
  const char zeros[kSectionAlignment] = {};
  for (size_t s = 0; s < sections.size(); ++s) {
    write(zeros, table[s].offset - written);
    for_each_piece(sections[s], [&write](std::string_view piece) {
      write(piece.data(), piece.size());
    });
    written = table[s].offset + table[s].size;
  }
  out.flush();
  if (!out) {
    return Status::IOError("error writing " + std::string(format.kind) +
                           ": " + name);
  }
  return Status::OK();
}

bool HasMagic(const ContainerFormat& format, std::string_view bytes) {
  return bytes.size() >= format.magic.size() &&
         std::memcmp(bytes.data(), format.magic.data(), format.magic.size()) ==
             0;
}

bool FileHasMagic(const ContainerFormat& format, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  decltype(format.magic) head = {};
  in.read(head.data(), head.size());
  return HasMagic(format, std::string_view(head.data(), in.gcount()));
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) {
    return Status::NotFound("no such file: " + path);
  }
  std::ifstream in;
  RDFALIGN_ASSIGN_OR_RETURN(const uint64_t size, OpenRegularFile(path, in));
  RDFALIGN_ASSIGN_OR_RETURN(std::shared_ptr<std::string> bytes,
                            ReadBuffer(in, 0, size, "file", path));
  return std::move(*bytes);
}

}  // namespace rdfalign::store
