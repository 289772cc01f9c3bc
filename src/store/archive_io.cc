#include "store/archive_io.h"

#include <bit>
#include <memory>
#include <sstream>
#include <utility>

#include "core/delta.h"
#include "store/atomic_writer.h"
#include "store/container.h"
#include "store/delta.h"
#include "store/snapshot.h"

namespace rdfalign::store {

namespace {

/// A saved archive with V >= 1 versions has 2V sections: the base
/// snapshot, V-1 deltas, V entity columns. An empty archive has none.
uint64_t ExpectedSections(uint64_t num_versions) {
  return num_versions == 0 ? 0 : 2 * num_versions;
}

ArchiveSectionId ExpectedSectionId(uint64_t num_versions, uint64_t index) {
  if (index == 0) return ArchiveSectionId::kBaseSnapshot;
  if (index < num_versions) return ArchiveSectionId::kDelta;
  return ArchiveSectionId::kEntities;
}

/// Caps num_versions so every size computation below stays far from
/// overflow (also the VersionArchive practical range).
constexpr uint64_t kMaxArchiveVersions = uint64_t{1} << 20;

bool ExpectArchiveSections(const unsigned char* bytes,
                           std::span<SectionSpec> specs) {
  const uint64_t num_versions = LoadHeader<ArchiveHeader>(bytes).num_versions;
  if (num_versions > kMaxArchiveVersions) return false;
  // Embedded images validate themselves when loaded; entity columns must
  // hold whole ids.
  for (uint64_t s = 0; s < specs.size(); ++s) {
    const ArchiveSectionId id = ExpectedSectionId(num_versions, s);
    specs[s] = {RawId(id), kDataDependentSize,
                id == ArchiveSectionId::kEntities ? sizeof(EntityId) : 1};
  }
  return true;
}

constexpr ContainerFormat kArchiveFormat = {
    .kind = "archive",
    .magic = kArchiveMagic,
    .header_size = sizeof(ArchiveHeader),
    .min_version = kArchiveFormatVersion,
    .max_version = kArchiveFormatVersion,
    .section_count = [](const unsigned char* h) -> uint64_t {
      return ExpectedSections(LoadHeader<ArchiveHeader>(h).num_versions);
    },
    .expect = ExpectArchiveSections,
    .section_name =
        [](uint32_t id) {
          return ArchiveSectionName(static_cast<ArchiveSectionId>(id));
        },
};

}  // namespace

std::string_view ArchiveSectionName(ArchiveSectionId id) {
  switch (id) {
    case ArchiveSectionId::kBaseSnapshot:
      return "base_snapshot";
    case ArchiveSectionId::kDelta:
      return "delta";
    case ArchiveSectionId::kEntities:
      return "entities";
  }
  return "unknown";
}

Status SaveArchive(const VersionArchive& archive, const std::string& path,
                   ArchiveSaveStats* stats) {
  static_assert(std::endian::native == std::endian::little,
                "archives are written on little-endian hosts only");
  const uint64_t num_versions = archive.NumVersions();
  if (num_versions > kMaxArchiveVersions) {
    return Status::InvalidArgument("too many versions for an archive file: " +
                                   path);
  }

  // Render the embedded images. Version 0 is a full snapshot; every later
  // version is a delta against its predecessor, with the node map derived
  // from the archive's entity chaining — no re-alignment.
  std::vector<std::string> images;
  images.reserve(num_versions);
  for (uint32_t v = 0; v < num_versions; ++v) {
    std::ostringstream image(std::ios::binary);
    if (v == 0) {
      RDFALIGN_RETURN_IF_ERROR(WriteSnapshotToStream(
          archive.Version(0), image, path + " (base snapshot)"));
    } else {
      const VersionNodeMap map =
          NodeMapFromEntities(archive.Entities(v - 1), archive.Entities(v));
      RDFALIGN_RETURN_IF_ERROR(WriteDeltaToStream(
          archive.Version(v - 1), archive.Version(v), map, image,
          path + " (delta " + std::to_string(v) + ")"));
    }
    images.push_back(std::move(image).str());
  }

  std::vector<SectionSource> sections;
  ArchiveSaveStats local_stats;
  for (uint64_t v = 0; v < num_versions; ++v) {
    sections.push_back({RawId(v == 0 ? ArchiveSectionId::kBaseSnapshot
                                     : ArchiveSectionId::kDelta),
                        images[v].data(), images[v].size()});
    (v == 0 ? local_stats.base_bytes : local_stats.delta_bytes) +=
        images[v].size();
  }
  for (uint32_t v = 0; v < num_versions; ++v) {
    const std::vector<EntityId>& entities = archive.Entities(v);
    sections.push_back({RawId(ArchiveSectionId::kEntities), entities.data(),
                        entities.size() * sizeof(EntityId)});
    local_stats.entity_bytes += sections.back().size;
  }
  ArchiveHeader header{};
  header.version = kArchiveFormatVersion;
  header.num_versions = num_versions;

  RDFALIGN_RETURN_IF_ERROR(
      AtomicWriteStream(path, "archive", [&](std::ostream& out) {
        return WriteContainer(kArchiveFormat, &header, sections, out, path);
      }));
  if (stats != nullptr) {
    local_stats.file_bytes = header.file_size;
    *stats = local_stats;
  }
  return Status::OK();
}

Result<VersionArchive> LoadArchive(const std::string& path,
                                   AlignerOptions options,
                                   ArchiveLoadStats* stats) {
  static_assert(std::endian::native == std::endian::little,
                "archives are read on little-endian hosts only");
  RDFALIGN_ASSIGN_OR_RETURN(
      Container c, Container::Open(kArchiveFormat, path, Acquire::kBuffer));
  const uint64_t num_versions = c.header<ArchiveHeader>().num_versions;
  // Archive-level content verification before any section is interpreted
  // (the embedded snapshot/delta images additionally self-validate).
  RDFALIGN_RETURN_IF_ERROR(c.VerifyChecksums(/*threads=*/1));

  // Materialize every version by patch replay, all sharing one dictionary
  // (the VersionArchive invariant). The base snapshot adopts its arrays
  // zero-copy from the archive buffer; deltas build fresh arrays.
  auto dict = std::make_shared<Dictionary>();
  std::vector<TripleGraph> versions;
  versions.reserve(num_versions);
  for (uint64_t v = 0; v < num_versions; ++v) {
    const auto image = c.Section<unsigned char>(v);
    const std::string name =
        path + " (section " + std::string(ArchiveSectionName(
                                  ExpectedSectionId(num_versions, v))) +
        " " + std::to_string(v) + ")";
    if (v == 0) {
      RDFALIGN_ASSIGN_OR_RETURN(
          TripleGraph g,
          LoadSnapshotFromMemory(c.pin(), image.data(), image.size(), dict,
                                 {}, nullptr, name));
      versions.push_back(std::move(g));
    } else {
      RDFALIGN_ASSIGN_OR_RETURN(
          TripleGraph g,
          ApplyDeltaFromMemory(versions.back(), image.data(), image.size(),
                               dict, {}, nullptr, name));
      versions.push_back(std::move(g));
    }
  }
  std::vector<std::vector<EntityId>> entity_of;
  entity_of.reserve(num_versions);
  for (uint64_t v = 0; v < num_versions; ++v) {
    const auto column = c.Section<EntityId>(num_versions + v);
    if (column.size() != versions[v].NumNodes()) {
      return Status::Corruption(
          "archive entity column size does not match version " +
          std::to_string(v) + ": " + path);
    }
    entity_of.emplace_back(column.begin(), column.end());
  }
  if (stats != nullptr) {
    stats->file_bytes = c.size();
    stats->versions = num_versions;
  }
  return VersionArchive::Restore(options, std::move(versions),
                                 std::move(entity_of));
}

Result<ArchiveInfo> ReadArchiveInfo(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      Container c, Container::Open(kArchiveFormat, path, Acquire::kPrefix));
  const auto header = c.header<ArchiveHeader>();
  ArchiveInfo info;
  info.version = header.version;
  info.num_versions = header.num_versions;
  info.file_size = header.file_size;
  for (const SectionEntry& sec : c.table()) {
    info.sections.push_back(
        ArchiveSectionInfo{static_cast<ArchiveSectionId>(sec.id), sec.offset,
                           sec.size, sec.checksum});
  }
  return info;
}

Result<uint64_t> ArchiveBaseFingerprint(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      Container c, Container::Open(kArchiveFormat, path, Acquire::kPrefix));
  if (c.header<ArchiveHeader>().num_versions == 0) {
    return Status::InvalidArgument("empty archive has no base snapshot: " +
                                   path);
  }
  RDFALIGN_ASSIGN_OR_RETURN(std::shared_ptr<std::string> image,
                            c.ReadSection(0));
  const auto* data = reinterpret_cast<const unsigned char*>(image->data());
  const uint64_t size = image->size();
  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph base,
      LoadSnapshotFromMemory(std::move(image), data, size, nullptr, {},
                             nullptr, path + " (section base_snapshot 0)"));
  return GraphFingerprint(base);
}

bool LooksLikeArchive(const std::string& path) {
  return FileHasMagic(kArchiveFormat, path);
}

}  // namespace rdfalign::store
