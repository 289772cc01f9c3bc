// Persistence of a VersionArchive (§6): one file holding the base
// snapshot, a chain of incremental deltas, and the per-version entity-id
// columns.
//
// SaveArchive embeds version 0 as a verbatim snapshot image and every
// later version as a delta image against its predecessor (derived from
// the archive's own entity chaining — no re-alignment), each a checksummed
// section in the RDFARCH1 layout of store/format.h. LoadArchive
// materializes every version by patch replay — LoadSnapshotFromMemory for
// the base (zero-copy into the archive buffer), ApplyDeltaFromMemory for
// each successor, all sharing one dictionary — and rebuilds the interval
// records through VersionArchive::Restore, so the loaded archive
// reproduces the saved one exactly: same stats, same entities, same
// materialized graphs.

#ifndef RDFALIGN_STORE_ARCHIVE_IO_H_
#define RDFALIGN_STORE_ARCHIVE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/archive.h"
#include "store/format.h"
#include "util/result.h"

namespace rdfalign::store {

/// Telemetry of an archive save.
struct ArchiveSaveStats {
  uint64_t file_bytes = 0;
  uint64_t base_bytes = 0;     ///< embedded base snapshot image
  uint64_t delta_bytes = 0;    ///< all embedded delta images
  uint64_t entity_bytes = 0;   ///< all entity columns
};

/// Serializes `archive` to `path`, overwriting any existing file.
Status SaveArchive(const VersionArchive& archive, const std::string& path,
                   ArchiveSaveStats* stats = nullptr);

/// Telemetry of an archive load.
struct ArchiveLoadStats {
  uint64_t file_bytes = 0;
  uint64_t versions = 0;
};

/// Loads an archive saved by SaveArchive, materializing every version by
/// patch replay. `options` configures the restored archive's future
/// Appends (the persisted data is alignment-method independent — the
/// chaining is already baked into the entity columns).
Result<VersionArchive> LoadArchive(const std::string& path,
                                   AlignerOptions options = {},
                                   ArchiveLoadStats* stats = nullptr);

/// Section metadata as reported by `rdfalign info` for archive files.
struct ArchiveSectionInfo {
  ArchiveSectionId id;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

/// Header-level archive metadata (no payload is read).
struct ArchiveInfo {
  uint32_t version = 0;
  uint64_t num_versions = 0;
  uint64_t file_size = 0;
  std::vector<ArchiveSectionInfo> sections;
};

/// Reads and validates the archive header and section table only.
Result<ArchiveInfo> ReadArchiveInfo(const std::string& path);

/// Content fingerprint (GraphFingerprint) of the archive's base snapshot
/// (version 0), computed from the embedded base image alone — no delta is
/// replayed and no other section is read. InvalidArgument for an empty
/// archive.
Result<uint64_t> ArchiveBaseFingerprint(const std::string& path);

/// Human-readable archive section name ("base_snapshot", "delta", ...).
std::string_view ArchiveSectionName(ArchiveSectionId id);

/// True when `path` starts with the archive magic.
bool LooksLikeArchive(const std::string& path);

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_ARCHIVE_IO_H_
