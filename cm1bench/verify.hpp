// Output verifier of the benchmark.
//
// Every client records a hash of each (client, iteration, variable, block)
// payload it hands to Client::write.  After the run the verifier reads every
// published image back through the run's own storage backend (a
// CRC-verified ShardedBackend::read_image on sharded roots), parses it with
// h5lite, decodes every dataset and compares hashes.  It also checks the
// published image count, that no temp or quarantined file is left under the
// roots, and that the sharded layer saw no corrupt chunk.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "storage/backend.hpp"

namespace cm1bench {

/// Fast 64-bit content hash (four independent multiply-xor lanes), used to
/// compare what a client wrote with what the verifier decoded.
std::uint64_t payload_hash(std::span<const std::byte> bytes);

/// What the clients wrote.  One block per (client, iteration, variable):
/// the store plugin names it dataset "r<client>_b0" in group <variable>.
struct Expected {
  std::vector<std::string> variables;  ///< in write order
  /// hashes[client][iteration * variables.size() + variable]
  std::vector<std::vector<std::uint64_t>> hashes;
};

struct VerifyReport {
  bool ok = false;
  std::string error;
  std::uint64_t images = 0;
  std::uint64_t raw_bytes = 0;   ///< bytes recovered by the read-back
  /// Median over images of raw bytes recovered per second of read +
  /// parse + decode + hash (a median, so a few images whose pages left the
  /// page cache do not decide it).
  double readback_mb_s = 0.0;
  std::uint64_t disk_bytes = 0;  ///< every regular file under the roots
};

/// Verifies a finished run.  `images[i]` is the path of iteration i's image.
VerifyReport verify_run(const dedicore::storage::StorageBackend& backend,
                        const std::vector<std::filesystem::path>& roots,
                        const std::vector<std::string>& images,
                        const Expected& expected);

/// The verifier's negative check: copies `image` (its chunk and manifest
/// files too, on sharded roots) under `scratch`, flips one byte of a data
/// file, and reads the copy through a fresh backend of the same kind.
/// Returns true when the verifier rejects the corrupted copy.
bool verifier_rejects_corruption(
    const dedicore::storage::StorageBackend& backend,
    const std::vector<std::filesystem::path>& roots, const std::string& image,
    std::int64_t iteration, const Expected& expected,
    const std::filesystem::path& scratch);

}  // namespace cm1bench
