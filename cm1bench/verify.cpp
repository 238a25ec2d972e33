#include "verify.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <variant>

#include "h5lite/h5lite.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"

namespace cm1bench {

namespace fs = std::filesystem;
namespace storage = dedicore::storage;
namespace h5lite = dedicore::h5lite;

std::uint64_t payload_hash(std::span<const std::byte> bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const auto rotl = [](std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  std::uint64_t lane[4] = {1, 2, 3, 4};
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes.data() + i + 8 * k, 8);
      lane[k] = rotl((lane[k] ^ word) * kMul, 29);
    }
  }
  for (; i < n; ++i)
    lane[0] = rotl((lane[0] ^ std::to_integer<std::uint64_t>(bytes[i])) * kMul, 29);
  std::uint64_t h = n;
  for (std::uint64_t l : lane) h = rotl((h ^ l) * kMul, 31);
  return h;
}

namespace {

struct ImageCheck {
  bool ok = false;
  std::string error;
  std::uint64_t raw_bytes = 0;  ///< decoded dataset bytes
};

/// Parses "r<client>_b<block>"; false on any other shape.
bool parse_dataset_name(const std::string& name, int* client, int* block) {
  int c = -1, b = -1, consumed = 0;
  if (std::sscanf(name.c_str(), "r%d_b%d%n", &c, &b, &consumed) != 2 ||
      static_cast<std::size_t>(consumed) != name.size())
    return false;
  *client = c;
  *block = b;
  return true;
}

std::optional<std::vector<std::byte>> read_back(
    const storage::StorageBackend& backend, const std::string& path,
    std::string* error) {
  if (const auto* sharded = dynamic_cast<const storage::ShardedBackend*>(&backend)) {
    std::vector<std::byte> out;
    const dedicore::Status st = sharded->read_image(path, &out);
    if (!st.is_ok()) {
      *error = st.to_string();
      return std::nullopt;
    }
    return out;
  }
  auto out = backend.read_file(path);
  if (!out) *error = "not found";
  return out;
}

ImageCheck check_parsed(const h5lite::File& file, std::int64_t iteration,
                        const Expected& expected) {
  ImageCheck result;
  const auto fail = [&result](std::string why) {
    result.error = std::move(why);
    return result;
  };
  const auto it_attr = file.root().attributes.find("iteration");
  if (it_attr == file.root().attributes.end() ||
      !std::holds_alternative<std::int64_t>(it_attr->second) ||
      std::get<std::int64_t>(it_attr->second) != iteration)
    return fail("iteration attribute missing or wrong");
  const std::size_t clients = expected.hashes.size();
  const std::size_t vars = expected.variables.size();
  if (file.root().groups.size() != vars)
    return fail("image holds " + std::to_string(file.root().groups.size()) +
                " variable groups, expected " + std::to_string(vars));
  for (std::size_t v = 0; v < vars; ++v) {
    const h5lite::Group* group = file.root().find_group(expected.variables[v]);
    if (group == nullptr) return fail("missing group " + expected.variables[v]);
    if (group->datasets.size() != clients)
      return fail("group " + expected.variables[v] + " holds " +
                  std::to_string(group->datasets.size()) + " blocks, expected " +
                  std::to_string(clients));
    std::vector<bool> seen(clients, false);
    for (const h5lite::Dataset& ds : group->datasets) {
      int client = -1, block = -1;
      if (!parse_dataset_name(ds.name, &client, &block) || block != 0 ||
          client < 0 || static_cast<std::size_t>(client) >= clients ||
          seen[static_cast<std::size_t>(client)])
        return fail("unexpected dataset " + expected.variables[v] + "/" + ds.name);
      seen[static_cast<std::size_t>(client)] = true;
      const auto& recorded = expected.hashes[static_cast<std::size_t>(client)];
      const std::size_t index = static_cast<std::size_t>(iteration) * vars + v;
      if (index >= recorded.size())
        return fail("no recorded write for " + expected.variables[v] + "/" + ds.name);
      const std::vector<std::byte> data = ds.read();
      if (payload_hash(data) != recorded[index])
        return fail("payload mismatch in " + expected.variables[v] + "/" + ds.name);
      result.raw_bytes += data.size();
    }
  }
  result.ok = true;
  return result;
}

/// Temp files and quarantined entries a clean run must not leave behind.
std::optional<fs::path> find_leftover(const fs::path& root) {
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const fs::path rel = entry.path().lexically_relative(root);
    const std::string name = entry.path().filename().string();
    if (name.find(".part-") != std::string::npos) return entry.path();
    if (name != std::string(storage::PosixBackend::kQuarantineDirName))
      for (const auto& part : rel)
        if (part == storage::PosixBackend::kQuarantineDirName) return entry.path();
  }
  return std::nullopt;
}

/// Reads one image back, parses it, decodes every dataset and compares it
/// with the recorded hashes.
ImageCheck check_image(const storage::StorageBackend& backend,
                       const std::string& path, std::int64_t iteration,
                       const Expected& expected) {
  ImageCheck result;
  auto bytes = read_back(backend, path, &result.error);
  if (!bytes) {
    result.error = path + ": read failed: " + result.error;
    return result;
  }
  try {
    const h5lite::File file = h5lite::File::parse(std::move(*bytes));
    result = check_parsed(file, iteration, expected);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  if (!result.ok) result.error = path + ": " + result.error;
  return result;
}

}  // namespace

VerifyReport verify_run(const storage::StorageBackend& backend,
                        const std::vector<fs::path>& roots,
                        const std::vector<std::string>& images,
                        const Expected& expected) {
  VerifyReport report;
  const auto fail = [&report](std::string why) {
    report.error = std::move(why);
    return report;
  };
  if (backend.file_count() != images.size())
    return fail("published " + std::to_string(backend.file_count()) +
                " images, expected " + std::to_string(images.size()));

  std::vector<double> rates;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    const ImageCheck check =
        check_image(backend, images[i], static_cast<std::int64_t>(i), expected);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (!check.ok) return fail(check.error);
    report.raw_bytes += check.raw_bytes;
    ++report.images;
    rates.push_back(static_cast<double>(check.raw_bytes) / 1e6 / seconds);
  }
  std::sort(rates.begin(), rates.end());
  if (!rates.empty()) report.readback_mb_s = rates[rates.size() / 2];

  if (const auto* sharded = dynamic_cast<const storage::ShardedBackend*>(&backend);
      sharded != nullptr && sharded->counters().corrupt_chunks_detected != 0)
    return fail("sharded layer detected corrupt chunks");
  for (const fs::path& root : roots) {
    if (const auto leftover = find_leftover(root))
      return fail("leftover entry " + leftover->string());
    for (const auto& entry : fs::recursive_directory_iterator(root))
      if (entry.is_regular_file()) report.disk_bytes += entry.file_size();
  }
  report.ok = true;
  return report;
}

bool verifier_rejects_corruption(const storage::StorageBackend& backend,
                                 const std::vector<fs::path>& roots,
                                 const std::string& image,
                                 std::int64_t iteration,
                                 const Expected& expected,
                                 const fs::path& scratch) {
  // Copy every file of the image (the image itself on a posix root; its
  // chunks and manifest on sharded roots), keeping each root's layout.  The
  // flipped byte is the first byte of the first dataset's stored data
  // (h5lite writes data blocks right after the superblock), which lies in
  // the image file or in its chunk 0.  A byte further in can be harmless:
  // in a compressed run of zeros, another match distance decodes the same.
  const std::string first_data_file =
      dynamic_cast<const storage::ShardedBackend*>(&backend) != nullptr
          ? image + std::string(storage::ShardedBackend::kChunkInfix) + "0"
          : image;
  std::vector<fs::path> copies;
  fs::path target;
  for (std::size_t r = 0; r < roots.size(); ++r) {
    const fs::path copy_root = scratch / ("root" + std::to_string(r));
    fs::create_directories(copy_root);
    copies.push_back(copy_root);
    for (const auto& entry : fs::recursive_directory_iterator(roots[r])) {
      const std::string rel = entry.path().lexically_relative(roots[r]).string();
      if (!entry.is_regular_file() || rel.rfind(image, 0) != 0) continue;
      fs::create_directories((copy_root / rel).parent_path());
      fs::copy_file(entry.path(), copy_root / rel);
      if (rel == first_data_file && target.empty()) target = copy_root / rel;
    }
  }
  if (target.empty()) return false;
  {
    std::fstream file(target, std::ios::in | std::ios::out | std::ios::binary);
    const auto offset = static_cast<std::streamoff>(h5lite::kSuperblockSize);
    char byte = 0;
    file.seekg(offset);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(offset);
    file.write(&byte, 1);
    if (!file) return false;
  }

  ImageCheck check;
  if (const auto* sharded = dynamic_cast<const storage::ShardedBackend*>(&backend)) {
    storage::ShardedBackend copy(copies, sharded->options());
    check = check_image(copy, image, iteration, expected);
  } else {
    storage::PosixBackend copy(copies.front());
    check = check_image(copy, image, iteration, expected);
  }
  return !check.ok;
}

}  // namespace cm1bench
